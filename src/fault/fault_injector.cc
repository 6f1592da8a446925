#include "fault/fault_injector.h"

#include <utility>

namespace ccsim::fault {

FaultInjector::FaultInjector(FaultPlan plan, sim::Pcg32 rng)
    : plan_(std::move(plan)), rng_(rng) {}

const LinkFaults& FaultInjector::LinkFor(int src, int dst) const {
  auto it = plan_.per_link.find({src, dst});
  return it == plan_.per_link.end() ? plan_.link : it->second;
}

FaultInjector::SendOutcome FaultInjector::DrawSendOutcome(int src, int dst) {
  const LinkFaults& faults = LinkFor(src, dst);
  if (faults.drop > 0.0 && rng_.Bernoulli(faults.drop)) {
    ++messages_dropped_;
    return SendOutcome::kDrop;
  }
  if (faults.duplicate > 0.0 && rng_.Bernoulli(faults.duplicate)) {
    ++messages_duplicated_;
    return SendOutcome::kDuplicate;
  }
  return SendOutcome::kDeliver;
}

sim::Ticks FaultInjector::DrawExtraDelay(int src, int dst) {
  const LinkFaults& faults = LinkFor(src, dst);
  if (faults.delay_spike <= 0.0 || faults.spike_delay <= 0) {
    return 0;
  }
  if (!rng_.Bernoulli(faults.delay_spike)) {
    return 0;
  }
  ++delay_spikes_;
  return faults.spike_delay;
}

void FaultInjector::SetDown(int node, bool down) {
  if (down) {
    down_.insert(node);
  } else {
    down_.erase(node);
  }
}

void FaultInjector::SetPartitioned(int node,
                                   PartitionWindow::Direction direction,
                                   bool cut) {
  const bool to_server = direction != PartitionWindow::Direction::kFromServer;
  const bool from_server = direction != PartitionWindow::Direction::kToServer;
  if (to_server) {
    if (cut) {
      cut_to_server_.insert(node);
    } else {
      cut_to_server_.erase(node);
    }
  }
  if (from_server) {
    if (cut) {
      cut_from_server_.insert(node);
    } else {
      cut_from_server_.erase(node);
    }
  }
}

bool FaultInjector::LinkCut(int src, int dst) const {
  // The topology is a star: every link pairs a client (id >= 0) with the
  // server (negative node id), so a cut is keyed by the client end alone.
  if (src >= 0 && dst < 0) {
    return cut_to_server_.count(src) > 0;
  }
  if (src < 0 && dst >= 0) {
    return cut_from_server_.count(dst) > 0;
  }
  return false;
}

bool FaultInjector::DrawTornWrite() {
  return plan_.storage.torn_write > 0.0 &&
         rng_.Bernoulli(plan_.storage.torn_write);
}

bool FaultInjector::DrawBitFlip() {
  return plan_.storage.bit_flip > 0.0 &&
         rng_.Bernoulli(plan_.storage.bit_flip);
}

FaultPlan MakePlan(const config::FaultParams& params) {
  FaultPlan plan;
  plan.link.drop = params.drop_probability;
  plan.link.duplicate = params.duplicate_probability;
  plan.link.delay_spike = params.delay_spike_probability;
  plan.link.spike_delay = sim::MillisToTicks(params.delay_spike_ms);
  for (const config::FaultParams::CrashEvent& crash : params.crashes) {
    plan.crashes.push_back(CrashWindow{crash.node,
                                       sim::SecondsToTicks(crash.at_s),
                                       sim::SecondsToTicks(crash.downtime_s)});
  }
  for (const config::FaultParams::PartitionEvent& part : params.partitions) {
    PartitionWindow window;
    window.node = part.node;
    window.at = sim::SecondsToTicks(part.at_s);
    window.duration = sim::SecondsToTicks(part.duration_s);
    switch (part.direction) {
      case 1:
        window.direction = PartitionWindow::Direction::kToServer;
        break;
      case 2:
        window.direction = PartitionWindow::Direction::kFromServer;
        break;
      default:
        window.direction = PartitionWindow::Direction::kBoth;
        break;
    }
    window.hard = part.hard;
    plan.partitions.push_back(window);
  }
  plan.storage.torn_write = params.torn_write_probability;
  plan.storage.bit_flip = params.bit_flip_probability;
  return plan;
}

}  // namespace ccsim::fault
