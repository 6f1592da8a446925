#include "net/network.h"

#include <utility>

#include "util/macros.h"

namespace ccsim::net {

sim::Task<void> Network::Send(MessagePtr msg) {
  const int packets = PacketsFor(*msg);
  if (transport_ != nullptr && injector_ == nullptr) {
    // The fault-free wire: one direct hand-off.
    ++messages_sent_;
    packets_sent_ += static_cast<std::uint64_t>(packets);
    transport_->Deliver(*msg);
    co_return;
  }
  // The wire charges no modeled CPU: its sender endpoint stays empty.
  Endpoint src;
  if (transport_ == nullptr) {
    const Endpoint* found = FindEndpoint(msg->src);
    CCSIM_CHECK_MSG(found != nullptr, "unregistered sender %d", msg->src);
    src = *found;
  }
  ++messages_sent_;
  packets_sent_ += static_cast<std::uint64_t>(packets);
  if (injector_ != nullptr && injector_->IsDown(msg->src)) {
    // A crashed node sends nothing: the sender coroutine is a zombie whose
    // output dies with the process.
    injector_->RecordDownDrop();
    co_return;
  }
  if (src.msg_cost > 0) {
    co_await src.cpu->Use(src.msg_cost * packets);
  }
  if (injector_ != nullptr && injector_->LinkCut(msg->src, msg->dst)) {
    // The sender paid to transmit, but the packets die at the severed link.
    injector_->RecordPartitionDrop();
    co_return;
  }
  if (injector_ != nullptr) {
    switch (injector_->DrawSendOutcome(msg->src, msg->dst)) {
      case fault::FaultInjector::SendOutcome::kDrop:
        co_return;
      case fault::FaultInjector::SendOutcome::kDuplicate:
        Transfer(std::make_unique<Message>(*msg), packets);
        break;
      case fault::FaultInjector::SendOutcome::kDeliver:
        break;
    }
  }
  Transfer(std::move(msg), packets);
}

void Network::Transfer(MessagePtr msg, int packets) {
  if (transport_ == nullptr) {
    simulator_->Spawn(TransferAndDeliver(std::move(msg), packets));
    return;
  }
  // Each copy draws its own spike, as each crosses the medium on its own.
  // Unspiked copies reach the transport in send order, so a duplicate
  // lands right behind its original and FIFO holds around both.
  const sim::Ticks spike = injector_->DrawExtraDelay(msg->src, msg->dst);
  if (spike == 0) {
    transport_->Deliver(*msg);
    return;
  }
  simulator_->ScheduleAfter(spike, [this, held = std::move(msg)] {
    if (Arrives(*held)) {
      transport_->Deliver(*held);
    }
  });
}

sim::Process Network::TransferAndDeliver(MessagePtr msg, int packets) {
  if (mean_packet_delay_ > 0) {
    for (int i = 0; i < packets; ++i) {
      co_await medium_.Use(rng_.ExponentialTicks(mean_packet_delay_));
    }
  }
  if (injector_ != nullptr) {
    const sim::Ticks spike = injector_->DrawExtraDelay(msg->src, msg->dst);
    if (spike > 0) {
      co_await simulator_->Delay(spike);
    }
  }
  if (!Arrives(*msg)) {
    co_return;
  }
  const Endpoint* found = FindEndpoint(msg->dst);
  CCSIM_CHECK_MSG(found != nullptr, "unregistered receiver %d", msg->dst);
  const Endpoint dst = *found;
  if (dst.msg_cost > 0) {
    co_await dst.cpu->Use(dst.msg_cost * packets);
  }
  // The receiver CPU charge takes time too: a crash or partition that
  // lands during this final hop kills the message before it reaches the
  // inbox (the receive never completed). Without Receive's re-check a
  // message could be delivered into a crashed node's (already cleared)
  // inbox and be processed mid-recovery.
  Receive(std::move(msg));
}

void Network::Receive(MessagePtr msg) {
  const Endpoint* dst = FindEndpoint(msg->dst);
  if (dst != nullptr && Arrives(*msg)) {
    dst->inbox->Push(std::move(msg));
  }
}

bool Network::Arrives(const Message& msg) {
  if (injector_ == nullptr) {
    return true;
  }
  if (injector_->IsDown(msg.dst)) {
    injector_->RecordDownDrop();
    return false;
  }
  if (injector_->LinkCut(msg.src, msg.dst)) {
    injector_->RecordPartitionDrop();
    return false;
  }
  return true;
}

}  // namespace ccsim::net
