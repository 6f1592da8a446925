#ifndef CCSIM_FAULT_FAULT_INJECTOR_H_
#define CCSIM_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <set>

#include "config/params.h"
#include "fault/fault_plan.h"
#include "sim/random.h"
#include "sim/time.h"

namespace ccsim::fault {

/// Draws per-message fault outcomes from a FaultPlan and tracks which nodes
/// are currently down (crash windows). The network consults the injector at
/// send and delivery time; the experiment runner drives SetDown() from the
/// plan's crash schedule.
///
/// Determinism: the injector owns a dedicated PCG stream, so attaching an
/// all-zero plan consumes no variates from any model component and a given
/// (seed, plan) always produces the same fault sequence.
class FaultInjector {
 public:
  enum class SendOutcome { kDeliver, kDrop, kDuplicate };

  FaultInjector(FaultPlan plan, sim::Pcg32 rng);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  const FaultPlan& plan() const { return plan_; }

  /// Fault draw for one message on src -> dst. Counts drops/duplicates.
  SendOutcome DrawSendOutcome(int src, int dst);

  /// Extra in-transit delay for one message (0 = none). Consumes a variate
  /// only when the link has a non-zero spike probability.
  sim::Ticks DrawExtraDelay(int src, int dst);

  /// Crash-window bookkeeping. A down node sends and receives nothing.
  void SetDown(int node, bool down);
  bool IsDown(int node) const { return down_.count(node) > 0; }
  bool AnyDown() const { return !down_.empty(); }

  /// Partition-window bookkeeping: cuts (or heals) the client/server link
  /// of `node` in the given direction(s). The experiment runner drives this
  /// from the plan's partition schedule.
  void SetPartitioned(int node, PartitionWindow::Direction direction,
                      bool cut);
  /// True when a message src -> dst would cross a cut link half.
  bool LinkCut(int src, int dst) const;
  bool AnyPartitioned() const {
    return !cut_to_server_.empty() || !cut_from_server_.empty();
  }

  /// Counts a message discarded because an endpoint was down.
  void RecordDownDrop() { ++down_drops_; }
  /// Counts a message discarded at a severed link.
  void RecordPartitionDrop() { ++partition_drops_; }

  /// Storage-fault draws, one per commit log force. Consume a variate only
  /// when the corresponding probability is non-zero.
  bool DrawTornWrite();
  bool DrawBitFlip();

  std::uint64_t messages_dropped() const { return messages_dropped_; }
  std::uint64_t messages_duplicated() const { return messages_duplicated_; }
  std::uint64_t delay_spikes() const { return delay_spikes_; }
  std::uint64_t down_drops() const { return down_drops_; }
  std::uint64_t partition_drops() const { return partition_drops_; }

  void ResetStats() {
    messages_dropped_ = 0;
    messages_duplicated_ = 0;
    delay_spikes_ = 0;
    down_drops_ = 0;
    partition_drops_ = 0;
  }

 private:
  const LinkFaults& LinkFor(int src, int dst) const;

  FaultPlan plan_;
  sim::Pcg32 rng_;
  std::set<int> down_;
  /// Clients whose client->server / server->client link half is cut.
  std::set<int> cut_to_server_;
  std::set<int> cut_from_server_;
  std::uint64_t messages_dropped_ = 0;
  std::uint64_t messages_duplicated_ = 0;
  std::uint64_t delay_spikes_ = 0;
  std::uint64_t down_drops_ = 0;
  std::uint64_t partition_drops_ = 0;
};

/// Translates the experiment-level fault knobs into an injection plan.
FaultPlan MakePlan(const config::FaultParams& params);

}  // namespace ccsim::fault

#endif  // CCSIM_FAULT_FAULT_INJECTOR_H_
