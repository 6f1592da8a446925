#ifndef CCSIM_FAULT_FAULT_PLAN_H_
#define CCSIM_FAULT_FAULT_PLAN_H_

#include <map>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace ccsim::fault {

/// Message-level fault rates for one directed link (src -> dst).
struct LinkFaults {
  /// Probability that a message vanishes in transit.
  double drop = 0.0;
  /// Probability that a message is delivered twice (the network layer's
  /// classic at-least-once failure; exercises duplicate suppression).
  double duplicate = 0.0;
  /// Probability that a message suffers an extra delay spike.
  double delay_spike = 0.0;
  /// Size of the delay spike.
  sim::Ticks spike_delay = 0;

  bool Any() const {
    return drop > 0.0 || duplicate > 0.0 ||
           (delay_spike > 0.0 && spike_delay > 0);
  }
};

/// A scheduled crash: `node` (net::kServerNode or a client id) is down —
/// sends and receives nothing — from `at` until `at + downtime`. A crashed
/// server additionally replays its log before accepting traffic again, so
/// its effective outage is longer than `downtime`.
struct CrashWindow {
  int node = 0;
  sim::Ticks at = 0;
  sim::Ticks downtime = 0;
};

/// A scheduled network partition: the link between client `node` and the
/// server is severed from `at` until `at + duration` (the heal time). Both
/// endpoints stay up — unlike a crash, the client keeps computing against
/// its cache and its in-flight commits resolve through the unknown-outcome
/// machinery. Asymmetric variants cut only one direction, modeling a dead
/// callback channel while requests still flow (or vice versa).
struct PartitionWindow {
  enum class Direction {
    kBoth,        // nothing crosses in either direction
    kToServer,    // client -> server cut; server -> client still delivers
    kFromServer,  // server -> client cut; client -> server still delivers
  };
  int node = 0;
  sim::Ticks at = 0;
  sim::Ticks duration = 0;
  Direction direction = Direction::kBoth;
  /// Real-substrate-only: also kill the TCP connection carrying `node` at
  /// window start (the DES substrate has no connections to kill).
  bool hard = false;
};

/// Storage-level fault rates, drawn per log force by the LogManager. Both
/// faults are caught by the write-verify pass (checksummed, sequence-
/// numbered records): the force re-appends the record and the commit is
/// acknowledged only once a valid record is durable, so injected storage
/// faults cost I/O but never lose committed work.
struct StorageFaults {
  /// Probability that a log force first writes a torn (partial) record.
  double torn_write = 0.0;
  /// Probability that a log record is corrupted on the medium and fails
  /// its checksum on the write-verify read-back.
  double bit_flip = 0.0;

  bool Any() const { return torn_write > 0.0 || bit_flip > 0.0; }
};

/// A deterministic fault schedule for one run. Default-constructed, every
/// fault is off: an injector built from `FaultPlan{}` never perturbs the
/// simulation (asserted by regression tests).
struct FaultPlan {
  /// Fault rates applied to every link without a per-link override.
  LinkFaults link;
  /// Per-link overrides keyed by (src, dst) node ids.
  std::map<std::pair<int, int>, LinkFaults> per_link;
  std::vector<CrashWindow> crashes;
  std::vector<PartitionWindow> partitions;
  StorageFaults storage;

  bool Any() const {
    if (link.Any() || !crashes.empty() || !partitions.empty() ||
        storage.Any()) {
      return true;
    }
    for (const auto& [key, faults] : per_link) {
      if (faults.Any()) {
        return true;
      }
    }
    return false;
  }
};

}  // namespace ccsim::fault

#endif  // CCSIM_FAULT_FAULT_PLAN_H_
