#ifndef CCSIM_RUNNER_EXPERIMENT_H_
#define CCSIM_RUNNER_EXPERIMENT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "config/params.h"
#include "runner/counters.h"
#include "runner/metrics.h"
#include "sim/stats.h"
#include "util/status.h"

namespace ccsim::substrate {
class Assembly;
}  // namespace ccsim::substrate

namespace ccsim::runner {

/// Measurement-window results of one simulation run, in the units the paper
/// reports (seconds; committed transactions per second). Every scalar field
/// except the two wall-clock ones is a row of the counter table
/// (runner/counters.def), which documents it.
struct RunResult {
#define CCSIM_FIELD(name, type, csv, format, scope, merge, source, read) \
  type name{};
#include "runner/counters.def"

  /// Wall-clock time the run actually took (warmup + measurement). On the
  /// DES substrate this is how fast the simulator chewed through the
  /// calendar; on the real substrate it tracks measured_seconds by
  /// construction. Never part of the deterministic output surface.
  double wall_seconds = 0.0;
  /// Wall-clock event rate (events_processed / wall_seconds; 0 when
  /// wall_seconds is unmeasured).
  double events_per_second = 0.0;

  /// Per-type (mean response seconds, commits) for mixed workloads, in
  /// ExperimentConfig::mix order. Single-type runs have one entry.
  std::vector<std::pair<double, std::uint64_t>> per_type_response;
};

/// Calls `fn(const FieldInfo&, value)` for every counter-table field of
/// `result`, in table order (CSV columns first).
template <typename Fn>
void ForEachField(const RunResult& result, Fn&& fn) {
#define CCSIM_FIELD(name, type, csv, format, scope, merge, source, read) \
  fn(FieldInfo{#name, csv, format, #source}, result.name);
#include "runner/counters.def"
}

/// Folds one node's counters into `into`: every table row read from a
/// source the node has is summed (or maxed) into its field. Calc rows are
/// left alone.
void AddNodeCounters(const NodeSources& node, RunResult* into);

/// The harvest of a run, node by node: the DES is one node; a real run is
/// its server node plus each client shard, and ccload and ccserve harvest
/// the nodes they run. Every event is recorded on exactly one node, so
/// summing the nodes double-counts nothing. A node merged into an empty
/// harvest keeps its own statistics bit for bit.
class Harvest {
 public:
  /// Folds in `node` once its calendar has stopped: finalizes its oracle
  /// (oracle_enabled when it has one), adds its table counters, merges its
  /// response, attempt and per-type tallies, batch means and histogram,
  /// sums its cache and buffer-pool hits and its resources' utilizations
  /// over its window, and counts the clients its liveness watchdog finds
  /// stuck.
  void Add(substrate::Assembly& node);

  /// The merged result over a `measured_seconds` window, Calc rows
  /// computed: throughput, recovery time, response and attempt means, the
  /// confidence half-width and percentiles, hit ratios, and utilizations
  /// averaged over the servers, networks, disks and clients harvested.
  /// `stalled` and the event and wall-clock fields are the caller's.
  RunResult Finish(double measured_seconds) const;

 private:
  /// Sum and count of one kind of utilization.
  struct Mean {
    double sum = 0.0;
    std::size_t count = 0;
    double Value() const {
      return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
  };

  RunResult counters_;
  sim::Tally response_s_;
  sim::BatchMeans response_batches_;
  LatencyHistogram response_histogram_;
  std::vector<sim::Tally> per_type_response_s_;
  sim::Tally attempts_per_commit_;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  std::uint64_t buffer_hits_ = 0;
  std::uint64_t buffer_misses_ = 0;
  Mean server_cpu_;
  Mean network_;
  Mean data_disks_;
  Mean log_disks_;
  Mean client_cpu_;
};

/// What can be wrong with a finished run, one bit each (Judge).
enum RunFailure : unsigned {
  /// The calendar drained before the horizon and the commit target.
  kStalled = 1u << 0,
  /// A transaction spec was abandoned without committing.
  kLost = 1u << 1,
  /// The liveness watchdog found a client stuck on an RPC.
  kStuck = 1u << 2,
  /// Nothing committed in the window.
  kNoCommits = 1u << 3,
  /// |attempts_started - (commits + aborts)| exceeds the clients driven.
  /// Each client drives one attempt at a time, and a faulted attempt ends
  /// in a commit, an abort or a retry still in flight (a silent
  /// disappearance is kLost), so the window's imbalance is at most the
  /// attempts in flight at one of its edges.
  kUnconserved = 1u << 4,
};

/// The verdict on `result`, a run that drove `clients` clients: the
/// RunFailure bits that hold, 0 for a sound run.
unsigned Judge(const RunResult& result, int clients);

/// The names of the failures in `verdict`, comma-separated (for example
/// "STALLED, LOST"); empty for 0.
std::string DescribeVerdict(unsigned verdict);

/// Builds the full simulated system for `config`, runs warmup plus the
/// measurement window (until `target_commits` or `max_measure_seconds`,
/// whichever first), and harvests the results.
Result<RunResult> RunExperiment(const config::ExperimentConfig& config);

}  // namespace ccsim::runner

#endif  // CCSIM_RUNNER_EXPERIMENT_H_
