#ifndef CCSIM_RUNNER_EXPERIMENT_H_
#define CCSIM_RUNNER_EXPERIMENT_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "config/params.h"
#include "runner/counters.h"
#include "runner/metrics.h"
#include "util/status.h"

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
/// source the node has is summed (or maxed) into its field. One call on a
/// zeroed result harvests the DES; the real substrate calls it once per
/// node. Calc rows are left to the caller.
void AddNodeCounters(const NodeSources& node, RunResult* into);

/// Fills the Calc rows that are pure functions of other fields
/// (throughput_tps from commits and measured_seconds, recovery_seconds
/// from recovery_ticks).
void FinishCounters(RunResult* result);

/// hits / (hits + misses); 0 when both are zero.
double HitRatio(std::uint64_t hits, std::uint64_t misses);

/// Builds the full simulated system for `config`, runs warmup plus the
/// measurement window (until `target_commits` or `max_measure_seconds`,
/// whichever first), and harvests the results.
Result<RunResult> RunExperiment(const config::ExperimentConfig& config);

}  // namespace ccsim::runner

#endif  // CCSIM_RUNNER_EXPERIMENT_H_
