#include "runner/experiment.h"

#include <chrono>
#include <iterator>

#include "client/client.h"
#include "net/network.h"
#include "server/server.h"
#include "sim/simulator.h"
#include "storage/disk.h"
#include "substrate/node.h"

namespace ccsim::runner {
namespace {

/// hits / (hits + misses); 0 when both are zero.
double HitRatio(std::uint64_t hits, std::uint64_t misses) {
  return hits + misses == 0 ? 0.0
                            : static_cast<double>(hits) /
                                  static_cast<double>(hits + misses);
}

}  // namespace

void AddNodeCounters(const NodeSources& node, RunResult* into) {
#define CCSIM_FIELD(name, type, csv, format, scope, merge, source, read) \
  CCSIM_IF_SOURCED(source, if (node.source != nullptr) {               \
    CCSIM_MERGE(merge, into->name, static_cast<type>(node.source->read)) \
  })
#include "runner/counters.def"
}

void Harvest::Add(substrate::Assembly& node) {
  // Every record reached the oracle when it was fed; Finalize reconciles
  // the unknown outcomes before a counter is read.
  counters_.oracle_enabled |= node.FinalizeChecker();
  AddNodeCounters(node.counter_sources(), &counters_);

  const Metrics& metrics = node.metrics;
  response_s_.Merge(metrics.response_s());
  response_batches_.Merge(metrics.response_batches());
  response_histogram_.Merge(metrics.response_histogram());
  attempts_per_commit_.Merge(metrics.attempts_per_commit());
  const std::vector<sim::Tally>& types = metrics.per_type_response_s();
  if (types.size() > per_type_response_s_.size()) {
    per_type_response_s_.resize(types.size());
  }
  for (std::size_t i = 0; i < types.size(); ++i) {
    per_type_response_s_[i].Merge(types[i]);
  }

  const sim::Ticks now = node.simulator().Now();
  network_.sum += node.network.medium().Utilization(now);
  ++network_.count;
  if (server::Server* server = node.server.get()) {
    server_cpu_.sum += server->cpu().Utilization(now);
    ++server_cpu_.count;
    for (storage::Disk* disk : server->data_disks()) {
      data_disks_.sum += disk->resource().Utilization(now);
      ++data_disks_.count;
    }
    for (storage::Disk* disk : server->log_disks()) {
      log_disks_.sum += disk->resource().Utilization(now);
      ++log_disks_.count;
    }
    buffer_hits_ += server->pool().hits();
    buffer_misses_ += server->pool().misses();
  }

  // Liveness watchdog: under recovery mode every RPC wait is bounded by
  // the retransmission schedule (timeouts double to the cap; exhaustion
  // yields a synthetic abort). A client still waiting far past that bound
  // has a stuck coroutine — a liveness bug, not a slow run. The 2x margin
  // absorbs timer jitter and queueing ahead of the timers.
  const config::FaultParams& fault = node.config.fault;
  const sim::Ticks watchdog =
      2 * static_cast<sim::Ticks>(fault.max_rpc_retries + 1) *
          sim::MillisToTicks(fault.rpc_timeout_cap_ms) +
      sim::SecondsToTicks(60.0);
  for (const auto& c : node.clients) {
    client_cpu_.sum += c->cpu().Utilization(now);
    ++client_cpu_.count;
    cache_hits_ += c->cache().hits();
    cache_misses_ += c->cache().misses();
    if (fault.recovery_enabled && c->pending_rpcs() > 0 && !c->crashed() &&
        now - c->last_rpc_at() > watchdog) {
      ++counters_.stuck_clients;
    }
  }
}

RunResult Harvest::Finish(double measured_seconds) const {
  RunResult result = counters_;
  result.measured_seconds = measured_seconds;
  result.throughput_tps =
      measured_seconds > 0
          ? static_cast<double>(result.commits) / measured_seconds
          : 0.0;
  result.recovery_seconds =
      sim::TicksToSeconds(static_cast<sim::Ticks>(result.recovery_ticks));
  result.mean_response_s = response_s_.mean();
  result.response_ci_s = response_batches_.HalfWidth90();
  result.response_p50_s = response_histogram_.Quantile(0.50);
  result.response_p90_s = response_histogram_.Quantile(0.90);
  result.response_p99_s = response_histogram_.Quantile(0.99);
  result.mean_attempts_per_commit = attempts_per_commit_.mean();
  result.server_cpu_util = server_cpu_.Value();
  result.network_util = network_.Value();
  result.data_disk_util = data_disks_.Value();
  result.log_disk_util = log_disks_.Value();
  result.client_cpu_util = client_cpu_.Value();
  result.client_hit_ratio = HitRatio(cache_hits_, cache_misses_);
  result.server_buffer_hit_ratio = HitRatio(buffer_hits_, buffer_misses_);
  for (const sim::Tally& tally : per_type_response_s_) {
    result.per_type_response.emplace_back(tally.mean(), tally.count());
  }
  return result;
}

unsigned Judge(const RunResult& result, int clients) {
  const std::uint64_t started = result.attempts_started;
  const std::uint64_t finished = result.commits + result.aborts;
  const std::uint64_t slack = static_cast<std::uint64_t>(clients);
  unsigned verdict = 0;
  verdict |= result.stalled ? kStalled : 0u;
  verdict |= result.transactions_lost > 0 ? kLost : 0u;
  verdict |= result.stuck_clients > 0 ? kStuck : 0u;
  verdict |= result.commits == 0 ? kNoCommits : 0u;
  verdict |= started > finished + slack || finished > started + slack
                 ? kUnconserved
                 : 0u;
  return verdict;
}

std::string DescribeVerdict(unsigned verdict) {
  static const char* const kNames[] = {"STALLED", "LOST", "STUCK",
                                       "ZERO COMMITS", "UNCONSERVED"};
  std::string text;
  for (unsigned bit = 0; bit < std::size(kNames); ++bit) {
    if ((verdict & (1u << bit)) != 0) {
      text += text.empty() ? "" : ", ";
      text += kNames[bit];
    }
  }
  return text;
}

Result<RunResult> RunExperiment(const config::ExperimentConfig& config) {
  CCSIM_RETURN_NOT_OK(config.Validate());

  sim::Simulator sim;
  const std::uint64_t seed = config.control.seed;
  substrate::Assembly nodes(&sim, config, seed, /*with_server=*/true, 0,
                            config.system.num_clients, "");

  // Fault-free runs keep a null hook (and the exact calendar of a build
  // without the fault subsystem). The DES has no TCP connection to sever.
  nodes.InjectFaults(seed, {});

  nodes.Start();

  // Warmup, then the measurement window: until the commit target or the
  // simulated-time cap.
  const auto wall_begin = std::chrono::steady_clock::now();
  sim.Run(sim::SecondsToTicks(config.control.warmup_seconds));
  const sim::Ticks window_start = sim.Now();
  nodes.StartWindow();
  nodes.metrics.set_stop_after_commits(config.control.target_commits);
  const sim::Ticks horizon =
      window_start + sim::SecondsToTicks(config.control.max_measure_seconds);
  sim.Run(horizon);
  const sim::Ticks now = sim.Now();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_begin)
          .count();

  Harvest harvest;
  harvest.Add(nodes);
  RunResult result = harvest.Finish(sim::TicksToSeconds(now - window_start));
  result.stalled = !sim.stop_requested() && now < horizon;
  result.wall_seconds = wall_seconds;
  result.events_processed = sim.events_processed();
  result.events_per_second =
      wall_seconds > 0
          ? static_cast<double>(sim.events_processed()) / wall_seconds
          : 0.0;
  sim.Shutdown();
  return result;
}

}  // namespace ccsim::runner
