#include "runner/experiment.h"

#include <chrono>

#include "client/client.h"
#include "net/network.h"
#include "server/server.h"
#include "sim/simulator.h"
#include "storage/disk.h"
#include "substrate/node.h"

namespace ccsim::runner {
namespace {

double MeanUtilization(const std::vector<storage::Disk*>& disks,
                       sim::Ticks now) {
  if (disks.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (storage::Disk* disk : disks) {
    sum += disk->resource().Utilization(now);
  }
  return sum / static_cast<double>(disks.size());
}

}  // namespace

void AddNodeCounters(const NodeSources& node, RunResult* into) {
#define CCSIM_FIELD(name, type, csv, format, scope, merge, source, read) \
  CCSIM_IF_SOURCED(source, if (node.source != nullptr) {               \
    CCSIM_MERGE(merge, into->name, static_cast<type>(node.source->read)) \
  })
#include "runner/counters.def"
}

void FinishCounters(RunResult* result) {
  result->throughput_tps =
      result->measured_seconds > 0
          ? static_cast<double>(result->commits) / result->measured_seconds
          : 0.0;
  result->recovery_seconds =
      sim::TicksToSeconds(static_cast<sim::Ticks>(result->recovery_ticks));
}

double HitRatio(std::uint64_t hits, std::uint64_t misses) {
  return hits + misses == 0 ? 0.0
                            : static_cast<double>(hits) /
                                  static_cast<double>(hits + misses);
}

Result<RunResult> RunExperiment(const config::ExperimentConfig& config) {
  CCSIM_RETURN_NOT_OK(config.Validate());

  sim::Simulator sim;
  const std::uint64_t seed = config.control.seed;
  substrate::Assembly nodes(&sim, config, seed, /*with_server=*/true, 0,
                            config.system.num_clients, "");
  server::Server& server = *nodes.server;
  Metrics& metrics = nodes.metrics;

  // Fault-free runs keep a null hook (and the exact calendar of a build
  // without the fault subsystem). The DES has no TCP connection to sever.
  nodes.InjectFaults(seed, {});

  nodes.Start();

  // Warmup: run, then restart every statistics window.
  const auto wall_begin = std::chrono::steady_clock::now();
  sim.Run(sim::SecondsToTicks(config.control.warmup_seconds));
  const sim::Ticks window_start = sim.Now();
  metrics.ResetWindow();
  server.cpu().ResetStats(window_start);
  nodes.network.ResetStats(window_start);
  for (storage::Disk* disk : server.data_disks()) {
    disk->resource().ResetStats(window_start);
  }
  for (storage::Disk* disk : server.log_disks()) {
    disk->resource().ResetStats(window_start);
  }
  server.pool().ResetStats();
  server.log().ResetStats();
  for (auto& c : nodes.clients) {
    c->cpu().ResetStats(window_start);
    c->cache().ResetStats();
  }

  // Measurement: until the commit target or the simulated-time cap.
  metrics.set_stop_after_commits(config.control.target_commits);
  const sim::Ticks horizon =
      window_start + sim::SecondsToTicks(config.control.max_measure_seconds);
  sim.Run(horizon);
  const sim::Ticks now = sim.Now();
  const bool stalled = !sim.stop_requested() && now < horizon;
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_begin)
          .count();

  RunResult result;
  // Every record reached the oracle when it was fed; Finalize reconciles
  // the unknown outcomes before a counter is read.
  result.oracle_enabled = nodes.FinalizeChecker();
  AddNodeCounters(nodes.counter_sources(), &result);
  result.stalled = stalled;
  result.measured_seconds = sim::TicksToSeconds(now - window_start);
  result.wall_seconds = wall_seconds;
  result.events_processed = sim.events_processed();
  result.events_per_second =
      wall_seconds > 0
          ? static_cast<double>(sim.events_processed()) / wall_seconds
          : 0.0;
  result.mean_response_s = metrics.response_s().mean();
  result.response_ci_s = metrics.response_batches().HalfWidth90();
  result.response_p50_s = metrics.response_histogram().Quantile(0.50);
  result.response_p90_s = metrics.response_histogram().Quantile(0.90);
  result.response_p99_s = metrics.response_histogram().Quantile(0.99);
  result.mean_attempts_per_commit = metrics.attempts_per_commit().mean();
  result.server_cpu_util = server.cpu().Utilization(now);
  double client_util_sum = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  for (auto& c : nodes.clients) {
    client_util_sum += c->cpu().Utilization(now);
    cache_hits += c->cache().hits();
    cache_misses += c->cache().misses();
  }
  result.client_cpu_util =
      client_util_sum / static_cast<double>(nodes.clients.size());
  result.network_util = nodes.network.medium().Utilization(now);
  result.data_disk_util = MeanUtilization(server.data_disks(), now);
  result.log_disk_util = MeanUtilization(server.log_disks(), now);
  result.client_hit_ratio = HitRatio(cache_hits, cache_misses);
  result.server_buffer_hit_ratio = server.pool().HitRatio();
  for (const sim::Tally& tally : metrics.per_type_response_s()) {
    result.per_type_response.emplace_back(tally.mean(), tally.count());
  }
  FinishCounters(&result);
  if (config.fault.recovery_enabled) {
    // Liveness watchdog: under recovery mode every RPC wait is bounded by
    // the retransmission schedule (timeouts double to the cap; exhaustion
    // yields a synthetic abort). A client still waiting far past that
    // bound has a stuck coroutine — a liveness bug, not a slow run. The
    // 2x margin absorbs timer jitter and queueing ahead of the timers.
    const sim::Ticks schedule =
        static_cast<sim::Ticks>(config.fault.max_rpc_retries + 1) *
        sim::MillisToTicks(config.fault.rpc_timeout_cap_ms);
    const sim::Ticks watchdog = 2 * schedule + sim::SecondsToTicks(60.0);
    for (auto& c : nodes.clients) {
      if (c->pending_rpcs() > 0 && !c->crashed() &&
          now - c->last_rpc_at() > watchdog) {
        ++result.stuck_clients;
      }
    }
  }

  sim.Shutdown();
  return result;
}

}  // namespace ccsim::runner
