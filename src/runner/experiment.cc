#include "runner/experiment.h"

#include <chrono>
#include <memory>
#include <string>

#include "check/checker.h"
#include "client/client.h"
#include "lock/lock_manager.h"
#include "db/database.h"
#include "fault/fault_injector.h"
#include "net/network.h"
#include "proto/factory.h"
#include "server/server.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "storage/disk.h"
#include "substrate/node.h"
#include "util/macros.h"

namespace ccsim::runner {
namespace {

/// RNG stream of the fault injector's draws.
constexpr std::uint64_t kFaultStream = 0xFA17;

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
  db::DatabaseLayout layout(config.database, config.system.num_data_disks);
  Metrics metrics(&sim);
  net::Network network(&sim, sim::MillisToTicks(config.system.net_delay_ms),
                       sim::Pcg32(seed, proto::kNetworkStream));
  server::Server server(&sim, config, &layout, &network, &metrics, seed);
  server.set_protocol(proto::MakeServerProtocol(config.algorithm, &server));

  std::vector<std::unique_ptr<client::Client>> clients;
  clients.reserve(static_cast<std::size_t>(config.system.num_clients));
  for (int i = 0; i < config.system.num_clients; ++i) {
    clients.push_back(proto::MakeClient(&sim, i, config, &layout, &network,
                                        &metrics, seed));
  }

  // Consistency checker: one per run (never shared, so parallel sweeps
  // stay race-free), reached by every component through
  // metrics.checker(). It never touches the calendar or an RNG stream, so
  // enabling it cannot perturb results, and leaving it off keeps every
  // hook a null branch. In the (default) pipelined mode the commit path
  // only enqueues compact records; a dedicated verification thread runs
  // the serialization-graph maintenance and is joined (after a drain
  // barrier) before any counter below is read.
  std::unique_ptr<check::Checker> checker;
  if (config.checker.enabled) {
    checker = substrate::MakeChecker(config, &server, "");
    server::Server* srv = &server;
    auto* client_list = &clients;
    const bool fault_free = !config.fault.recovery_enabled;
    checker->set_audit_hook([srv, client_list, fault_free] {
      srv->directory().AuditStructure();
      if (fault_free) {
        // Uncommitted buffer frames must belong to live transactions.
        // Crash/GC windows legitimately break liveness, so resilient runs
        // audit structure only.
        srv->pool().AuditConsistency([srv](std::uint64_t owner) {
          const server::XactState* state = srv->FindXact(owner);
          return state != nullptr && !state->done;
        });
        // Every retained copy a client trusts must be backed by a
        // server-side retained lock (callback locking's core promise; the
        // lease machinery relaxes it under faults). Pages locked by the
        // client's current transaction are in a legitimate transfer
        // window and are skipped.
        for (const auto& c : *client_list) {
          const int id = c->id();
          c->cache().ForEach([&](db::PageId page,
                                 const client::CachedPage& entry) {
            if (!entry.retained || entry.lock != client::PageLock::kNone) {
              return;
            }
            CCSIM_CHECK_MSG(
                srv->locks().Holds(lock::RetainedOwner(id), page,
                                   lock::LockMode::kShared),
                "client %d trusts a retained copy of page %d with no "
                "server-side retained lock",
                id, page);
          });
        }
      } else {
        srv->pool().AuditConsistency(nullptr);
      }
    });
    metrics.set_checker(checker.get());
  }

  // Fault injection: attach an injector only when the config asks for
  // faults, so fault-free runs keep a null hook (and the exact calendar of
  // a build without the fault subsystem).
  std::unique_ptr<fault::FaultInjector> injector;
  if (config.fault.AnyFaults()) {
    const fault::FaultPlan plan = fault::MakePlan(config.fault);
    injector = std::make_unique<fault::FaultInjector>(
        plan, sim::Pcg32(seed, kFaultStream));
    fault::FaultInjector* inj = injector.get();
    network.set_fault_injector(inj);
    for (const fault::CrashWindow& crash : plan.crashes) {
      const sim::Ticks up_at = crash.at + crash.downtime;
      if (crash.node == net::kServerNode) {
        server::Server* srv = &server;
        sim::Simulator* simp = &sim;
        sim.ScheduleAt(crash.at, [srv, inj] {
          inj->SetDown(net::kServerNode, true);
          srv->Crash();
        });
        sim.ScheduleAt(up_at, [srv, inj, simp] {
          simp->Spawn(substrate::RecoverServer(srv, inj));
        });
      } else {
        CCSIM_CHECK(crash.node >= 0 &&
                    crash.node < config.system.num_clients);
        client::Client* victim = clients[static_cast<std::size_t>(
            crash.node)].get();
        const int node = crash.node;
        sim.ScheduleAt(crash.at, [victim, inj, node] {
          inj->SetDown(node, true);
          victim->Crash();
        });
        sim.ScheduleAt(up_at, [victim, inj, node] {
          inj->SetDown(node, false);
          victim->Recover();
        });
      }
    }
    // Hard partitions cut a TCP connection; the DES has none to cut.
    substrate::PlantPartitions(plan, 0, config.system.num_clients, &sim, inj,
                               [](int) {});
    server.log().set_fault_injector(inj);
  }

  server.Start();
  for (auto& c : clients) {
    c->Start();
  }

  // Warmup: run, then restart every statistics window.
  const auto wall_begin = std::chrono::steady_clock::now();
  sim.Run(sim::SecondsToTicks(config.control.warmup_seconds));
  const sim::Ticks window_start = sim.Now();
  metrics.ResetWindow();
  server.cpu().ResetStats(window_start);
  network.ResetStats(window_start);
  for (storage::Disk* disk : server.data_disks()) {
    disk->resource().ResetStats(window_start);
  }
  for (storage::Disk* disk : server.log_disks()) {
    disk->resource().ResetStats(window_start);
  }
  server.pool().ResetStats();
  server.log().ResetStats();
  for (auto& c : clients) {
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

  if (checker != nullptr) {
    // Drain barrier + verifier join: every queued record is applied (and
    // any violation surfaced) before Finalize reconciles or a counter is
    // read, which is what makes the pipelined counters byte-identical to
    // the synchronous mode's.
    checker->Finish();
    checker->oracle().Finalize(metrics.unknown_outcomes());
  }

  RunResult result;
  AddNodeCounters({&metrics, &server, &network, injector.get(),
                   checker.get()},
                  &result);
  result.stalled = stalled;
  result.oracle_enabled = checker != nullptr;
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
  for (auto& c : clients) {
    client_util_sum += c->cpu().Utilization(now);
    cache_hits += c->cache().hits();
    cache_misses += c->cache().misses();
  }
  result.client_cpu_util =
      client_util_sum / static_cast<double>(clients.size());
  result.network_util = network.medium().Utilization(now);
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
    for (auto& c : clients) {
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
