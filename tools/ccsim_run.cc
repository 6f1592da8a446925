// ccsim_run — command-line driver for one-off simulation experiments.
//
//   $ ccsim_run --algorithm=callback --clients=30 --locality=0.6
//               --prob-write=0.1 --server-mips=2 --seed=3
//   $ ccsim_run --algorithm=2pl-intra --net-delay-ms=0 --csv
//   $ ccsim_run --list
//
// Every knob of the paper's Tables 1–3 is exposed, as rows of the one flag
// table in src/config/flags.cc (--help); unset flags keep the Table 5 base
// values. `--csv` prints one machine-readable line (with a header) for
// scripting sweeps.

#include <cstdio>
#include <string>
#include <vector>

#include "config/flags.h"
#include "config/params.h"
#include "runner/experiment.h"
#include "runner/real_experiment.h"
#include "runner/report.h"
#include "runner/sweep.h"
#include "sim/random.h"

namespace {

using ccsim::config::ExperimentConfig;
using ccsim::runner::RunResult;

void PrintCsvHeader() {
  std::printf("algorithm,clients,locality,prob_write,%s\n",
              ccsim::runner::CsvHeader().c_str());
}

void PrintCsvRow(const std::string& algorithm_name,
                 const ExperimentConfig& cfg, const RunResult& r) {
  std::printf("%s,%d,%.3f,%.3f,%s\n", algorithm_name.c_str(),
              cfg.system.num_clients, cfg.transaction.inter_xact_loc,
              cfg.transaction.prob_write,
              ccsim::runner::CsvValues(r).c_str());
}

// --- chaos soak -----------------------------------------------------------

/// The five consistency protocols, inter-transaction caching variants.
const char* const kSoakAlgorithms[] = {"2pl", "cert", "callback", "no-wait",
                                       "no-wait-notify"};
constexpr int kSoakAlgorithmCount = 5;

/// One-line description of a chaos cocktail's fault plan, for the soak logs.
std::string DescribeChaos(const ccsim::config::FaultParams& f) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), "drop=%.3f dup=%.3f spike=%.3f:%.0fms",
                f.drop_probability, f.duplicate_probability,
                f.delay_spike_probability, f.delay_spike_ms);
  std::string plan = buf;
  for (const ccsim::config::FaultParams::CrashEvent& crash : f.crashes) {
    std::snprintf(buf, sizeof(buf), " crash=%d:%.1f:%.1f", crash.node,
                  crash.at_s, crash.downtime_s);
    plan += buf;
  }
  static const char* const kDirNames[] = {"both", "in", "out"};
  for (const ccsim::config::FaultParams::PartitionEvent& part :
       f.partitions) {
    std::snprintf(buf, sizeof(buf), " partition=%d:%.1f:%.1f:%s%s",
                  part.node, part.at_s, part.duration_s,
                  kDirNames[part.direction], part.hard ? ":hard" : "");
    plan += buf;
  }
  const std::pair<const char*, double> optional[] = {
      {" torn=%.3f", f.torn_write_probability},
      {" flip=%.3f", f.bit_flip_probability},
      {" qlimit=%.0f", f.server_queue_limit},
      {" budget=%.0f", f.retry_budget},
      {" jitter=%.2f", f.retry_jitter}};
  for (const auto& [format, value] : optional) {
    if (value > 0) {
      std::snprintf(buf, sizeof(buf), format, value);
      plan += buf;
    }
  }
  return plan;
}

/// Deterministically derives a compound-fault cocktail from `seed`: lossy
/// links, crash windows, a partition, storage faults, and overload knobs,
/// each present with some probability. The same seed always yields the
/// same plan, so a failure reproduces from the seed alone.
ExperimentConfig MakeChaosConfig(std::uint64_t seed) {
  ccsim::sim::Pcg32 rng(seed, /*stream=*/0xC0C7);
  ExperimentConfig cfg = ccsim::config::BaseConfig();
  cfg.system.num_clients = 8;
  cfg.control.seed = seed;
  cfg.control.warmup_seconds = 5;
  cfg.control.target_commits = 150;
  cfg.control.max_measure_seconds = 120;
  cfg.fault.recovery_enabled = true;
  cfg.checker.enabled = true;
  ccsim::config::FaultParams& f = cfg.fault;
  f.drop_probability = rng.UniformReal(0.0, 0.08);
  f.duplicate_probability = rng.UniformReal(0.0, 0.04);
  f.delay_spike_probability = rng.UniformReal(0.0, 0.08);
  f.delay_spike_ms = rng.UniformReal(5.0, 40.0);
  if (rng.Bernoulli(0.5)) {
    ccsim::config::FaultParams::CrashEvent crash;
    crash.node = -1;  // the server
    crash.at_s = rng.UniformReal(10.0, 40.0);
    crash.downtime_s = rng.UniformReal(0.5, 3.0);
    f.crashes.push_back(crash);
  }
  if (rng.Bernoulli(0.6)) {
    ccsim::config::FaultParams::CrashEvent crash;
    crash.node = static_cast<int>(
        rng.UniformInt(0, cfg.system.num_clients - 1));
    crash.at_s = rng.UniformReal(10.0, 40.0);
    crash.downtime_s = rng.UniformReal(0.5, 3.0);
    f.crashes.push_back(crash);
  }
  if (rng.Bernoulli(0.7)) {
    ccsim::config::FaultParams::PartitionEvent part;
    part.node = static_cast<int>(
        rng.UniformInt(0, cfg.system.num_clients - 1));
    part.at_s = rng.UniformReal(10.0, 40.0);
    part.duration_s = rng.UniformReal(1.0, 10.0);
    part.direction = static_cast<int>(rng.UniformInt(0, 2));
    f.partitions.push_back(part);
  }
  if (rng.Bernoulli(0.5)) {
    f.torn_write_probability = rng.UniformReal(0.02, 0.3);
  }
  if (rng.Bernoulli(0.5)) {
    f.bit_flip_probability = rng.UniformReal(0.02, 0.2);
  }
  if (rng.Bernoulli(0.5)) {
    f.server_queue_limit = static_cast<int>(rng.UniformInt(8, 32));
  }
  if (rng.Bernoulli(0.5)) {
    f.retry_budget = static_cast<int>(rng.UniformInt(8, 40));
  }
  if (rng.Bernoulli(0.5)) {
    f.retry_jitter = rng.UniformReal(0.1, 0.5);
  }
  return cfg;
}

/// Runs `n` seeded chaos cocktails (seeds base..base+n-1) across all five
/// protocols with the consistency oracle on. Plans are printed before the
/// runs start so a fatal oracle abort is attributable to its seed; any
/// surviving failure prints the seed and a one-flag reproduction command.
int RunChaosSoak(int n, std::uint64_t base_seed, int jobs) {
  std::vector<std::string> plans(static_cast<std::size_t>(n));
  std::vector<ExperimentConfig> configs;
  configs.reserve(static_cast<std::size_t>(n) * kSoakAlgorithmCount);
  for (int i = 0; i < n; ++i) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
    ExperimentConfig cfg = MakeChaosConfig(seed);
    plans[static_cast<std::size_t>(i)] = DescribeChaos(cfg.fault);
    std::printf("chaos seed %llu: %s\n",
                static_cast<unsigned long long>(seed),
                plans[static_cast<std::size_t>(i)].c_str());
    for (const char* name : kSoakAlgorithms) {
      (void)ccsim::config::SelectAlgorithm(name, &cfg.algorithm);
      configs.push_back(cfg);
    }
  }
  std::fflush(stdout);
  const auto results = ccsim::runner::RunExperiments(
      configs, jobs > 0 ? jobs : ccsim::runner::DefaultJobs());
  int failures = 0;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
    std::uint64_t commits = 0, lost = 0, unknown = 0, part_drops = 0;
    std::uint64_t shed = 0, truncated = 0;
    std::string verdict;
    for (int a = 0; a < kSoakAlgorithmCount; ++a) {
      const std::size_t idx =
          static_cast<std::size_t>(i) * kSoakAlgorithmCount +
          static_cast<std::size_t>(a);
      if (!results[idx].ok()) {
        verdict += std::string(" ") + kSoakAlgorithms[a] + ": " +
                   results[idx].status().ToString();
        continue;
      }
      const RunResult& r = results[idx].ValueOrDie();
      commits += r.commits;
      lost += r.transactions_lost;
      unknown += r.unknown_outcomes;
      part_drops += r.partition_drops;
      shed += r.shed_requests;
      truncated += r.log_records_truncated;
      if (r.stalled) {
        verdict += std::string(" ") + kSoakAlgorithms[a] + ": STALLED";
      }
      if (r.transactions_lost > 0) {
        verdict += std::string(" ") + kSoakAlgorithms[a] + ": LOST";
      }
      if (r.stuck_clients > 0) {
        verdict += std::string(" ") + kSoakAlgorithms[a] + ": STUCK";
      }
    }
    if (verdict.empty()) {
      std::printf("chaos seed %llu: ok (commits %llu, unknown %llu, "
                  "part-drops %llu, shed %llu, log-truncated %llu)\n",
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(commits),
                  static_cast<unsigned long long>(unknown),
                  static_cast<unsigned long long>(part_drops),
                  static_cast<unsigned long long>(shed),
                  static_cast<unsigned long long>(truncated));
    } else {
      ++failures;
      std::printf("chaos seed %llu: FAILED —%s\n",
                  static_cast<unsigned long long>(seed), verdict.c_str());
      std::printf("  plan : %s\n", plans[static_cast<std::size_t>(i)].c_str());
      std::printf("  repro: ccsim_run --chaos-soak=1 --seed=%llu\n",
                  static_cast<unsigned long long>(seed));
    }
  }
  if (failures == 0) {
    std::printf("chaos soak: %d seeds x %d protocols, all clean\n", n,
                kSoakAlgorithmCount);
  } else {
    std::printf("chaos soak: %d of %d seeds FAILED\n", failures, n);
  }
  return failures == 0 ? 0 : 1;
}

/// Derives a wire-level fault cocktail that fits a short wall-clock run:
/// lossy links, usually one server crash+restart, usually one partition
/// window (sometimes hard), sometimes one client crash+restart. Windows
/// land inside warmup(1s)+duration(3s).
ExperimentConfig MakeRealChaosConfig(std::uint64_t seed) {
  ccsim::sim::Pcg32 rng(seed, /*stream=*/0xC0C8);
  ExperimentConfig cfg = ccsim::config::BaseConfig();
  cfg.system.num_clients = 8;
  cfg.control.seed = seed;
  cfg.control.warmup_seconds = 1;
  cfg.control.max_measure_seconds = 30;
  cfg.fault.recovery_enabled = true;
  cfg.checker.enabled = true;
  ccsim::config::FaultParams& f = cfg.fault;
  f.drop_probability = rng.UniformReal(0.01, 0.04);
  f.duplicate_probability = rng.UniformReal(0.0, 0.02);
  f.delay_spike_probability = rng.UniformReal(0.0, 0.05);
  f.delay_spike_ms = rng.UniformReal(2.0, 10.0);
  if (rng.Bernoulli(0.7)) {
    ccsim::config::FaultParams::CrashEvent crash;
    crash.node = -1;  // the server
    crash.at_s = rng.UniformReal(1.5, 2.2);
    crash.downtime_s = rng.UniformReal(0.2, 0.4);
    f.crashes.push_back(crash);
  }
  if (rng.Bernoulli(0.7)) {
    ccsim::config::FaultParams::PartitionEvent part;
    part.node = static_cast<int>(
        rng.UniformInt(0, cfg.system.num_clients - 1));
    part.at_s = rng.UniformReal(1.0, 2.0);
    part.duration_s = rng.UniformReal(0.3, 0.8);
    part.direction = static_cast<int>(rng.UniformInt(0, 2));
    part.hard = rng.Bernoulli(0.5);
    f.partitions.push_back(part);
  }
  if (rng.Bernoulli(0.4)) {
    f.torn_write_probability = rng.UniformReal(0.02, 0.2);
  }
  if (rng.Bernoulli(0.5)) {
    ccsim::config::FaultParams::CrashEvent crash;
    crash.node = static_cast<int>(
        rng.UniformInt(0, cfg.system.num_clients - 1));
    crash.at_s = rng.UniformReal(1.2, 2.5);
    crash.downtime_s = rng.UniformReal(0.2, 0.5);
    f.crashes.push_back(crash);
  }
  return cfg;
}

/// Real-substrate chaos soak: `n` seeded wire cocktails across all five
/// protocols, each on the threads+TCP substrate with the oracle on. Runs
/// are sequential — one real run already spreads across every core via
/// its shard threads — so wall clock is ~(4s + teardown) x 5 x n; use a
/// smaller seed count than the DES soak.
int RunRealChaosSoak(int n, std::uint64_t base_seed) {
  int failures = 0;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
    ExperimentConfig cfg = MakeRealChaosConfig(seed);
    const std::string plan = DescribeChaos(cfg.fault);
    std::printf("real chaos seed %llu: %s\n",
                static_cast<unsigned long long>(seed), plan.c_str());
    std::fflush(stdout);
    for (const char* name : kSoakAlgorithms) {
      (void)ccsim::config::SelectAlgorithm(name, &cfg.algorithm);
      ccsim::runner::RealRunOptions opts;
      opts.warmup_seconds = 1.0;
      opts.duration_seconds = 3.0;
      const ccsim::Result<RunResult> result =
          ccsim::runner::RunRealExperiment(cfg, opts);
      std::string verdict;
      if (!result.ok()) {
        verdict = result.status().ToString();
      } else {
        const RunResult& r = result.ValueOrDie();
        if (r.commits == 0) {
          verdict = "ZERO COMMITS";
        } else if (r.transactions_lost > 0) {
          verdict = "LOST TRANSACTIONS";
        } else {
          std::printf(
              "  %s: ok (commits %llu, dropped %llu, part-drops %llu, "
              "crashes %llu+%llu, retries %llu)\n",
              name, static_cast<unsigned long long>(r.commits),
              static_cast<unsigned long long>(r.messages_dropped),
              static_cast<unsigned long long>(r.partition_drops),
              static_cast<unsigned long long>(r.server_crashes),
              static_cast<unsigned long long>(r.client_crashes),
              static_cast<unsigned long long>(r.rpc_retries));
        }
      }
      if (!verdict.empty()) {
        ++failures;
        std::printf("  %s: FAILED — %s\n", name, verdict.c_str());
        std::printf("  repro: ccsim_run --substrate=real --chaos-soak=1 "
                    "--seed=%llu\n",
                    static_cast<unsigned long long>(seed));
      }
      std::fflush(stdout);
    }
  }
  if (failures == 0) {
    std::printf("real chaos soak: %d seeds x %d protocols, all clean\n", n,
                kSoakAlgorithmCount);
  } else {
    std::printf("real chaos soak: %d runs FAILED\n", failures);
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  ccsim::config::CommandLine flags;
  if (const int code = ccsim::config::ParseCommandLine(
          ccsim::config::kCcsimRun, argc, argv, &flags);
      code >= 0) {
    return code;
  }
  ExperimentConfig& cfg = flags.config;
  // The sim default of 30 warmup seconds is simulated time; at wall-clock
  // pace it would just be a long wait. Default to 1 s unless asked.
  const ccsim::runner::RealRunOptions real_options{
      .warmup_seconds = flags.warmup_s.value_or(1.0),
      .duration_seconds = flags.duration_s,
      .shards = flags.shards};

  const bool real_substrate = flags.substrate == "real";
  if (real_substrate) {
    if (!flags.sweep_clients.empty()) {
      std::fprintf(stderr,
                   "--substrate=real runs one experiment at a time (no "
                   "--sweep-clients)\n");
      return 2;
    }
    if (flags.chaos_soak > 0) {
      return RunRealChaosSoak(flags.chaos_soak, cfg.control.seed);
    }
  }

  if (flags.chaos_soak > 0) {
    return RunChaosSoak(flags.chaos_soak, cfg.control.seed, flags.jobs);
  }

  if (!flags.sweep_clients.empty()) {
    // One run per client count, fanned across worker threads. Rows print
    // in sweep order (results are merged in submission order), so the
    // output is byte-identical regardless of --jobs.
    std::vector<ExperimentConfig> configs;
    configs.reserve(flags.sweep_clients.size());
    for (int clients : flags.sweep_clients) {
      cfg.system.num_clients = clients;
      configs.push_back(cfg);
    }
    const auto results = ccsim::runner::RunExperiments(
        configs, flags.jobs > 0 ? flags.jobs : ccsim::runner::DefaultJobs());
    PrintCsvHeader();
    bool any_stalled = false;
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (!results[i].ok()) {
        std::fprintf(stderr, "invalid configuration (clients=%d): %s\n",
                     flags.sweep_clients[i],
                     results[i].status().ToString().c_str());
        return 1;
      }
      const RunResult& r = results[i].ValueOrDie();
      PrintCsvRow(flags.algorithm, configs[i], r);
      any_stalled = any_stalled || r.stalled;
    }
    return any_stalled ? 3 : 0;
  }

  const ccsim::Result<RunResult> result =
      real_substrate ? ccsim::runner::RunRealExperiment(cfg, real_options)
                     : ccsim::runner::RunExperiment(cfg);
  if (!result.ok()) {
    std::fprintf(stderr, "invalid configuration: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  const RunResult& r = result.ValueOrDie();
  // Exit contract: stalls are 3; a real-substrate run that lost a driven
  // transaction (conservation break) is 4 even when it otherwise finished.
  const int exit_code =
      r.stalled ? 3
                : (real_substrate && r.transactions_lost > 0 ? 4 : 0);

  if (flags.csv) {
    PrintCsvHeader();
    PrintCsvRow(flags.algorithm, cfg, r);
    return exit_code;
  }

  std::printf("algorithm          : %s\n", flags.algorithm.c_str());
  std::printf("substrate          : %s\n",
              real_substrate ? "real (threads + TCP loopback)"
                             : "sim (discrete-event)");
  std::printf("clients            : %d\n", cfg.system.num_clients);
  std::printf("measured           : %.1f %s-seconds%s\n", r.measured_seconds,
              real_substrate ? "wall" : "sim",
              r.stalled ? "  [STALLED]" : "");
  std::printf("wall clock         : %.2f s (%llu events, %.2fM events/s)\n",
              r.wall_seconds,
              static_cast<unsigned long long>(r.events_processed),
              r.events_per_second / 1e6);
  std::printf("mean response      : %.3f s (+/- %.3f)\n", r.mean_response_s,
              r.response_ci_s);
  std::printf("percentiles        : p50 %.4f s, p90 %.4f s, p99 %.4f s\n",
              r.response_p50_s, r.response_p90_s, r.response_p99_s);
  std::printf("throughput         : %.2f commits/s\n", r.throughput_tps);
  if (real_substrate) {
    const std::uint64_t finished = r.commits + r.aborts;
    std::printf("conservation       : %llu attempts started, %llu in flight "
                "at stop, %llu lost\n",
                static_cast<unsigned long long>(r.attempts_started),
                static_cast<unsigned long long>(
                    r.attempts_started > finished ? r.attempts_started -
                                                        finished
                                                  : 0),
                static_cast<unsigned long long>(r.transactions_lost));
  }
  std::printf("utilization        : server %.2f, net %.2f, disks %.2f, "
              "clients %.2f\n",
              r.server_cpu_util, r.network_util, r.data_disk_util,
              r.client_cpu_util);
  std::printf("hit ratios         : client cache %.2f, server buffer %.2f\n",
              r.client_hit_ratio, r.server_buffer_hit_ratio);
  std::printf("%s", ccsim::runner::CounterSummary(r).c_str());
  return exit_code;
}
