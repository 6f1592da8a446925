// ccbench: runs one benchmark workload and prints its metrics as one JSON
// line. run.py builds this binary, runs each workload in its own process,
// checks the report and prints the final result; see README.md.
//
//   ccbench --workload sim_paper|sim_hot_checked|real_loopback
//           --seed N --seconds S --trace 0|1
//
// Progress and digests go to stderr; stdout carries only the JSON report.

#include "ccbench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "runner/experiment.h"

namespace ccbench {

using ccsim::config::Algorithm;
using ccsim::config::ExperimentConfig;
using ccsim::runner::RunResult;

// --- report ------------------------------------------------------------------

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
}

void Report::Fail(const std::string& what) {
  std::fprintf(stderr, "ccbench: FAIL %s\n", what.c_str());
  errors_.push_back(what);
}

void Report::Digest(const std::string& label, std::uint64_t digest) {
  digests_.emplace_back(label, digest);
}

namespace {

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

}  // namespace

void Report::PrintJson(const std::string& workload) const {
  std::string out = "{\"workload\": " + JsonString(workload);
  out += ", \"compiler\": " + JsonString(CCBENCH_COMPILER);
  out += ", \"build_type\": " + JsonString(CCBENCH_BUILD_TYPE);
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"errors\": [";
  for (std::size_t i = 0; i < errors_.size(); ++i) {
    out += (i == 0 ? "" : ", ") + JsonString(errors_[i]);
  }
  out += "], \"digests\": {";
  for (std::size_t i = 0; i < digests_.size(); ++i) {
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016" PRIx64, digests_[i].second);
    out += (i == 0 ? "" : ", ") + JsonString(digests_[i].first) + ": " +
           JsonString(hex);
  }
  out += "}, \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    out += (i == 0 ? "" : ", ") + JsonString(metrics_[i].name) +
           ": {\"value\": " + value +
           ", \"unit\": " + JsonString(metrics_[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

// --- helpers -------------------------------------------------------------------

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::uint64_t Fnv1a(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

namespace {

// --- workloads -----------------------------------------------------------------

/// Paper Table 5 base setting at the Figs 8-12 operating point: 50 clients
/// on a 2000-page database, 100-page client caches, 400-page server buffer.
ExperimentConfig SimPaperConfig() {
  ExperimentConfig cfg = ccsim::config::BaseConfig();
  cfg.system.num_clients = 50;
  // Short runs, many rounds: see Best().
  cfg.control.target_commits = 500;
  return cfg;
}

/// A Fig 8-11 hot cell (InterXactLoc 0.75, ProbWrite 0.5) with client caches
/// that hold the whole database and the consistency oracle on.
ExperimentConfig SimHotCheckedConfig() {
  ExperimentConfig cfg = SimPaperConfig();
  cfg.transaction.inter_xact_loc = 0.75;
  cfg.transaction.prob_write = 0.5;
  cfg.system.client_cache_pages =
      static_cast<int>(cfg.database.TotalPages());
  cfg.checker.enabled = true;
  return cfg;
}

/// Closed loop on the real substrate: 2PL, 16 clients, think times zeroed,
/// so each client starts its next transaction when the previous commits.
ExperimentConfig RealLoopbackConfig() {
  ExperimentConfig cfg = ccsim::config::BaseConfig();
  cfg.algorithm.algorithm = Algorithm::kTwoPhaseLocking;
  cfg.system.num_clients = 16;
  cfg.transaction.external_delay_s = 0.0;
  cfg.transaction.internal_delay_s = 0.0;
  cfg.transaction.update_delay_s = 0.0;
  return cfg;
}

// --- sim substrate ---------------------------------------------------------------

/// The five inter-transaction protocols of the paper, in figure order.
struct Protocol {
  const char* label;
  Algorithm algorithm;
};
constexpr Protocol kProtocols[] = {
    {"2PL", Algorithm::kTwoPhaseLocking},
    {"cert", Algorithm::kCertification},
    {"callback", Algorithm::kCallbackLocking},
    {"no-wait", Algorithm::kNoWaitLocking},
    {"no-wait-notify", Algorithm::kNoWaitNotify},
};

/// The deterministic result surface of one sim run: the fields ccsim_run
/// --csv prints, in its column order and formats. No wall-clock field.
std::string CsvRow(const char* label, const ExperimentConfig& cfg,
                   const RunResult& r) {
  char row[1024];
  auto u = [](std::uint64_t v) { return static_cast<unsigned long long>(v); };
  std::snprintf(
      row, sizeof(row),
      "%s,%d,%.3f,%.3f,%.6f,%.6f,%.4f,%llu,%llu,%llu,%llu,%llu,%.4f,"
      "%.4f,%.4f,%.4f,%.4f,%.4f,%llu,%llu,%d,"
      "%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,"
      "%.4f,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%d",
      label, cfg.system.num_clients, cfg.transaction.inter_xact_loc,
      cfg.transaction.prob_write, r.mean_response_s, r.response_ci_s,
      r.throughput_tps, u(r.commits), u(r.aborts), u(r.deadlock_aborts),
      u(r.stale_aborts), u(r.cert_aborts), r.server_cpu_util, r.network_util,
      r.data_disk_util, r.client_cpu_util, r.client_hit_ratio,
      r.server_buffer_hit_ratio, u(r.messages), u(r.packets),
      static_cast<int>(r.stalled), u(r.messages_dropped),
      u(r.messages_duplicated), u(r.delay_spikes), u(r.down_drops),
      u(r.rpc_retries), u(r.rpc_timeouts), u(r.timeout_aborts),
      u(r.crash_aborts), u(r.lease_expirations), u(r.duplicates_suppressed),
      u(r.gc_xacts), u(r.client_crashes), u(r.server_crashes),
      r.recovery_seconds, u(r.transactions_lost), u(r.unknown_outcomes),
      u(r.partition_drops), u(r.shed_requests), u(r.retry_budget_exhaustions),
      u(r.ready_queue_high_water), u(r.log_torn_writes), u(r.log_bit_flips),
      u(r.log_rewrites), u(r.log_records_truncated), r.stuck_clients);
  return row;
}

/// One protocol run. Counts repeat exactly from round to round (the digest
/// check enforces it); the times do not. The twin_* fields come from the
/// run's warmup-only twin.
struct ProtocolRun {
  double commits = 0;
  double wall_s = 0;
  double cpu_s = 0;
  double setup_s = 0;
  double events = 0;
  double twin_wall_s = 0;
  double twin_cpu_s = 0;
  double twin_events = 0;
  double messages = 0;
  double aborts = 0;
  double deadlock_aborts = 0;
  double writebacks = 0;
  double client_hit_ratio = 0;
  double buffer_hit_ratio = 0;
};
/// One run of each protocol, in kProtocols order.
using SimRound = std::vector<ProtocolRun>;

/// RunResult.wall_seconds and events_processed include the simulated
/// warmup, whose commits are not counted. A twin of the run that stops one
/// tick after the warmup measures that share, so it can be taken off.
constexpr double kTwinMeasureSeconds = 1e-6;

/// One RunExperiment call with its wall and CPU seconds.
struct TimedRun {
  ccsim::Result<RunResult> run;
  double call_s;
  double cpu_s;
};

TimedRun RunTimed(const ExperimentConfig& cfg) {
  const double cpu0 = CpuSeconds();
  const Clock::time_point t0 = Clock::now();
  auto run = ccsim::runner::RunExperiment(cfg);
  const double call_s = SecondsSince(t0);
  return {std::move(run), call_s, CpuSeconds() - cpu0};
}

/// Runs the five protocols once, each after its warmup-only twin. The
/// first round's digests become the reference every later round (and the
/// checker-on/off twin) must match.
SimRound RunSimRound(const ExperimentConfig& base, bool checker,
                     std::vector<std::uint64_t>* reference, Report* report) {
  SimRound round(std::size(kProtocols));
  const bool first = reference->empty();
  for (std::size_t p = 0; p < std::size(kProtocols); ++p) {
    const Protocol& protocol = kProtocols[p];
    ExperimentConfig cfg = base;
    cfg.algorithm.algorithm = protocol.algorithm;
    cfg.checker.enabled = checker;
    ExperimentConfig twin_cfg = cfg;
    twin_cfg.control.max_measure_seconds = kTwinMeasureSeconds;
    const TimedRun twin = RunTimed(twin_cfg);
    const TimedRun full = RunTimed(cfg);
    if (!twin.run.ok() || !full.run.ok()) {
      report->Fail(std::string(protocol.label) + ": RunExperiment: " +
                   (twin.run.ok() ? full.run : twin.run).status().ToString());
      continue;
    }
    const RunResult& r = full.run.ValueOrDie();
    const RunResult& w = twin.run.ValueOrDie();
    const std::uint64_t digest = Fnv1a(CsvRow(protocol.label, cfg, r));
    if (first) {
      reference->push_back(digest);
      report->Digest(protocol.label, digest);
      std::fprintf(stderr, "digest %s seed=%" PRIu64 " %016" PRIx64 "\n",
                   protocol.label, cfg.control.seed, digest);
    } else if ((*reference)[p] != digest) {
      report->Fail(std::string(protocol.label) +
                   ": result differs from the first run of the same seed" +
                   (checker ? " (checker on)" : ""));
    }
    const std::uint64_t bad =
        r.transactions_lost + r.unknown_outcomes +
        static_cast<std::uint64_t>(r.stuck_clients);
    report->attempted += r.attempts_started;
    report->failed += bad;
    if (r.stalled || w.stalled) {
      report->Fail(std::string(protocol.label) + ": simulation stalled");
    }
    if (bad != 0 || w.transactions_lost + w.unknown_outcomes != 0) {
      report->Fail(std::string(protocol.label) +
                   ": lost, unknown-outcome or stuck transactions");
    }
    const double in_flight =
        std::fabs(static_cast<double>(r.attempts_started) -
                  static_cast<double>(r.commits + r.aborts));
    if (in_flight > 2.0 * cfg.system.num_clients) {
      report->Fail(std::string(protocol.label) +
                   ": attempts do not conserve (started vs ended)");
    }
    if (checker && (!r.oracle_enabled || r.oracle_commits < r.commits)) {
      report->Fail(std::string(protocol.label) +
                   ": oracle did not observe every commit");
    }
    ProtocolRun& out = round[p];
    out.commits = static_cast<double>(r.commits);
    out.wall_s = r.wall_seconds;
    out.cpu_s = full.cpu_s;
    out.setup_s = full.call_s - r.wall_seconds;
    out.events = static_cast<double>(r.events_processed);
    out.twin_wall_s = w.wall_seconds;
    out.twin_cpu_s = twin.cpu_s;
    out.twin_events = static_cast<double>(w.events_processed);
    out.messages = static_cast<double>(r.messages);
    out.aborts = static_cast<double>(r.aborts);
    out.deadlock_aborts = static_cast<double>(r.deadlock_aborts);
    out.writebacks = static_cast<double>(r.buffer_writebacks);
    out.client_hit_ratio = r.client_hit_ratio;
    out.buffer_hit_ratio = r.server_buffer_hit_ratio;
  }
  return round;
}

/// The five protocols summed (hit ratios averaged). A protocol's run and
/// twin times are each taken from their fastest round, and the twin's
/// warmup is then taken off the run's wall, CPU and events, so the sum
/// covers the measured commits only. Other work on a shared host only ever
/// slows a run, in bursts of a few seconds, so the fastest of many short
/// rounds is the steadiest estimate of the program's own cost. Set-up time
/// is the median round's: set-up that a run pays only some of the time,
/// such as fresh memory from the kernel, would vanish from the fastest.
ProtocolRun Best(const std::vector<SimRound>& rounds) {
  ProtocolRun sum;
  const double n = static_cast<double>(std::size(kProtocols));
  for (std::size_t p = 0; p < std::size(kProtocols); ++p) {
    ProtocolRun best = rounds.front()[p];
    std::vector<double> setups;
    for (const SimRound& round : rounds) {
      const ProtocolRun& r = round[p];
      best.wall_s = std::min(best.wall_s, r.wall_s);
      best.cpu_s = std::min(best.cpu_s, r.cpu_s);
      best.twin_wall_s = std::min(best.twin_wall_s, r.twin_wall_s);
      best.twin_cpu_s = std::min(best.twin_cpu_s, r.twin_cpu_s);
      setups.push_back(r.setup_s);
    }
    sum.commits += best.commits;
    sum.wall_s += best.wall_s - best.twin_wall_s;
    sum.cpu_s += best.cpu_s - best.twin_cpu_s;
    sum.setup_s += Median(setups);
    sum.events += best.events - best.twin_events;
    sum.messages += best.messages;
    sum.aborts += best.aborts;
    sum.deadlock_aborts += best.deadlock_aborts;
    sum.writebacks += best.writebacks;
    sum.client_hit_ratio += best.client_hit_ratio / n;
    sum.buffer_hit_ratio += best.buffer_hit_ratio / n;
  }
  return sum;
}

double CommitsPerSecond(const ProtocolRun& r) {
  return r.wall_s > 0 ? r.commits / r.wall_s : 0.0;
}

/// Runs rounds until the next one would overrun `seconds` (at least one).
/// With `alternate`, rounds switch checker off/on, starting with off.
void RunSimRounds(const ExperimentConfig& base, double seconds,
                  bool alternate, std::vector<SimRound>* off,
                  std::vector<SimRound>* on, Report* report) {
  std::vector<std::uint64_t> reference;
  const Clock::time_point start = Clock::now();
  int rounds = 0;
  for (;;) {
    const bool checker = alternate ? (rounds % 2 == 1) : base.checker.enabled;
    SimRound round = RunSimRound(base, checker, &reference, report);
    double warmup_s = 0;
    double wall_s = 0;
    for (const ProtocolRun& run : round) {
      warmup_s += run.twin_wall_s;
      wall_s += run.wall_s;
    }
    std::fprintf(stderr, "round %d%s: %.0f commits/s, warmup %.0f%% of wall\n",
                 rounds, checker ? " (checker on)" : "",
                 CommitsPerSecond(Best({round})), 100.0 * warmup_s / wall_s);
    (checker ? on : off)->push_back(std::move(round));
    ++rounds;
    const double elapsed = SecondsSince(start);
    const int needed = alternate ? 2 : 1;
    if (!report->ok() ||
        (rounds >= needed && (!alternate || rounds % 2 == 0) &&
         elapsed + (alternate ? 2.0 : 1.0) * elapsed / rounds > seconds)) {
      break;
    }
  }
}

}  // namespace

void RunSimWorkload(const Options& options, const ExperimentConfig& base_in,
                    Report* report) {
  ExperimentConfig base = base_in;
  base.control.seed = options.seed;
  std::vector<SimRound> off;
  std::vector<SimRound> on;
  if (!options.trace) {
    RunSimRounds(base, options.seconds, false, &off, &on, report);
    if (!report->ok()) {
      return;
    }
    const std::vector<SimRound>& rounds = base.checker.enabled ? on : off;
    const ProtocolRun best = Best(rounds);
    std::fprintf(stderr, "%zu rounds, %.0f commits per round\n",
                 rounds.size(), best.commits);
    report->Metric("commits_per_s", CommitsPerSecond(best), "commits/s");
    report->Metric("cpu_ms_per_commit", 1e3 * best.cpu_s / best.commits,
                   "ms");
    report->Metric("setup_s", best.setup_s, "s");
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  // Traced run: counts come from RunResult; the checker-on workload is run
  // with the checker off and on in alternating rounds for its overhead.
  const bool checked = base.checker.enabled;
  RunSimRounds(base, options.seconds * 0.8, checked, &off, &on, report);
  if (!report->ok()) {
    return;
  }
  const ProtocolRun r = Best(checked ? on : off);
  const double check_overhead =
      checked ? 100.0 * (CommitsPerSecond(Best(off)) / CommitsPerSecond(r) -
                         1.0)
              : 0.0;
  const ReplayTimes replay = ReplayLayers(
      base, 200 * base.system.num_clients, /*reps=*/5, report);
  report->Metric("sim.events_per_commit", r.events / r.commits,
                 "events/commit");
  report->Metric("sim.ns_per_event", 1e9 * r.wall_s / r.events, "ns");
  report->Metric("net.msgs_per_commit", r.messages / r.commits, "msgs/commit");
  report->Metric("workload.next_xact_ns", replay.next_xact_ns, "ns");
  report->Metric("client.hit_ratio", r.client_hit_ratio, "ratio");
  report->Metric("client.access_ns", replay.access_ns, "ns");
  report->Metric("client.end_xact_ns", replay.end_xact_ns, "ns");
  report->Metric("proto.aborts_per_commit", r.aborts / r.commits,
                 "aborts/commit");
  report->Metric("lock.acquire_ns", replay.lock_ns, "ns");
  report->Metric("lock.deadlocks_per_commit", r.deadlock_aborts / r.commits,
                 "count/commit");
  report->Metric("storage.buffer_hit_ratio", r.buffer_hit_ratio, "ratio");
  report->Metric("storage.writebacks_per_commit", r.writebacks / r.commits,
                 "count/commit");
  report->Metric("check.on_commit_ns", replay.check_ns, "ns");
  report->Metric("check.overhead_pct", check_overhead, "%");
  // The substrate layer is idle on the DES: nothing crosses a wire.
  report->Metric("substrate.deliver_ns", 0.0, "ns");
  report->Metric("substrate.flush_ns", 0.0, "ns");
  report->Metric("substrate.msgs_per_flush", 0.0, "msgs/flush");
  report->Metric("substrate.inbound_msgs_per_commit", 0.0, "msgs/commit");
  report->Metric("substrate.loop_events_per_commit", 0.0, "events/commit");
  report->Metric("substrate.codec_ns", 0.0, "ns");
  // A sim run is traced from RunResult alone, so tracing adds nothing.
  report->Metric("trace.overhead_pct", 0.0, "%");
}

}  // namespace ccbench

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: ccbench --workload sim_paper|sim_hot_checked|"
               "real_loopback --seed N --seconds S --trace 0|1\n");
}

}  // namespace

int main(int argc, char** argv) {
  ccbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      options.workload = value;
      continue;
    }
    if (std::strcmp(flag, "--seed") == 0) {
      options.seed = std::strtoull(value, &end, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      options.seconds = std::strtod(value, &end);
    } else if (std::strcmp(flag, "--trace") == 0) {
      options.trace = std::strtol(value, &end, 10) != 0;
    } else {
      Usage();
      return 2;
    }
    if (end == value || *end != '\0') {
      Usage();
      return 2;
    }
  }
  if (argc % 2 != 1 || !(options.seconds > 0)) {
    Usage();
    return 2;
  }
  ccbench::Report report;
  if (options.workload == "sim_paper") {
    ccbench::RunSimWorkload(options, ccbench::SimPaperConfig(), &report);
  } else if (options.workload == "sim_hot_checked") {
    ccbench::RunSimWorkload(options, ccbench::SimHotCheckedConfig(), &report);
  } else if (options.workload == "real_loopback") {
    ccbench::RunRealWorkload(options, ccbench::RealLoopbackConfig(), &report);
  } else {
    Usage();
    return 2;
  }
  if (!options.trace) {
    report.Metric("failed_frac",
                  report.attempted == 0
                      ? 1.0
                      : static_cast<double>(report.failed) /
                            static_cast<double>(report.attempted),
                  "fraction");
  }
  report.PrintJson(options.workload);
  return report.ok() ? 0 : 1;
}
