// ccload — multi-threaded load generator for ccserve. Drives a slice of
// the client population (the same client::Client + workload code the DES
// runs) against a real page server over TCP, then reports wall-clock
// throughput, latency percentiles, and the attempt-conservation check.
//
//   $ ccload --port=7411 --algorithm=callback --clients=16 --duration=30
//   $ ccload --port-file=/tmp/port --algorithm=cert --clients=8
//            --lo=0 --hi=4 --threads=2   # half the population, 2 shards
//
// Exits non-zero if any transaction was lost, the conservation invariant
// (started == commits + aborts + in-flight, in-flight <= clients) fails,
// or nothing committed at all.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "config/flags.h"
#include "config/params.h"
#include "runner/real_experiment.h"
#include "runner/report.h"
#include "substrate/node.h"
#include "substrate/tcp.h"

namespace {

using ccsim::config::ExperimentConfig;
using ccsim::config::ParseValue;

void PrintUsage() {
  std::printf(
      "ccload — TCP load generator for ccserve\n\n"
      "  --host=H              server hostname or IPv4 address\n"
      "                        (default 127.0.0.1; see README for a\n"
      "                        two-host run)\n"
      "  --port=N              server port\n"
      "  --port-file=PATH      read the port from PATH (ccserve wrote it)\n"
      "  --algorithm=NAME      must match the server\n"
      "  --clients=N           total client population (must match server)\n"
      "  --lo=N --hi=N         global client-id slice this process drives\n"
      "                        (default the whole population)\n"
      "  --threads=N           event-loop shards (default: 1 per 8 clients,\n"
      "                        at least 2)\n"
      "  --duration=S          measured wall seconds (default 10)\n"
      "  --warmup=S            warmup before the stats window (default 1)\n"
      "  --locality=P --prob-write=P   workload shape\n"
      "  --seed=N              RNG seed (must match the server)\n"
      "  --drop=P --dup=P      per-frame drop/duplicate probability on this\n"
      "                        side of the wire\n"
      "  --spike=P:MS          per-frame delay-spike probability and size\n"
      "  --partition=NODE:AT:DUR[:DIR][:hard]\n"
      "                        blackhole client NODE's frames at AT s for\n"
      "                        DUR s; DIR = both | in | out; 'hard' also\n"
      "                        kills the owning shard's TCP connection\n"
      "  --crash=NODE:AT:DOWN  crash client NODE at AT s for DOWN s: it\n"
      "                        loses its cache and restarts under a new\n"
      "                        incarnation (repeatable; windows of clients\n"
      "                        outside --lo/--hi are ignored)\n"
      "  --recovery            run the client recovery layer (timeouts,\n"
      "                        retries, leases, reconnects) without\n"
      "                        injecting faults; --drop, --dup, --crash\n"
      "                        and --partition imply it (--spike does\n"
      "                        not).\n"
      "                        Pass --recovery when ccserve runs with\n"
      "                        --crash, so both sides agree on recovery.\n"
      "  --help                this text\n");
}

}  // namespace

int main(int argc, char** argv) {
  ExperimentConfig cfg = ccsim::config::BaseConfig();
  cfg.system.num_clients = 10;
  std::string algorithm_name = "2pl";
  std::string host = "127.0.0.1";
  std::string port_file;
  int port = 0;
  int lo = 0;
  int hi = -1;  // default: num_clients
  int threads = 0;
  double duration_s = 10.0;
  double warmup_s = 1.0;

  const ccsim::config::NumberFlag number_flags[] = {
      {"--port", &port},
      {"--clients", &cfg.system.num_clients},
      {"--lo", &lo},
      {"--hi", &hi},
      {"--threads", &threads},
      {"--duration", &duration_s},
      {"--warmup", &warmup_s},
      {"--locality", &cfg.transaction.inter_xact_loc},
      {"--prob-write", &cfg.transaction.prob_write},
      {"--seed", &cfg.control.seed},
      {"--drop", &cfg.fault.drop_probability},
      {"--dup", &cfg.fault.duplicate_probability},
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string value;
    ccsim::Status status;
    if (std::strcmp(arg, "--help") == 0) {
      PrintUsage();
      return 0;
    }
    if (ParseValue(arg, "--host", &value)) {
      host = value;
    } else if (ccsim::config::ParseNumberFlag(arg, number_flags)) {
      continue;
    } else if (ParseValue(arg, "--port-file", &value)) {
      port_file = value;
    } else if (ParseValue(arg, "--algorithm", &value)) {
      algorithm_name = value;
    } else if (std::strcmp(arg, "--recovery") == 0) {
      cfg.fault.recovery_enabled = true;
    } else if (ccsim::config::ParseFaultFlag(arg, &cfg.fault, &status)) {
      if (!status.ok()) {
        std::fprintf(stderr, "%s\n", status.message().c_str());
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", arg);
      return 2;
    }
  }

  if (const ccsim::Status st =
          ccsim::config::SelectAlgorithm(algorithm_name, &cfg.algorithm);
      !st.ok()) {
    std::fprintf(stderr, "%s\n", st.message().c_str());
    return 2;
  }
  cfg.fault.recovery_enabled |= cfg.fault.NeedsRecovery();
  cfg = ccsim::substrate::RawSpeedConfig(cfg);
  if (const ccsim::Status status = cfg.Validate(); !status.ok()) {
    std::fprintf(stderr, "invalid configuration: %s\n",
                 status.ToString().c_str());
    return 2;
  }
  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "r");
    if (f == nullptr || std::fscanf(f, "%d", &port) != 1) {
      std::fprintf(stderr, "cannot read port from %s\n", port_file.c_str());
      if (f != nullptr) {
        std::fclose(f);
      }
      return 2;
    }
    std::fclose(f);
  }
  if (port <= 0) {
    std::fprintf(stderr, "need --port or --port-file\n");
    return 2;
  }
  if (hi < 0) {
    hi = cfg.system.num_clients;
  }
  if (lo < 0 || lo >= hi || hi > cfg.system.num_clients) {
    std::fprintf(stderr, "bad client slice [%d, %d) of %d\n", lo, hi,
                 cfg.system.num_clients);
    return 2;
  }
  if (duration_s <= 0) {
    std::fprintf(stderr, "--duration must be positive\n");
    return 2;
  }

  ccsim::runner::ShardSet load;
  if (const ccsim::Status st = ccsim::runner::ConnectShards(
          cfg, host, port, lo, hi, threads, &load);
      !st.ok()) {
    std::fprintf(stderr, "connect to %s:%d failed: %s\n", host.c_str(), port,
                 st.message().c_str());
    return 1;
  }
  std::printf("ccload: %s, clients [%d, %d) of %d, %zu shards -> %s:%d\n",
              algorithm_name.c_str(), lo, hi, cfg.system.num_clients,
              load.shards.size(), host.c_str(), port);
  std::fflush(stdout);
  ccsim::runner::RunShards(&load, warmup_s, duration_s);

  // --- report -------------------------------------------------------------
  const ccsim::runner::RunResult r =
      ccsim::runner::HarvestRealRun(nullptr, load, duration_s);
  std::uint64_t reconnects = 0, disconnected_drops = 0;
  for (auto& transport : load.transports) {
    reconnects += transport->reconnects();
    disconnected_drops += transport->disconnected_drops();
  }
  const std::uint64_t started = r.attempts_started;
  const std::uint64_t finished = r.commits + r.aborts;
  const std::uint64_t in_flight = started > finished ? started - finished : 0;
  std::printf("throughput  : %.1f commits/s over %.1f s\n", r.throughput_tps,
              duration_s);
  std::printf("commits     : %llu (aborts %llu, attempts started %llu, "
              "in flight at stop %llu)\n",
              static_cast<unsigned long long>(r.commits),
              static_cast<unsigned long long>(r.aborts),
              static_cast<unsigned long long>(started),
              static_cast<unsigned long long>(in_flight));
  std::printf("latency     : mean %.4f s, p50 %.4f, p90 %.4f, p99 %.4f\n",
              r.mean_response_s, r.response_p50_s, r.response_p90_s,
              r.response_p99_s);
  std::printf("transport   : reconnects %llu, disconnected drops %llu\n",
              static_cast<unsigned long long>(reconnects),
              static_cast<unsigned long long>(disconnected_drops));
  std::printf("%s", ccsim::runner::CounterSummary(r).c_str());

  bool ok = true;
  if (r.commits == 0) {
    std::printf("FAIL: no transactions committed\n");
    ok = false;
  }
  if (r.transactions_lost != 0) {
    std::printf("FAIL: %llu transactions lost\n",
                static_cast<unsigned long long>(r.transactions_lost));
    ok = false;
  }
  // Window conservation: started + in_flight(start) == finished +
  // in_flight(end), both in-flight terms bounded by the driven population
  // (the warmup reset can leave the window's start imbalance non-zero).
  // This bound holds under wire faults too: each client drives exactly one
  // transaction at a time, and every faulted attempt resolves to a commit,
  // an abort, or a still-in-flight retry — never a silent disappearance
  // (that would be transactions_lost, checked above).
  const std::uint64_t slack = static_cast<std::uint64_t>(hi - lo);
  if (started > finished + slack || finished > started + slack) {
    std::printf("FAIL: conservation violated (started %llu, finished %llu, "
                "clients %d)\n",
                static_cast<unsigned long long>(started),
                static_cast<unsigned long long>(finished), hi - lo);
    ok = false;
  }
  return ok ? 0 : 1;
}
