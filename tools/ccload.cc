// ccload — multi-threaded load generator for ccserve. Drives a slice of
// the client population (the same client::Client + workload code the DES
// runs) against a real page server over TCP, then reports wall-clock
// throughput, latency percentiles, and the attempt-conservation check.
//
//   $ ccload --port=7411 --algorithm=callback --clients=16 --duration=30
//   $ ccload --port-file=/tmp/port --algorithm=cert --clients=8
//            --lo=0 --hi=4 --threads=2   # half the population, 2 shards
//
// Its flags are rows of the one table in src/config/flags.cc (--help).
// Exits 1 when runner::Judge finds the run unsound: a transaction lost, a
// stuck client, nothing committed, or the conservation invariant (started
// == commits + aborts + in-flight, in-flight <= clients) broken.

#include <cstdio>
#include <string>

#include "config/flags.h"
#include "config/params.h"
#include "runner/experiment.h"
#include "runner/real_experiment.h"
#include "runner/report.h"
#include "substrate/node.h"
#include "substrate/tcp.h"

using ccsim::config::ExperimentConfig;

int main(int argc, char** argv) {
  ccsim::config::CommandLine flags;
  if (const int code = ccsim::config::ParseCommandLine(
          ccsim::config::kCcload, argc, argv, &flags);
      code >= 0) {
    return code;
  }
  const ExperimentConfig& cfg = flags.config;
  const std::string& host = flags.host;
  int port = flags.port;
  const int lo = flags.lo;
  const int hi = flags.hi < 0 ? cfg.system.num_clients : flags.hi;
  const double duration_s = flags.duration_s;

  if (!flags.port_file.empty()) {
    std::FILE* f = std::fopen(flags.port_file.c_str(), "r");
    if (f == nullptr || std::fscanf(f, "%d", &port) != 1) {
      std::fprintf(stderr, "cannot read port from %s\n",
                   flags.port_file.c_str());
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
          cfg, host, port, lo, hi, flags.shards, &load);
      !st.ok()) {
    std::fprintf(stderr, "connect to %s:%d failed: %s\n", host.c_str(), port,
                 st.message().c_str());
    return 1;
  }
  std::printf("ccload: %s, clients [%d, %d) of %d, %zu shards -> %s:%d\n",
              flags.algorithm.c_str(), lo, hi, cfg.system.num_clients,
              load.shards.size(), host.c_str(), port);
  std::fflush(stdout);
  ccsim::runner::RunShards(&load, flags.warmup_s.value_or(1.0), duration_s);

  // --- report -------------------------------------------------------------
  ccsim::runner::Harvest harvest;
  for (const auto& shard : load.shards) {
    harvest.Add(shard->assembly());
  }
  const ccsim::runner::RunResult r = harvest.Finish(duration_s);
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

  if (const unsigned verdict = ccsim::runner::Judge(r, hi - lo)) {
    std::printf("FAIL: %s (commits %llu, lost %llu, started %llu, "
                "finished %llu, clients %d)\n",
                ccsim::runner::DescribeVerdict(verdict).c_str(),
                static_cast<unsigned long long>(r.commits),
                static_cast<unsigned long long>(r.transactions_lost),
                static_cast<unsigned long long>(started),
                static_cast<unsigned long long>(finished), hi - lo);
    return 1;
  }
  return 0;
}
