// ccserve — a real page server: the simulator's server::Server (buffer
// pool, lock manager, log, and any of the five consistency protocols)
// hosted on real threads, serving the wire protocol over TCP.
//
//   $ ccserve --algorithm=callback --clients=16 --port=7411
//   $ ccserve --algorithm=cert --clients=8 --port=0 --port-file=/tmp/port
//
// Clients are ccload processes (or in-process shards). The server runs
// until SIGINT/SIGTERM or --duration elapses, then prints a summary and
// exits 0 on a clean shutdown. Its flags are rows of the one table in
// src/config/flags.cc (--help).

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>

#include "config/flags.h"
#include "config/params.h"
#include "runner/experiment.h"
#include "runner/report.h"
#include "server/server.h"
#include "sim/time.h"
#include "substrate/node.h"
#include "substrate/tcp.h"

namespace {

using ccsim::config::ExperimentConfig;

// The loop the signal handler stops; set before the handler is installed.
ccsim::substrate::RealtimeSubstrate* g_loop = nullptr;
void OnSignal(int) {
  const int saved_errno = errno;
  g_loop->Stop();  // async-signal-safe
  errno = saved_errno;
}

}  // namespace

int main(int argc, char** argv) {
  ccsim::config::CommandLine flags;
  if (const int code = ccsim::config::ParseCommandLine(
          ccsim::config::kCcserve, argc, argv, &flags);
      code >= 0) {
    return code;
  }
  const ExperimentConfig& cfg = flags.config;

  ccsim::substrate::ServerNode node(cfg, cfg.control.seed);
  std::string error;
  auto transport = ccsim::substrate::TcpServerTransport::Listen(
      flags.port, ccsim::substrate::MakeHello(cfg), &node.substrate(),
      &error, flags.bind_host);
  if (transport == nullptr) {
    std::fprintf(stderr, "listen failed: %s\n", error.c_str());
    return 1;
  }
  node.AttachTransport(transport.get());
  node.Start();

  if (!flags.port_file.empty()) {
    std::FILE* f = std::fopen(flags.port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", flags.port_file.c_str());
      return 1;
    }
    std::fprintf(f, "%d\n", transport->port());
    std::fclose(f);
  }
  std::printf("ccserve: %s, %d clients, port %d%s\n", flags.algorithm.c_str(),
              cfg.system.num_clients, transport->port(),
              cfg.checker.enabled ? ", oracle on" : "");
  std::fflush(stdout);

  g_loop = &node.substrate();
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);

  const std::uint64_t events = node.RunLoop(
      flags.duration_s > 0 ? ccsim::sim::SecondsToTicks(flags.duration_s)
                     : std::numeric_limits<ccsim::sim::Ticks>::max() / 4);
  // A signal can land mid-flush: finish the write-out (bounded) so peers
  // see complete frames, or poison the dirty connections so they see a
  // clean cut instead of a torn frame.
  const bool drained = transport->DrainOrPoison(2.0);
  if (!drained) {
    std::printf("ccserve: shutdown flush timed out — poisoned dirty "
                "connections (peers see RST, not a torn frame)\n");
  }
  transport->Close();
  node.FinalizeChecker();

  std::printf(
      "ccserve: clean shutdown — %llu events, %llu frames in, "
      "%llu connections, %llu unroutable drops\n",
      static_cast<unsigned long long>(events),
      static_cast<unsigned long long>(transport->frames_received()),
      static_cast<unsigned long long>(transport->connections_accepted()),
      static_cast<unsigned long long>(transport->unroutable_drops()));
  ccsim::runner::RunResult counters;
  ccsim::runner::AddNodeCounters(node.counter_sources(), &counters);
  std::printf("ccserve: buffer hit %.2f\n", node.server().pool().HitRatio());
  std::printf("%s", ccsim::runner::CounterSummary(counters, "ccserve: ")
                        .c_str());
  return 0;
}
