// ccserve — a real page server: the simulator's server::Server (buffer
// pool, lock manager, log, page directory, and any of the five consistency
// protocols) hosted on real threads, serving the wire protocol over TCP.
//
//   $ ccserve --algorithm=callback --clients=16 --port=7411
//   $ ccserve --algorithm=cert --clients=8 --port=0 --port-file=/tmp/port
//
// Clients are ccload processes (or in-process shards). The server runs
// until SIGINT/SIGTERM or --duration elapses, then prints a summary and
// exits 0 on a clean shutdown.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <thread>

#include "config/flags.h"
#include "config/params.h"
#include "net/message.h"
#include "runner/experiment.h"
#include "runner/report.h"
#include "server/server.h"
#include "sim/time.h"
#include "substrate/node.h"
#include "substrate/tcp.h"

namespace {

using ccsim::config::ExperimentConfig;
using ccsim::config::ParseValue;

void PrintUsage() {
  std::printf(
      "ccserve — real TCP page server for the five consistency protocols\n\n"
      "  --algorithm=NAME      2pl | 2pl-intra | cert | cert-intra |\n"
      "                        callback | no-wait | no-wait-notify\n"
      "  --clients=N           total client population the load generators\n"
      "                        will present (must match ccload --clients)\n"
      "  --port=N              TCP port (0 = ephemeral; printed at start)\n"
      "  --bind=HOST           bind address (default: all interfaces)\n"
      "  --port-file=PATH      write the bound port to PATH (scripting)\n"
      "  --buffer-pages=N      server buffer pool size\n"
      "  --mpl=N               server multiprogramming level\n"
      "  --seed=N              RNG seed (must match ccload --seed)\n"
      "  --duration=S          exit after S wall seconds (default: run\n"
      "                        until SIGINT/SIGTERM)\n"
      "  --check               run the consistency oracle on every commit\n"
      "  --crash=AT:DOWN       self-crash at AT s for DOWN s, then replay\n"
      "                        the log and resume (repeatable); live TCP\n"
      "                        connections are severed at the crash\n"
      "  --drop=P --dup=P      per-frame drop/duplicate probability\n"
      "  --spike=P:MS          per-frame delay-spike probability and size\n"
      "  --partition=NODE:AT:DUR[:DIR][:hard]\n"
      "                        blackhole client NODE's frames at AT s for\n"
      "                        DUR s; DIR = both | in | out; 'hard' also\n"
      "                        kills the carrying TCP connection\n"
      "  --torn-write=P --bit-flip=P\n"
      "                        per-log-force storage-fault probabilities\n"
      "  --recovery            enable the recovery layer without faults;\n"
      "                        --drop, --dup, --crash and --partition\n"
      "                        imply it, --spike and the storage faults do\n"
      "                        not. ccload must run recovery mode too:\n"
      "                        pass it --recovery when this server has\n"
      "                        --crash\n"
      "  --help                this text\n");
}

volatile std::sig_atomic_t g_signal = 0;
void OnSignal(int sig) { g_signal = sig; }

}  // namespace

int main(int argc, char** argv) {
  ExperimentConfig cfg = ccsim::config::BaseConfig();
  cfg.system.num_clients = 10;
  std::string algorithm_name = "2pl";
  std::string port_file;
  std::string bind_host;
  int port = 0;
  double duration_s = 0.0;  // 0 = until signal

  const ccsim::config::NumberFlag number_flags[] = {
      {"--clients", &cfg.system.num_clients},
      {"--port", &port},
      {"--buffer-pages", &cfg.system.server_buffer_pages},
      {"--mpl", &cfg.system.mpl},
      {"--seed", &cfg.control.seed},
      {"--duration", &duration_s},
      {"--drop", &cfg.fault.drop_probability},
      {"--dup", &cfg.fault.duplicate_probability},
      {"--torn-write", &cfg.fault.torn_write_probability},
      {"--bit-flip", &cfg.fault.bit_flip_probability},
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string value;
    ccsim::Status status;
    if (std::strcmp(arg, "--help") == 0) {
      PrintUsage();
      return 0;
    }
    if (std::strcmp(arg, "--check") == 0) {
      cfg.checker.enabled = true;
    } else if (ccsim::config::ParseNumberFlag(arg, number_flags)) {
      continue;
    } else if (ParseValue(arg, "--algorithm", &value)) {
      algorithm_name = value;
    } else if (ParseValue(arg, "--bind", &value)) {
      bind_host = value;
    } else if (ParseValue(arg, "--port-file", &value)) {
      port_file = value;
    } else if (std::strcmp(arg, "--recovery") == 0) {
      cfg.fault.recovery_enabled = true;
    } else if (ParseValue(arg, "--crash", &value)) {
      // Parsed before ParseFaultFlag's NODE:AT:DOWN form: a server
      // crashes only itself, so a NODE field is an error.
      const std::size_t colon = value.find(':');
      if (colon == std::string::npos ||
          value.find(':', colon + 1) != std::string::npos) {
        std::fprintf(stderr, "--crash wants AT:DOWN\n");
        return 2;
      }
      ccsim::config::FaultParams::CrashEvent crash;
      crash.node = ccsim::net::kServerNode;
      crash.at_s = std::atof(value.substr(0, colon).c_str());
      crash.downtime_s = std::atof(value.substr(colon + 1).c_str());
      cfg.fault.crashes.push_back(crash);
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

  ccsim::substrate::ServerNode node(cfg, cfg.control.seed);
  std::string error;
  auto transport = ccsim::substrate::TcpServerTransport::Listen(
      port, ccsim::substrate::MakeHello(cfg), &node.substrate(), &error,
      bind_host);
  if (transport == nullptr) {
    std::fprintf(stderr, "listen failed: %s\n", error.c_str());
    return 1;
  }
  node.AttachTransport(transport.get());
  node.Start();

  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", port_file.c_str());
      return 1;
    }
    std::fprintf(f, "%d\n", transport->port());
    std::fclose(f);
  }
  std::printf("ccserve: %s, %d clients, port %d%s\n", algorithm_name.c_str(),
              cfg.system.num_clients, transport->port(),
              cfg.checker.enabled ? ", oracle on" : "");
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);

  std::uint64_t events = 0;
  std::thread loop([&node, &events] {
    events = node.RunLoop(std::numeric_limits<ccsim::sim::Ticks>::max() / 4);
  });
  // Signal handlers cannot touch the substrate's condition variable, so a
  // watcher polls the flag (and the optional wall deadline) at 50 ms.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(duration_s));
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (g_signal != 0 ||
        (duration_s > 0 && std::chrono::steady_clock::now() >= deadline)) {
      break;
    }
  }
  node.substrate().Stop();
  loop.join();
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
