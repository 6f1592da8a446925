#ifndef CCSIM_SUBSTRATE_NODE_H_
#define CCSIM_SUBSTRATE_NODE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "check/checker.h"
#include "client/client.h"
#include "config/params.h"
#include "db/database.h"
#include "fault/fault_injector.h"
#include "net/network.h"
#include "runner/counters.h"
#include "runner/metrics.h"
#include "server/server.h"
#include "sim/simulator.h"
#include "substrate/realtime.h"
#include "substrate/tcp.h"
#include "substrate/wire.h"

namespace ccsim::substrate {

/// Strips the simulated hardware costs out of a config for real-substrate
/// runs: the wire is a real socket (no modeled network delay or per-packet
/// CPU charge), the page store is in-memory (no seeks, no transfer time),
/// and page processing is the real CPU work of handling the message. Think
/// times and workload shape are left untouched — they are the experiment,
/// not the hardware.
config::ExperimentConfig RawSpeedConfig(config::ExperimentConfig config);

/// Builds the Hello both ends of the wire validate against (client-range
/// fields zeroed; shards fill in their own).
Hello MakeHello(const config::ExperimentConfig& config);

/// What a substrate adds to the crash and partition windows both
/// substrates share. Either hook may be empty.
struct FaultHooks {
  /// Runs at a server crash, between SetDown and Server::Crash.
  std::function<void()> server_crash;
  /// Runs at the start of a hard partition of client `node`.
  std::function<void(int)> hard_partition;
};

/// The model pieces of one calendar, built the same way on both substrates:
/// a copy of the config (the model keeps references into it), the layout,
/// metrics and network, the server with its protocol when `with_server`,
/// then the clients [lo, hi), then, when config.checker is on and the
/// server is here, the checker with its audit hook. The DES builds one
/// with every node, a ServerNode one with the server, a ClientShard one
/// with its clients. Each harness wires and harvests the members itself.
class Assembly {
 public:
  /// `where` follows the algorithm name in the checker's reports.
  Assembly(sim::Simulator* sim, const config::ExperimentConfig& config,
           std::uint64_t seed, bool with_server, int lo, int hi,
           const std::string& where);

  Assembly(const Assembly&) = delete;
  Assembly& operator=(const Assembly&) = delete;

  /// The one fault-wiring routine of both substrates. When the config
  /// plans any fault, builds this calendar's injector, drawing from
  /// `fault_seed`'s fault::kFaultStream, hooks it to the network and to
  /// the server's log, and plants its windows (PlantFaultWindows). A
  /// fault-free config leaves every hook null. Call once, before Start();
  /// on the real substrate, before the loop thread starts.
  void InjectFaults(std::uint64_t fault_seed, const FaultHooks& hooks);

  /// Spawns the server's dispatcher, then every client's processes.
  void Start();

  /// Joins the checker's verification thread and finalizes the oracle
  /// (call once, after the calendar has stopped). False if no checker.
  bool FinalizeChecker();

  /// Everything this calendar counts, for runner::AddNodeCounters.
  runner::NodeSources counter_sources() {
    return {&metrics, server.get(), &network, injector.get(),
            checker.get()};
  }

  const config::ExperimentConfig config;
  db::DatabaseLayout layout;
  runner::Metrics metrics;
  net::Network network;
  std::unique_ptr<server::Server> server;
  std::vector<std::unique_ptr<client::Client>> clients;
  std::unique_ptr<check::Checker> checker;
  /// The calendar's one fault injector; null while no fault is planned.
  std::unique_ptr<fault::FaultInjector> injector;

 private:
  /// Plants the crash windows in `plan` of the nodes on this calendar,
  /// then the partition windows of every link with an end here, driving
  /// the injector.
  ///  - Server crash: SetDown, `hooks.server_crash`, Server::Crash; the
  ///    restart replays the log, then marks the server up.
  ///  - Client crash: SetDown, Client::Crash; the restart is
  ///    SetDown(false), Client::Recover.
  ///  - Partition: cut the link, heal it; a hard one also calls
  ///    `hooks.hard_partition(node)` at its start.
  /// Plan ticks are simulated time on the DES and wall µs since the loop
  /// epoch on the real substrate.
  void PlantFaultWindows(const fault::FaultPlan& plan,
                         const FaultHooks& hooks);
  /// Client `node`, or null when it lives on another calendar.
  client::Client* FindClient(int node) const;
  /// The checker's structural audit of the nodes on this calendar.
  void Audit() const;

  sim::Simulator* sim_;
  int lo_;
};

/// What ServerNode and ClientShard share: a wall-clock loop around the
/// node's own calendar and the Assembly on it, whose network takes the
/// node's inbound messages from the loop and applies the node's faults.
class RealNode {
 public:
  RealNode(const RealNode&) = delete;
  RealNode& operator=(const RealNode&) = delete;

  /// Spawns the node's processes. Call after installing the transport
  /// (AttachTransport, or by hand on network()).
  void Start() { nodes_.Start(); }

  /// Interposes `filter` between the transport and the node's network:
  /// messages for which it returns false are discarded before
  /// net::Network::Receive sees them; a null filter (the default) admits
  /// everything. Call before the loop starts; the filter runs on the loop
  /// thread.
  void InstallInboundFilter(std::function<bool(const net::Message&)> filter);

  RealtimeSubstrate& substrate() { return substrate_; }
  net::Network& network() { return nodes_.network; }
  runner::Metrics& metrics() { return nodes_.metrics; }
  /// Everything this node counts, for runner::AddNodeCounters.
  runner::NodeSources counter_sources() { return nodes_.counter_sources(); }

 protected:
  RealNode(const config::ExperimentConfig& config, std::uint64_t seed,
           bool with_server, int lo, int hi, const std::string& where);
  /// Destroys still-suspended coroutine frames while the model objects
  /// they reference are alive (same discipline as the DES harness).
  virtual ~RealNode() { sim_.Shutdown(); }

  /// Routes the node's traffic over `transport` and, when the plan has
  /// faults, injects them (Assembly::InjectFaults with `fault_seed` and
  /// `hooks`).
  void Route(net::Transport* transport, std::uint64_t fault_seed,
             const FaultHooks& hooks);

  std::uint64_t seed_;
  sim::Simulator sim_;
  RealtimeSubstrate substrate_;
  Assembly nodes_;
};

/// A real page server: the unchanged server::Server (buffer pool, lock
/// manager, log, directory, protocol) running on a RealtimeSubstrate, with
/// inbound messages injected from the TCP transport. One instance per
/// ccserve process (or per in-process loopback experiment).
class ServerNode : public RealNode {
 public:
  ServerNode(const config::ExperimentConfig& config, std::uint64_t seed);

  /// Routes the server's traffic over `transport`. With faults planned,
  /// the server's crash windows and every partition window are planted (a
  /// crash also severs every connection, a hard partition the client's
  /// connection), and storage faults reach the log. Call once, before
  /// Start().
  void AttachTransport(TcpServerTransport* transport);

  /// Runs the event loop on the calling thread until Stop()/horizon.
  std::uint64_t RunLoop(sim::Ticks horizon) { return substrate_.Run(horizon); }

  /// See Assembly::FinalizeChecker.
  bool FinalizeChecker() { return nodes_.FinalizeChecker(); }

  server::Server& server() { return *nodes_.server; }
  check::Checker* checker() { return nodes_.checker.get(); }
};

/// A slice of the client population — global ids [client_lo, client_hi) —
/// running on its own RealtimeSubstrate (one loop thread per shard, so a
/// multi-threaded load generator is N shards). The clients, their caches,
/// the workload generator, and the client protocol halves are the same
/// code that runs under the DES substrate; RNG streams are derived from
/// the global client id, so shard boundaries do not change any client's
/// workload.
class ClientShard : public RealNode {
 public:
  ClientShard(const config::ExperimentConfig& config, std::uint64_t seed,
              int client_lo, int client_hi);

  /// Routes the shard's traffic over `transport`, the shard numbered
  /// `index` within its process. With the recovery layer on, the
  /// transport redials a lost connection. With faults planned, the crash
  /// and partition windows of the shard's clients are planted (a hard
  /// partition aborts the connection). Call once, before Start().
  void AttachTransport(TcpClientTransport* transport, int index);

  /// Runs the event loop on the calling thread for `duration` wall ticks,
  /// resetting the stats window after `warmup` ticks.
  std::uint64_t RunLoop(sim::Ticks warmup, sim::Ticks duration);

  int client_lo() const { return client_lo_; }
  int client_hi() const { return client_hi_; }
  /// The shard's clients (harvest only — do not touch while the loop runs).
  const std::vector<std::unique_ptr<client::Client>>& clients() const {
    return nodes_.clients;
  }

 private:
  int client_lo_;
  int client_hi_;
};

}  // namespace ccsim::substrate

#endif  // CCSIM_SUBSTRATE_NODE_H_
