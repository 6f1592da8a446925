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
#include "sim/process.h"
#include "sim/simulator.h"
#include "substrate/faulty_transport.h"
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

/// The consistency checker of a run of `config` on `server`, options from
/// config.checker; violation reports name the algorithm, `where` and the
/// seed. The caller installs the audit hook.
std::unique_ptr<check::Checker> MakeChecker(
    const config::ExperimentConfig& config, server::Server* server,
    const std::string& where);

/// Server crash-restart: replays the log, then marks the server up in
/// `injector` so its traffic flows again.
sim::Process RecoverServer(server::Server* server,
                           fault::FaultInjector* injector);

/// Plants the partition windows of clients [lo, hi) in `plan` on `sim`,
/// cutting and healing the link in `injector`; a hard window also calls
/// `sever(node)` at its start. Plan ticks are simulated time on the DES
/// and wall µs since the loop epoch on the real substrate, so there this
/// runs before the loop thread starts.
void PlantPartitions(const fault::FaultPlan& plan, int lo, int hi,
                     sim::Simulator* sim, fault::FaultInjector* injector,
                     const std::function<void(int)>& sever);

/// A real page server: the unchanged server::Server (buffer pool, lock
/// manager, log, directory, protocol) running on a RealtimeSubstrate, with
/// inbound messages injected from the TCP transport. One instance per
/// ccserve process (or per in-process loopback experiment).
class ServerNode {
 public:
  ServerNode(const config::ExperimentConfig& config, std::uint64_t seed);
  ~ServerNode();

  ServerNode(const ServerNode&) = delete;
  ServerNode& operator=(const ServerNode&) = delete;

  /// Routes the server's traffic over `transport`. When the config's
  /// fault plan has wire faults, a WireFaultAdapter is interposed on both
  /// directions and the plan's windows are planted on the calendar: a
  /// crash severs every connection and replays the log at restart, a hard
  /// partition severs the client's connection. Fault-free runs keep the
  /// bare transport and inbox sink. Call once, before Start().
  void AttachTransport(TcpServerTransport* transport);

  /// Spawns the server's dispatcher process. Call after installing the
  /// transport (AttachTransport, or by hand on network()).
  void Start();

  /// Runs the event loop on the calling thread until Stop()/horizon.
  std::uint64_t RunLoop(sim::Ticks horizon);

  /// Joins the checker's verification thread and finalizes the oracle
  /// (call once, after the loop has stopped). Returns false if no checker.
  bool FinalizeChecker();

  /// Interposes `filter` between the transport and the server's inbox:
  /// messages for which it returns false are discarded. Used by the wire
  /// fault adapter to enforce crash/partition windows on inbound traffic;
  /// a null filter (the default) admits everything. Call before the loop
  /// starts; the filter runs on the loop thread.
  void InstallInboundFilter(std::function<bool(const net::Message&)> filter);

  RealtimeSubstrate& substrate() { return substrate_; }
  net::Network& network() { return network_; }
  server::Server& server() { return *server_; }
  runner::Metrics& metrics() { return metrics_; }
  check::Checker* checker() { return checker_.get(); }
  /// Everything this node counts, for runner::AddNodeCounters.
  runner::NodeSources counter_sources();

 private:
  config::ExperimentConfig config_;
  std::uint64_t seed_;
  sim::Simulator sim_;
  RealtimeSubstrate substrate_;
  db::DatabaseLayout layout_;
  runner::Metrics metrics_;
  net::Network network_;
  std::unique_ptr<check::Checker> checker_;
  std::unique_ptr<server::Server> server_;
  std::unique_ptr<fault::FaultInjector> storage_injector_;
  std::unique_ptr<WireFaultAdapter> adapter_;
};

/// A slice of the client population — global ids [client_lo, client_hi) —
/// running on its own RealtimeSubstrate (one loop thread per shard, so a
/// multi-threaded load generator is N shards). The clients, their caches,
/// the workload generator, and the client protocol halves are the same
/// code that runs under the DES substrate; RNG streams are derived from
/// the global client id, so shard boundaries do not change any client's
/// workload.
class ClientShard {
 public:
  ClientShard(const config::ExperimentConfig& config, std::uint64_t seed,
              int client_lo, int client_hi);
  ~ClientShard();

  ClientShard(const ClientShard&) = delete;
  ClientShard& operator=(const ClientShard&) = delete;

  /// Routes the shard's traffic over `transport`, the shard numbered
  /// `index` within its process. With the recovery layer on, the
  /// transport redials a lost connection. When the fault plan has wire
  /// faults, a WireFaultAdapter is interposed on both directions and the
  /// partition windows of the clients this shard owns are planted on its
  /// calendar (a hard one aborts the connection). Call once, before
  /// Start().
  void AttachTransport(TcpClientTransport* transport, int index);

  /// Spawns every client's driver/dispatcher. Call after installing the
  /// transport (AttachTransport, or by hand on network()).
  void Start();

  /// Runs the event loop on the calling thread for `duration` wall ticks,
  /// resetting the stats window after `warmup` ticks.
  std::uint64_t RunLoop(sim::Ticks warmup, sim::Ticks duration);

  /// Same as ServerNode::InstallInboundFilter, for the shard's clients.
  void InstallInboundFilter(std::function<bool(const net::Message&)> filter);

  int client_lo() const { return client_lo_; }
  int client_hi() const { return client_hi_; }
  RealtimeSubstrate& substrate() { return substrate_; }
  net::Network& network() { return network_; }
  runner::Metrics& metrics() { return metrics_; }
  /// The shard's clients (harvest only — do not touch while the loop runs).
  const std::vector<std::unique_ptr<client::Client>>& clients() const {
    return clients_;
  }
  /// Everything this shard counts, for runner::AddNodeCounters.
  runner::NodeSources counter_sources();

 private:
  config::ExperimentConfig config_;
  std::uint64_t seed_;
  int client_lo_;
  int client_hi_;
  sim::Simulator sim_;
  RealtimeSubstrate substrate_;
  db::DatabaseLayout layout_;
  runner::Metrics metrics_;
  net::Network network_;
  std::vector<std::unique_ptr<client::Client>> clients_;
  std::unique_ptr<WireFaultAdapter> adapter_;
};

}  // namespace ccsim::substrate

#endif  // CCSIM_SUBSTRATE_NODE_H_
