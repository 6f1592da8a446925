#include "substrate/node.h"

#include <string>
#include <utility>

#include "fault/fault_plan.h"
#include "lock/lock_manager.h"
#include "proto/factory.h"
#include "sim/process.h"
#include "sim/random.h"
#include "sim/time.h"
#include "util/macros.h"

namespace ccsim::substrate {
namespace {

/// Storage-fault draws get their own stream (distinct from the wire-fault
/// adapter's kWireFaultStream) so log forces and message faults stay
/// deterministic independently of each other.
constexpr std::uint64_t kStorageFaultStream = 0xFA18;

/// Server crash-restart: replays the log, then marks the server up in
/// `injector` so its traffic flows again.
sim::Process RecoverServer(server::Server* server,
                           fault::FaultInjector* injector) {
  co_await server->Recover();
  injector->SetDown(net::kServerNode, false);
}

}  // namespace

// --- Assembly -------------------------------------------------------------

Assembly::Assembly(sim::Simulator* sim, const config::ExperimentConfig& config,
                   std::uint64_t seed, bool with_server, int lo, int hi,
                   const std::string& where)
    : config(config), layout(config.database, config.system.num_data_disks),
      metrics(sim),
      network(sim, sim::MillisToTicks(config.system.net_delay_ms),
              sim::Pcg32(seed, proto::kNetworkStream)),
      sim_(sim), lo_(lo) {
  CCSIM_CHECK(lo >= 0 && lo <= hi && hi <= config.system.num_clients);
  if (with_server) {
    server = std::make_unique<server::Server>(sim, this->config, &layout,
                                              &network, &metrics, seed);
    server->set_protocol(
        proto::MakeServerProtocol(config.algorithm, server.get()));
  }
  clients.reserve(static_cast<std::size_t>(hi - lo));
  for (int id = lo; id < hi; ++id) {
    clients.push_back(proto::MakeClient(sim, id, this->config, &layout,
                                        &network, &metrics, seed));
  }
  // One checker per run, never shared, so parallel sweeps stay race-free.
  // It never touches the calendar or an RNG stream, so enabling it cannot
  // perturb results, and leaving it off keeps every hook a null branch.
  if (config.checker.enabled && server != nullptr) {
    check::Checker::Options options;
    options.pipelined = config.checker.pipelined;
    options.audit_epoch_commits = config.checker.audit_epoch_commits;
    options.queue_capacity = config.checker.queue_capacity;
    options.oracle.context =
        config::AlgorithmLabel(config.algorithm.algorithm,
                               config.algorithm.caching) +
        where + ", seed " + std::to_string(config.control.seed);
    checker = std::make_unique<check::Checker>(&server->versions(), options);
    checker->set_audit_hook([this] { Audit(); });
    metrics.set_checker(checker.get());
  }
}

client::Client* Assembly::FindClient(int node) const {
  const int index = node - lo_;
  return index >= 0 && index < static_cast<int>(clients.size())
             ? clients[static_cast<std::size_t>(index)].get()
             : nullptr;
}

void Assembly::Audit() const {
  server::Server* srv = server.get();
  srv->directory().AuditStructure();
  if (config.fault.recovery_enabled) {
    // Crash and GC windows legitimately break the liveness predicate
    // below, so resilient runs audit structure only.
    srv->pool().AuditConsistency(nullptr);
    return;
  }
  // Uncommitted buffer frames must belong to live transactions.
  srv->pool().AuditConsistency([srv](std::uint64_t owner) {
    const server::XactState* state = srv->FindXact(owner);
    return state != nullptr && !state->done;
  });
  // Every retained copy a client trusts must be backed by a server-side
  // retained lock (callback locking's core promise; the lease machinery
  // relaxes it under faults). Pages locked by the client's current
  // transaction are in a legitimate transfer window and are skipped. Only
  // the clients on this calendar can be read here.
  for (const auto& c : clients) {
    const int id = c->id();
    c->cache().ForEach([&](db::PageId page, const client::CachedPage& entry) {
      if (!entry.retained || entry.lock != client::PageLock::kNone) {
        return;
      }
      CCSIM_CHECK_MSG(srv->locks().Holds(lock::RetainedOwner(id), page,
                                         lock::LockMode::kShared),
                      "client %d trusts a retained copy of page %d with no "
                      "server-side retained lock",
                      id, page);
    });
  }
}

void Assembly::PlantFaultWindows(const fault::FaultPlan& plan,
                                 fault::FaultInjector* injector,
                                 const FaultHooks& hooks) {
  for (const fault::CrashWindow& crash : plan.crashes) {
    const sim::Ticks up_at = crash.at + crash.downtime;
    if (crash.node == net::kServerNode && server != nullptr) {
      server::Server* srv = server.get();
      sim_->ScheduleAt(crash.at, [srv, injector, hook = hooks.server_crash] {
        injector->SetDown(net::kServerNode, true);
        if (hook) {
          hook();
        }
        srv->Crash();
      });
      sim_->ScheduleAt(up_at, [srv, injector, sim = sim_] {
        sim->Spawn(RecoverServer(srv, injector));
      });
    } else if (client::Client* victim = FindClient(crash.node)) {
      sim_->ScheduleAt(crash.at, [victim, injector] {
        injector->SetDown(victim->id(), true);
        victim->Crash();
      });
      sim_->ScheduleAt(up_at, [victim, injector] {
        injector->SetDown(victim->id(), false);
        victim->Recover();
      });
    }
  }
  // A partition cuts a server link, so a calendar with either end plants it.
  for (const fault::PartitionWindow& part : plan.partitions) {
    if (server == nullptr && FindClient(part.node) == nullptr) {
      continue;
    }
    const int node = part.node;
    const fault::PartitionWindow::Direction dir = part.direction;
    sim_->ScheduleAt(part.at, [injector, sever = hooks.hard_partition, node,
                               dir, hard = part.hard] {
      injector->SetPartitioned(node, dir, true);
      if (hard && sever) {
        sever(node);
      }
    });
    sim_->ScheduleAt(part.at + part.duration, [injector, node, dir] {
      injector->SetPartitioned(node, dir, false);
    });
  }
}

void Assembly::Start() {
  if (server != nullptr) {
    server->Start();
  }
  for (auto& c : clients) {
    c->Start();
  }
}

bool Assembly::FinalizeChecker() {
  if (checker == nullptr) {
    return false;
  }
  checker->Finish();
  checker->oracle().Finalize(metrics.unknown_outcomes());
  return true;
}

config::ExperimentConfig RawSpeedConfig(config::ExperimentConfig config) {
  config.system.net_delay_ms = 0.0;
  config.system.msg_cost_instr = 0.0;
  config.system.seek_low_ms = 0.0;
  config.system.seek_high_ms = 0.0;
  config.system.disk_transfer_ms = 0.0;
  config.system.init_disk_cost_instr = 0.0;
  config.system.server_proc_page_instr = 0.0;
  config.system.client_proc_page_instr = 0.0;
  return config;
}

Hello MakeHello(const config::ExperimentConfig& config) {
  Hello hello;
  hello.algorithm = static_cast<std::uint8_t>(config.algorithm.algorithm);
  hello.caching = static_cast<std::uint8_t>(config.algorithm.caching);
  hello.total_pages = config.database.TotalPages();
  hello.num_clients = config.system.num_clients;
  hello.page_payload_bytes =
      static_cast<std::uint32_t>(config.system.page_size_bytes);
  return hello;
}

// --- RealNode -------------------------------------------------------------

RealNode::RealNode(const config::ExperimentConfig& config, std::uint64_t seed,
                   bool with_server, int lo, int hi, const std::string& where)
    : seed_(seed), substrate_(&sim_),
      nodes_(&sim_, config, seed, with_server, lo, hi, where) {}

void RealNode::Route(net::Transport* transport, std::uint64_t seed,
                     const FaultHooks& hooks) {
  const fault::FaultPlan plan = fault::MakePlan(nodes_.config.fault);
  if (plan.AnyWireFaults()) {
    adapter_ = std::make_unique<WireFaultAdapter>(plan, seed, &substrate_,
                                                  transport);
    WireFaultAdapter* ad = adapter_.get();
    InstallInboundFilter(
        [ad](const net::Message& msg) { return ad->AllowInbound(msg); });
    nodes_.PlantFaultWindows(plan, &ad->injector(), hooks);
    transport = ad;
  }
  nodes_.network.set_transport(transport);
  substrate_.set_flush_hook([transport] { return transport->Flush(); });
}

// --- ServerNode -----------------------------------------------------------

ServerNode::ServerNode(const config::ExperimentConfig& config,
                       std::uint64_t seed)
    : RealNode(config, seed, /*with_server=*/true, 0, 0,
               " (real substrate)") {
  fault::FaultPlan plan = fault::MakePlan(config.fault);
  if (plan.storage.Any()) {
    // Torn writes / bit flips happen inside log forces, which run on this
    // node's loop thread only — a plain injector is safe here.
    storage_injector_ = std::make_unique<fault::FaultInjector>(
        std::move(plan), sim::Pcg32(seed, kStorageFaultStream));
    nodes_.server->log().set_fault_injector(storage_injector_.get());
  }
  InstallInboundFilter(nullptr);
}

void ServerNode::AttachTransport(TcpServerTransport* transport) {
  // A real crash takes the TCP endpoints with it: sever every connection
  // so clients see RSTs and ride their reconnect path.
  Route(transport, seed_,
        {[transport] { transport->SeverAll(); },
         [transport](int node) { transport->SeverClient(node); }});
}

void ServerNode::InstallInboundFilter(
    std::function<bool(const net::Message&)> filter) {
  server::Server* srv = nodes_.server.get();
  substrate_.set_message_sink(
      [srv, filter = std::move(filter)](net::MessagePtr msg) {
        if (!filter || filter(*msg)) {
          srv->inbox().Push(std::move(msg));
        }
      });
}

// --- ClientShard ----------------------------------------------------------

ClientShard::ClientShard(const config::ExperimentConfig& config,
                         std::uint64_t seed, int client_lo, int client_hi)
    : RealNode(config, seed, /*with_server=*/false, client_lo, client_hi,
               ""),
      client_lo_(client_lo), client_hi_(client_hi) {
  InstallInboundFilter(nullptr);
}

void ClientShard::AttachTransport(TcpClientTransport* transport,
                                  int index) {
  if (nodes_.config.fault.recovery_enabled) {
    // A server crash or a hard partition kills this shard's connection;
    // the loop redials so the clients' RPC retries land after it.
    transport->EnableReconnect();
  }
  // The shard's loop epoch starts a connection-setup interval after the
  // server's, so mirrored partition windows land within scheduling noise
  // of the server's copies. A crashed client needs no wire action: the
  // adapter drops its traffic both ways while it is down.
  Route(transport, seed_ + 1 + static_cast<std::uint64_t>(index),
        {nullptr, [transport](int) { transport->AbortConnection(); }});
}

void ClientShard::InstallInboundFilter(
    std::function<bool(const net::Message&)> filter) {
  auto* clients = &nodes_.clients;
  const int lo = client_lo_;
  const int hi = client_hi_;
  substrate_.set_message_sink(
      [clients, lo, hi, filter = std::move(filter)](net::MessagePtr msg) {
        // A stray frame from a confused peer is not ours.
        if (msg->dst < lo || msg->dst >= hi || (filter && !filter(*msg))) {
          return;
        }
        const std::size_t index = static_cast<std::size_t>(msg->dst - lo);
        (*clients)[index]->inbox().Push(std::move(msg));
      });
}

std::uint64_t ClientShard::RunLoop(sim::Ticks warmup, sim::Ticks duration) {
  if (warmup > 0) {
    runner::Metrics* metrics = &nodes_.metrics;
    sim_.ScheduleAt(warmup, [metrics] { metrics->ResetWindow(); });
  }
  return substrate_.Run(warmup + duration);
}

}  // namespace ccsim::substrate
