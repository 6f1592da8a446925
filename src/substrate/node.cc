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
    options.audit_epoch_commits = config.checker.audit_epoch_commits;
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
  srv->protocol().AuditStructure();
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
  // the clients on this calendar can be read here. The other protocols
  // retain no copies; the attempt-end cache audit holds them to that.
  if (config.algorithm.algorithm != config::Algorithm::kCallbackLocking) {
    return;
  }
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

void Assembly::InjectFaults(std::uint64_t fault_seed,
                            const FaultHooks& hooks) {
  if (!config.fault.AnyFaults()) {
    return;
  }
  CCSIM_CHECK_MSG(injector == nullptr, "faults injected twice");
  fault::FaultPlan plan = fault::MakePlan(config.fault);
  injector = std::make_unique<fault::FaultInjector>(
      plan, sim::Pcg32(fault_seed, fault::kFaultStream));
  network.set_fault_injector(injector.get());
  if (server != nullptr) {
    server->log().set_fault_injector(injector.get());
  }
  PlantFaultWindows(plan, hooks);
}

void Assembly::PlantFaultWindows(const fault::FaultPlan& plan,
                                 const FaultHooks& hooks) {
  fault::FaultInjector* injector = this->injector.get();
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
  checker->oracle().Finalize(metrics.unknown_outcomes());
  return true;
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
      nodes_(&sim_, config, seed, with_server, lo, hi, where) {
  InstallInboundFilter(nullptr);
}

void RealNode::InstallInboundFilter(
    std::function<bool(const net::Message&)> filter) {
  net::Network* network = &nodes_.network;
  substrate_.set_message_sink(
      [network, filter = std::move(filter)](net::MessagePtr msg) {
        if (!filter || filter(*msg)) {
          network->Receive(std::move(msg));
        }
      });
}

void RealNode::Route(net::Transport* transport, std::uint64_t fault_seed,
                     const FaultHooks& hooks) {
  nodes_.InjectFaults(fault_seed, hooks);
  nodes_.network.set_transport(transport);
  substrate_.set_flush_hook([transport] { return transport->Flush(); });
}

// --- ServerNode -----------------------------------------------------------

ServerNode::ServerNode(const config::ExperimentConfig& config,
                       std::uint64_t seed)
    : RealNode(config, seed, /*with_server=*/true, 0, 0,
               " (real substrate)") {}

void ServerNode::AttachTransport(TcpServerTransport* transport) {
  // A real crash takes the TCP endpoints with it: sever every connection
  // so clients see RSTs and ride their reconnect path.
  Route(transport, seed_,
        {[transport] { transport->SeverAll(); },
         [transport](int node) { transport->SeverClient(node); }});
}

// --- ClientShard ----------------------------------------------------------

ClientShard::ClientShard(const config::ExperimentConfig& config,
                         std::uint64_t seed, int client_lo, int client_hi)
    : RealNode(config, seed, /*with_server=*/false, client_lo, client_hi,
               ""),
      client_lo_(client_lo), client_hi_(client_hi) {}

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
  // shard's network drops its traffic both ways while it is down.
  Route(transport, seed_ + 1 + static_cast<std::uint64_t>(index),
        {nullptr, [transport](int) { transport->AbortConnection(); }});
}

std::uint64_t ClientShard::RunLoop(sim::Ticks warmup, sim::Ticks duration) {
  if (warmup > 0) {
    runner::Metrics* metrics = &nodes_.metrics;
    sim_.ScheduleAt(warmup, [metrics] { metrics->ResetWindow(); });
  }
  return substrate_.Run(warmup + duration);
}

}  // namespace ccsim::substrate
