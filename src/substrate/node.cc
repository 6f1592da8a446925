#include "substrate/node.h"

#include <string>
#include <utility>

#include "fault/fault_plan.h"
#include "proto/factory.h"
#include "sim/random.h"
#include "sim/time.h"
#include "util/macros.h"

namespace ccsim::substrate {
namespace {

/// Storage-fault draws get their own stream (distinct from the wire-fault
/// adapter's kWireFaultStream) so log forces and message faults stay
/// deterministic independently of each other.
constexpr std::uint64_t kStorageFaultStream = 0xFA18;

/// Routes a node's traffic over `transport`, through a new WireFaultAdapter
/// seeded `seed` when `plan` has wire faults. Returns that adapter, or
/// null on a fault-free wire (which keeps the bare transport and sink).
template <typename Node>
std::unique_ptr<WireFaultAdapter> Route(Node* node, net::Transport* transport,
                                        const fault::FaultPlan& plan,
                                        std::uint64_t seed) {
  std::unique_ptr<WireFaultAdapter> adapter;
  if (plan.AnyWireFaults()) {
    adapter = std::make_unique<WireFaultAdapter>(plan, seed,
                                                 &node->substrate(), transport);
    WireFaultAdapter* ad = adapter.get();
    node->InstallInboundFilter(
        [ad](const net::Message& msg) { return ad->AllowInbound(msg); });
    transport = ad;
  }
  node->network().set_transport(transport);
  node->substrate().set_flush_hook([transport] { return transport->Flush(); });
  return adapter;
}

}  // namespace

sim::Process RecoverServer(server::Server* server,
                           fault::FaultInjector* injector) {
  co_await server->Recover();
  injector->SetDown(net::kServerNode, false);
}

std::unique_ptr<check::Checker> MakeChecker(
    const config::ExperimentConfig& config, server::Server* server,
    const std::string& where) {
  check::Checker::Options options;
  options.pipelined = config.checker.pipelined;
  options.audit_epoch_commits = config.checker.audit_epoch_commits;
  options.queue_capacity = config.checker.queue_capacity;
  options.oracle.context =
      config::AlgorithmLabel(config.algorithm.algorithm,
                             config.algorithm.caching) +
      where + ", seed " + std::to_string(config.control.seed);
  return std::make_unique<check::Checker>(&server->versions(), options);
}

void PlantPartitions(const fault::FaultPlan& plan, int lo, int hi,
                     sim::Simulator* sim, fault::FaultInjector* injector,
                     const std::function<void(int)>& sever) {
  for (const fault::PartitionWindow& part : plan.partitions) {
    if (part.node < lo || part.node >= hi) {
      continue;
    }
    const int node = part.node;
    const fault::PartitionWindow::Direction dir = part.direction;
    sim->ScheduleAt(part.at, [injector, sever, node, dir, hard = part.hard] {
      injector->SetPartitioned(node, dir, true);
      if (hard) {
        sever(node);
      }
    });
    sim->ScheduleAt(part.at + part.duration, [injector, node, dir] {
      injector->SetPartitioned(node, dir, false);
    });
  }
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

// --- ServerNode -----------------------------------------------------------

ServerNode::ServerNode(const config::ExperimentConfig& config,
                       std::uint64_t seed)
    : config_(config), seed_(seed), substrate_(&sim_),
      layout_(config_.database, config_.system.num_data_disks),
      metrics_(&sim_),
      network_(&sim_, sim::MillisToTicks(config_.system.net_delay_ms),
               sim::Pcg32(seed, proto::kNetworkStream)) {
  server_ = std::make_unique<server::Server>(&sim_, config_, &layout_,
                                             &network_, &metrics_, seed);
  server_->set_protocol(
      proto::MakeServerProtocol(config_.algorithm, server_.get()));
  if (config_.checker.enabled) {
    checker_ = MakeChecker(config_, server_.get(), " (real substrate)");
    // Server-side structural audits only: the clients live in other
    // processes (or other shards' loop threads), so the cross-node
    // retained-lock check of the DES harness is out of reach here.
    server::Server* srv = server_.get();
    checker_->set_audit_hook([srv] {
      srv->directory().AuditStructure();
      srv->pool().AuditConsistency([srv](std::uint64_t owner) {
        const server::XactState* state = srv->FindXact(owner);
        return state != nullptr && !state->done;
      });
    });
    metrics_.set_checker(checker_.get());
  }
  fault::FaultPlan plan = fault::MakePlan(config_.fault);
  if (plan.storage.Any()) {
    // Torn writes / bit flips happen inside log forces, which run on this
    // node's loop thread only — a plain injector is safe here.
    storage_injector_ = std::make_unique<fault::FaultInjector>(
        std::move(plan), sim::Pcg32(seed, kStorageFaultStream));
    server_->log().set_fault_injector(storage_injector_.get());
  }
  InstallInboundFilter(nullptr);
}

ServerNode::~ServerNode() {
  // Destroy still-suspended coroutine frames while the model objects they
  // reference are alive (same discipline as the DES harness).
  sim_.Shutdown();
}

void ServerNode::AttachTransport(TcpServerTransport* transport) {
  const fault::FaultPlan plan = fault::MakePlan(config_.fault);
  adapter_ = Route(this, transport, plan, seed_);
  if (adapter_ == nullptr) {
    return;
  }
  sim::Simulator* sim = &sim_;
  server::Server* srv = server_.get();
  fault::FaultInjector* inj = &adapter_->injector();
  for (const fault::CrashWindow& crash : plan.crashes) {
    sim_.ScheduleAt(crash.at, [inj, transport, srv] {
      inj->SetDown(net::kServerNode, true);
      // A real crash takes the TCP endpoints with it: sever every
      // connection so clients see RSTs and ride their reconnect path.
      transport->SeverAll();
      srv->Crash();
    });
    sim_.ScheduleAt(crash.at + crash.downtime, [sim, srv, inj] {
      sim->Spawn(RecoverServer(srv, inj));
    });
  }
  PlantPartitions(plan, 0, config_.system.num_clients, sim, inj,
                  [transport](int node) { transport->SeverClient(node); });
}

void ServerNode::Start() { server_->Start(); }

runner::NodeSources ServerNode::counter_sources() {
  return {&metrics_, server_.get(), &network_,
          adapter_ != nullptr ? &adapter_->injector() : nullptr,
          checker_.get()};
}

std::uint64_t ServerNode::RunLoop(sim::Ticks horizon) {
  return substrate_.Run(horizon);
}

void ServerNode::InstallInboundFilter(
    std::function<bool(const net::Message&)> filter) {
  server::Server* srv = server_.get();
  substrate_.set_message_sink(
      [srv, filter = std::move(filter)](net::Message&& msg) {
        if (!filter || filter(msg)) {
          srv->inbox().Push(std::make_unique<net::Message>(std::move(msg)));
        }
      });
}

bool ServerNode::FinalizeChecker() {
  if (checker_ == nullptr) {
    return false;
  }
  checker_->Finish();
  checker_->oracle().Finalize(metrics_.unknown_outcomes());
  return true;
}

// --- ClientShard ----------------------------------------------------------

ClientShard::ClientShard(const config::ExperimentConfig& config,
                         std::uint64_t seed, int client_lo, int client_hi)
    : config_(config), seed_(seed), client_lo_(client_lo),
      client_hi_(client_hi),
      substrate_(&sim_),
      layout_(config_.database, config_.system.num_data_disks),
      metrics_(&sim_),
      network_(&sim_, sim::MillisToTicks(config_.system.net_delay_ms),
               sim::Pcg32(seed, proto::kNetworkStream)) {
  CCSIM_CHECK(client_lo >= 0 && client_lo < client_hi &&
              client_hi <= config_.system.num_clients);
  clients_.reserve(static_cast<std::size_t>(client_hi - client_lo));
  for (int id = client_lo; id < client_hi; ++id) {
    clients_.push_back(proto::MakeClient(&sim_, id, config_, &layout_,
                                         &network_, &metrics_, seed));
  }
  InstallInboundFilter(nullptr);
}

ClientShard::~ClientShard() { sim_.Shutdown(); }

void ClientShard::AttachTransport(TcpClientTransport* transport,
                                  int index) {
  if (config_.fault.recovery_enabled) {
    // A server crash or a hard partition kills this shard's connection;
    // the reader redials so the clients' RPC retries land after it.
    transport->EnableReconnect();
  }
  const fault::FaultPlan plan = fault::MakePlan(config_.fault);
  adapter_ = Route(this, transport, plan,
                   seed_ + 1 + static_cast<std::uint64_t>(index));
  if (adapter_ == nullptr) {
    return;
  }
  // The shard's loop epoch starts a connection-setup interval after the
  // server's, so mirrored windows land within scheduling noise of the
  // server's copies.
  PlantPartitions(plan, client_lo_, client_hi_, &sim_, &adapter_->injector(),
                  [transport](int) { transport->AbortConnection(); });
}

runner::NodeSources ClientShard::counter_sources() {
  return {&metrics_, nullptr, &network_,
          adapter_ != nullptr ? &adapter_->injector() : nullptr, nullptr};
}

void ClientShard::Start() {
  for (auto& c : clients_) {
    c->Start();
  }
}

void ClientShard::InstallInboundFilter(
    std::function<bool(const net::Message&)> filter) {
  auto* clients = &clients_;
  const int lo = client_lo_;
  const int hi = client_hi_;
  substrate_.set_message_sink(
      [clients, lo, hi, filter = std::move(filter)](net::Message&& msg) {
        // A stray frame from a confused peer is not ours.
        if (msg.dst < lo || msg.dst >= hi || (filter && !filter(msg))) {
          return;
        }
        (*clients)[static_cast<std::size_t>(msg.dst - lo)]->inbox().Push(
            std::make_unique<net::Message>(std::move(msg)));
      });
}

std::uint64_t ClientShard::RunLoop(sim::Ticks warmup, sim::Ticks duration) {
  if (warmup > 0) {
    runner::Metrics* metrics = &metrics_;
    sim_.ScheduleAt(warmup, [metrics] { metrics->ResetWindow(); });
  }
  return substrate_.Run(warmup + duration);
}

}  // namespace ccsim::substrate
