#include "runner/real_experiment.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/checker.h"
#include "client/client.h"
#include "runner/metrics.h"
#include "server/server.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "substrate/node.h"
#include "substrate/tcp.h"

namespace ccsim::runner {
namespace {

/// Effectively-infinite loop horizon for the server node (it stops via
/// RealtimeSubstrate::Stop, not by running out of wall clock).
constexpr sim::Ticks kForever = std::numeric_limits<sim::Ticks>::max() / 4;

}  // namespace

Result<RunResult> RunRealExperiment(config::ExperimentConfig config,
                                    const RealRunOptions& options) {
  CCSIM_RETURN_NOT_OK(config.Validate());
  if (options.duration_seconds <= 0) {
    return Status::InvalidArgument("real run duration must be positive");
  }
  if (options.raw_speed) {
    config = substrate::RawSpeedConfig(config);
  }

  // --- server node -------------------------------------------------------
  substrate::ServerNode server_node(config, config.control.seed);
  std::string error;
  auto server_transport = substrate::TcpServerTransport::Listen(
      options.port, substrate::MakeHello(config), &server_node.substrate(),
      &error);
  if (server_transport == nullptr) {
    return Status::Internal("real substrate: " + error);
  }
  server_node.AttachTransport(server_transport.get());
  server_node.Start();
  std::uint64_t server_events = 0;
  std::thread server_thread([&server_node, &server_events] {
    server_events = server_node.RunLoop(kForever);
  });
  // From here on the server loop must be stopped before any return path.
  auto stop_server = [&] {
    server_node.substrate().Stop();
    server_thread.join();
    server_transport->Close();
  };

  // --- client shards -----------------------------------------------------
  ShardSet load;
  if (const Status status =
          ConnectShards(config, "127.0.0.1", server_transport->port(), 0,
                        config.system.num_clients, options.shards, &load);
      !status.ok()) {
    load.transports.clear();  // close established connections first
    stop_server();
    return Status::Internal("real substrate: " + status.message());
  }

  // --- run ---------------------------------------------------------------
  // Shard transports close before the server stops: the shards' sockets
  // first (their loops have returned), then the server.
  const auto wall_begin = std::chrono::steady_clock::now();
  const std::uint64_t shard_events =
      RunShards(&load, options.warmup_seconds, options.duration_seconds);
  stop_server();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_begin)
          .count();
  server_node.FinalizeChecker();

  RunResult result = HarvestRealRun(&server_node, load,
                                    options.duration_seconds);
  result.wall_seconds = wall_seconds;
  result.events_processed = server_events + shard_events;
  result.events_per_second =
      wall_seconds > 0
          ? static_cast<double>(result.events_processed) / wall_seconds
          : 0.0;
  return result;
}

Status ConnectShards(const config::ExperimentConfig& config,
                     const std::string& host, int port, int lo, int hi,
                     int count, ShardSet* out) {
  const int driven = hi - lo;
  if (count <= 0) {
    count = std::max(2, (driven + 7) / 8);
  }
  count = std::min(count, driven);
  const substrate::Hello hello = substrate::MakeHello(config);
  for (int s = 0; s < count; ++s) {
    auto shard = std::make_unique<substrate::ClientShard>(
        config, config.control.seed, lo + driven * s / count,
        lo + driven * (s + 1) / count);
    substrate::Hello shard_hello = hello;
    shard_hello.client_lo = shard->client_lo();
    shard_hello.client_hi = shard->client_hi();
    std::string error;
    auto transport = substrate::TcpClientTransport::Connect(
        host, port, shard_hello, &shard->substrate(), &error);
    if (transport == nullptr) {
      return Status::Internal(error);
    }
    shard->AttachTransport(transport.get(), s);
    shard->Start();
    out->shards.push_back(std::move(shard));
    out->transports.push_back(std::move(transport));
  }
  return Status::OK();
}

std::uint64_t RunShards(ShardSet* set, double warmup_seconds,
                        double duration_seconds) {
  const sim::Ticks warmup = sim::SecondsToTicks(warmup_seconds);
  const sim::Ticks duration = sim::SecondsToTicks(duration_seconds);
  std::vector<std::uint64_t> events(set->shards.size(), 0);
  std::vector<std::thread> loops;
  for (std::size_t s = 0; s < set->shards.size(); ++s) {
    substrate::ClientShard* shard = set->shards[s].get();
    std::uint64_t* out = &events[s];
    loops.emplace_back([shard, out, warmup, duration] {
      *out = shard->RunLoop(warmup, duration);
    });
  }
  for (std::thread& t : loops) {
    t.join();
  }
  for (auto& transport : set->transports) {
    transport->Close();
  }
  std::uint64_t total = 0;
  for (std::uint64_t e : events) {
    total += e;
  }
  return total;
}

RunResult HarvestRealRun(substrate::ServerNode* server, const ShardSet& load,
                         double duration_seconds) {
  RunResult result;
  LatencyHistogram histogram;
  double response_weighted = 0.0;
  double attempts_weighted = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::vector<std::pair<double, std::uint64_t>> per_type;
  for (const auto& shard : load.shards) {
    AddNodeCounters(shard->counter_sources(), &result);
    const Metrics& m = shard->metrics();
    histogram.Merge(m.response_histogram());
    response_weighted +=
        m.response_s().mean() * static_cast<double>(m.response_s().count());
    attempts_weighted += m.attempts_per_commit().mean() *
                         static_cast<double>(m.attempts_per_commit().count());
    const auto& types = m.per_type_response_s();
    if (types.size() > per_type.size()) {
      per_type.resize(types.size());
    }
    for (std::size_t i = 0; i < types.size(); ++i) {
      per_type[i].first += types[i].mean() *
                           static_cast<double>(types[i].count());
      per_type[i].second += types[i].count();
    }
    for (const auto& c : shard->clients()) {
      cache_hits += c->cache().hits();
      cache_misses += c->cache().misses();
    }
  }
  if (server != nullptr) {
    // Every event is recorded on exactly one node, so summing the server's
    // counters with the shards' double-counts nothing.
    AddNodeCounters(server->counter_sources(), &result);
    result.oracle_enabled = server->checker() != nullptr;
    result.server_buffer_hit_ratio = server->server().pool().HitRatio();
  }
  result.measured_seconds = duration_seconds;
  if (result.commits > 0) {
    result.mean_response_s =
        response_weighted / static_cast<double>(result.commits);
    result.mean_attempts_per_commit =
        attempts_weighted / static_cast<double>(result.commits);
  }
  for (auto& [weighted_mean, count] : per_type) {
    result.per_type_response.emplace_back(
        count > 0 ? weighted_mean / static_cast<double>(count) : 0.0, count);
  }
  result.response_p50_s = histogram.Quantile(0.50);
  result.response_p90_s = histogram.Quantile(0.90);
  result.response_p99_s = histogram.Quantile(0.99);
  result.client_hit_ratio = HitRatio(cache_hits, cache_misses);
  FinishCounters(&result);
  return result;
}

}  // namespace ccsim::runner
