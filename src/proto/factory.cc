#include "proto/factory.h"

#include "proto/callback.h"
#include "proto/certification.h"
#include "proto/no_wait.h"
#include "proto/two_phase.h"
#include "util/macros.h"

namespace ccsim::proto {
namespace {

/// Per-client RNG stream bases, distinct per component so that changing
/// one knob does not perturb unrelated variate sequences across runs.
constexpr std::uint64_t kClientObjectStreamBase = 0x1000;
constexpr std::uint64_t kClientDelayStreamBase = 0x20000;
constexpr std::uint64_t kClientJitterStreamBase = 0x30000;

}  // namespace

std::unique_ptr<client::Client> MakeClient(
    sim::Simulator* sim, int id, const config::ExperimentConfig& config,
    const db::DatabaseLayout* layout, net::Network* network,
    runner::Metrics* metrics, std::uint64_t seed) {
  const std::uint64_t stream = static_cast<std::uint64_t>(id);
  auto c = std::make_unique<client::Client>(
      sim, id, config, layout, network, metrics,
      sim::Pcg32(seed, kClientObjectStreamBase + stream),
      sim::Pcg32(seed, kClientDelayStreamBase + stream),
      sim::Pcg32(seed, kClientJitterStreamBase + stream));
  c->set_protocol(MakeClientProtocol(config.algorithm, c.get()));
  return c;
}

std::unique_ptr<ClientProtocol> MakeClientProtocol(
    const config::AlgorithmParams& params, client::Client* client) {
  switch (params.algorithm) {
    case config::Algorithm::kTwoPhaseLocking:
      return std::make_unique<TwoPhaseClient>(client, params.caching);
    case config::Algorithm::kCertification:
      return std::make_unique<CertificationClient>(client, params.caching);
    case config::Algorithm::kCallbackLocking:
      return std::make_unique<CallbackClient>(client,
                                              params.retain_write_locks,
                                              params.explicit_evict_notices);
    case config::Algorithm::kNoWaitLocking:
    case config::Algorithm::kNoWaitNotify:
      return std::make_unique<NoWaitClient>(client);
  }
  CCSIM_UNREACHABLE();
}

std::unique_ptr<ServerProtocol> MakeServerProtocol(
    const config::AlgorithmParams& params, server::Server* server) {
  switch (params.algorithm) {
    case config::Algorithm::kTwoPhaseLocking:
      return std::make_unique<TwoPhaseServer>(server);
    case config::Algorithm::kCertification:
      return std::make_unique<CertificationServer>(
          server, params.test_skip_validation);
    case config::Algorithm::kCallbackLocking:
      return std::make_unique<CallbackServer>(server,
                                              params.retain_write_locks);
    case config::Algorithm::kNoWaitLocking:
      return std::make_unique<NoWaitServer>(server, /*notify=*/false,
                                            /*notify_invalidate=*/false,
                                            /*notify_broadcast=*/false);
    case config::Algorithm::kNoWaitNotify:
      return std::make_unique<NoWaitServer>(server, /*notify=*/true,
                                            params.notify_invalidate,
                                            params.notify_broadcast);
  }
  CCSIM_UNREACHABLE();
}

}  // namespace ccsim::proto
