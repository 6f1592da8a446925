#ifndef CCSIM_PROTO_FACTORY_H_
#define CCSIM_PROTO_FACTORY_H_

#include <cstdint>
#include <memory>

#include "client/client.h"
#include "config/params.h"
#include "proto/protocol.h"

namespace ccsim::proto {

/// Builds the client half of the configured consistency algorithm.
std::unique_ptr<ClientProtocol> MakeClientProtocol(
    const config::AlgorithmParams& params, client::Client* client);

/// Builds the server half of the configured consistency algorithm.
std::unique_ptr<ServerProtocol> MakeServerProtocol(
    const config::AlgorithmParams& params, server::Server* server);

/// RNG stream of the Network's delay draws, the same on both substrates.
inline constexpr std::uint64_t kNetworkStream = 0x7e7;

/// Builds client `id` running the configured algorithm. Its RNG streams
/// are keyed by the global client id, so its workload is the same variate
/// sequence on either substrate and under any shard boundaries.
std::unique_ptr<client::Client> MakeClient(
    sim::Simulator* sim, int id, const config::ExperimentConfig& config,
    const db::DatabaseLayout* layout, net::Network* network,
    runner::Metrics* metrics, std::uint64_t seed);

}  // namespace ccsim::proto

#endif  // CCSIM_PROTO_FACTORY_H_
