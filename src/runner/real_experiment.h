#ifndef CCSIM_RUNNER_REAL_EXPERIMENT_H_
#define CCSIM_RUNNER_REAL_EXPERIMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "config/params.h"
#include "runner/experiment.h"
#include "substrate/node.h"
#include "util/status.h"

namespace ccsim::runner {

/// Options for a real-substrate (threads + TCP loopback) run. Real runs
/// are paced by the wall clock, so the measurement is duration-based:
/// `control.target_commits` and `control.max_measure_seconds` do not
/// apply; `control.warmup_seconds` is replaced by `warmup_seconds` here.
struct RealRunOptions {
  /// Wall seconds before the stats window resets.
  double warmup_seconds = 1.0;
  /// Wall seconds of measurement after warmup.
  double duration_seconds = 5.0;
  /// Load-generator shards (event-loop threads). 0 = one shard per 8
  /// clients, at least 2 so cross-thread interleaving is exercised.
  int shards = 0;
  /// Server TCP port (0 = ephemeral loopback).
  int port = 0;
  /// Strip simulated hardware costs (substrate::RawSpeedConfig): real wire,
  /// in-memory page store. False keeps the modeled CPU/disk charges as
  /// wall-clock pacing (a real-time emulation of the paper's hardware).
  bool raw_speed = true;
};

/// Runs `config` on the real substrate, in-process: a ServerNode plus N
/// ClientShards connected over TCP loopback, every node on its own
/// thread. Returns the same RunResult the DES runner produces, with
/// wall-clock fields filled from real elapsed time and latency
/// percentiles aggregated across shards.
Result<RunResult> RunRealExperiment(config::ExperimentConfig config,
                                    const RealRunOptions& options);

/// A load generator: client shards, each on its own TCP connection to the
/// page server. Shared by RunRealExperiment and ccload.
struct ShardSet {
  std::vector<std::unique_ptr<substrate::ClientShard>> shards;
  std::vector<std::unique_ptr<substrate::TcpClientTransport>> transports;
};

/// Splits clients [lo, hi) of `config` into `count` shards (0 = one per 8
/// clients, at least 2; never more than the clients), connects each to
/// the server at `host`:`port`, wires its faults and starts its clients.
/// Shards connected before a failure stay in `out`.
Status ConnectShards(const config::ExperimentConfig& config,
                     const std::string& host, int port, int lo, int hi,
                     int count, ShardSet* out);

/// Runs every shard's loop on its own thread — `warmup_seconds`, a stats
/// window reset, then `duration_seconds` — and closes the transports once
/// all loops are done. Returns the calendar events the loops processed.
std::uint64_t RunShards(ShardSet* set, double warmup_seconds,
                        double duration_seconds);

/// The real substrate's harvest, shared by RunRealExperiment and ccload:
/// folds the counters of the server node (null when it runs in another
/// process) and of every client shard into one result, and derives the
/// response, attempt and hit-ratio figures from the shards' statistics
/// over a `duration_seconds` window. Wall-clock and event fields are left
/// to the caller; call after every loop has stopped.
RunResult HarvestRealRun(substrate::ServerNode* server, const ShardSet& load,
                         double duration_seconds);

}  // namespace ccsim::runner

#endif  // CCSIM_RUNNER_REAL_EXPERIMENT_H_
