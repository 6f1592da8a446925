// End-to-end integration tests: build the whole simulated system and run
// every consistency algorithm against a contended workload. The commit-time
// serializability oracle (a CCSIM_CHECK inside the server) makes any
// protocol bug fatal, so "the run finishes with commits" is a strong check.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "config/params.h"
#include "net/message.h"
#include "net/network.h"
#include "runner/experiment.h"
#include "server/server.h"
#include "substrate/node.h"

namespace ccsim {
namespace {

using config::Algorithm;
using config::CachingMode;
using config::ExperimentConfig;
using runner::RunExperiment;
using runner::RunResult;

ExperimentConfig SmallConfig(Algorithm algorithm, CachingMode mode,
                             double prob_write, double locality) {
  ExperimentConfig cfg = config::BaseConfig();
  cfg.system.num_clients = 8;
  cfg.transaction.prob_write = prob_write;
  cfg.transaction.inter_xact_loc = locality;
  cfg.algorithm.algorithm = algorithm;
  cfg.algorithm.caching = mode;
  cfg.control.seed = 7;
  cfg.control.warmup_seconds = 5;
  cfg.control.target_commits = 400;
  cfg.control.max_measure_seconds = 300;
  cfg.checker.enabled = true;
  return cfg;
}

class AlgorithmSweep
    : public ::testing::TestWithParam<
          std::tuple<Algorithm, CachingMode, double, double>> {};

TEST_P(AlgorithmSweep, RunsContendedWorkloadSerializably) {
  const auto [algorithm, mode, prob_write, locality] = GetParam();
  const ExperimentConfig cfg =
      SmallConfig(algorithm, mode, prob_write, locality);
  Result<RunResult> result = RunExperiment(cfg);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const RunResult& r = result.ValueOrDie();
  // Liveness: the system must never stop making progress entirely.
  EXPECT_FALSE(r.stalled);
  // The run must make progress and reach its commit target.
  EXPECT_GE(r.commits, cfg.control.target_commits);
  EXPECT_GT(r.throughput_tps, 0.0);
  EXPECT_GT(r.mean_response_s, 0.0);
  // Response time cannot be shorter than one client-CPU processing of the
  // smallest transaction.
  EXPECT_GT(r.mean_response_s, 0.02);
  // Utilizations are fractions.
  EXPECT_LE(r.server_cpu_util, 1.0 + 1e-9);
  EXPECT_LE(r.network_util, 1.0 + 1e-9);
  EXPECT_GE(r.server_cpu_util, 0.0);

  // The oracle saw every commit of the run (warmup included) and, since
  // it CHECK-fails on a version chain that is not dense, every writer
  // installed exactly the next version of each page it wrote.
  EXPECT_TRUE(r.oracle_enabled);
  EXPECT_GE(r.oracle_commits, r.commits);
  if (prob_write > 0) {
    EXPECT_GT(r.oracle_edges, 0u);
  } else {
    EXPECT_EQ(r.oracle_edges, 0u);
    EXPECT_EQ(r.aborts, 0u);  // read-only workloads never abort
  }
}

std::string SweepName(
    const ::testing::TestParamInfo<AlgorithmSweep::ParamType>& info) {
  const auto [algorithm, mode, prob_write, locality] = info.param;
  std::string name = config::AlgorithmLabel(algorithm, mode);
  for (char& ch : name) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) {
      ch = '_';
    }
  }
  name += "_pw" + std::to_string(static_cast<int>(prob_write * 100));
  name += "_loc" + std::to_string(static_cast<int>(locality * 100));
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, AlgorithmSweep,
    ::testing::Values(
        // The five algorithms of the paper plus the intra-transaction
        // variants, across write probabilities and localities.
        std::make_tuple(Algorithm::kTwoPhaseLocking,
                        CachingMode::kInterTransaction, 0.0, 0.25),
        std::make_tuple(Algorithm::kTwoPhaseLocking,
                        CachingMode::kInterTransaction, 0.5, 0.75),
        std::make_tuple(Algorithm::kTwoPhaseLocking,
                        CachingMode::kIntraTransaction, 0.2, 0.25),
        std::make_tuple(Algorithm::kCertification,
                        CachingMode::kInterTransaction, 0.0, 0.25),
        std::make_tuple(Algorithm::kCertification,
                        CachingMode::kInterTransaction, 0.5, 0.75),
        std::make_tuple(Algorithm::kCertification,
                        CachingMode::kIntraTransaction, 0.2, 0.25),
        std::make_tuple(Algorithm::kCallbackLocking,
                        CachingMode::kInterTransaction, 0.0, 0.75),
        std::make_tuple(Algorithm::kCallbackLocking,
                        CachingMode::kInterTransaction, 0.5, 0.75),
        std::make_tuple(Algorithm::kCallbackLocking,
                        CachingMode::kInterTransaction, 0.2, 0.25),
        std::make_tuple(Algorithm::kNoWaitLocking,
                        CachingMode::kInterTransaction, 0.0, 0.25),
        std::make_tuple(Algorithm::kNoWaitLocking,
                        CachingMode::kInterTransaction, 0.5, 0.75),
        std::make_tuple(Algorithm::kNoWaitNotify,
                        CachingMode::kInterTransaction, 0.2, 0.25),
        std::make_tuple(Algorithm::kNoWaitNotify,
                        CachingMode::kInterTransaction, 0.5, 0.75)),
    SweepName);

/// Collects what the server sends instead of putting it on a wire.
class RecordingTransport : public net::Transport {
 public:
  void Deliver(const net::Message& msg) override { sent.push_back(msg); }
  std::vector<net::Message> sent;
};

/// A server node whose output is recorded, fed by messages pushed straight
/// into its inbox as if client 0 had sent them.
class ServerHarness {
 public:
  explicit ServerHarness(Algorithm algorithm)
      : node_(ConfigFor(algorithm), /*seed=*/1) {
    node_.network().set_transport(&wire_);
    node_.Start();
  }

  /// Pushes a message of `type` for `xact` on `pages`; requests that expect
  /// a reply get a fresh request id.
  void Push(net::MsgType type, std::uint64_t xact, net::PageList pages) {
    auto msg = std::make_unique<net::Message>();
    msg->type = type;
    msg->src = 0;
    msg->dst = net::kServerNode;
    msg->xact = xact;
    switch (type) {
      case net::MsgType::kReadRequest:
        msg->request_id = ++request_id_;
        msg->fetch_pages = std::move(pages);
        break;
      case net::MsgType::kCommitRequest:
        msg->request_id = ++request_id_;
        msg->data_pages = std::move(pages);
        break;
      default:
        msg->versions.resize(pages.size());  // version 0: never current
        msg->pages = std::move(pages);
        break;
    }
    node_.server().inbox().Push(std::move(msg));
  }

  void RunFor(double seconds) {
    sim().Run(sim().Now() + sim::SecondsToTicks(seconds));
  }
  sim::Simulator& sim() { return node_.substrate().sim(); }
  server::Server& server() { return node_.server(); }
  const std::vector<net::Message>& sent() const { return wire_.sent; }

 private:
  static ExperimentConfig ConfigFor(Algorithm algorithm) {
    ExperimentConfig cfg = config::BaseConfig();
    cfg.algorithm.algorithm = algorithm;
    return cfg;
  }

  substrate::ServerNode node_;
  RecordingTransport wire_;
  std::uint64_t request_id_ = 0;
};

TEST(IntegrationTest, ServerReclaimsFinishedTransactions) {
  // A finished transaction's state is dropped once its last handler
  // returns, so a long-running server does not grow with the number of
  // transactions it has served; a late request for a reclaimed attempt is
  // answered as stale instead of re-admitting it.
  ServerHarness h(Algorithm::kTwoPhaseLocking);
  constexpr std::uint64_t kTransactions = 20;
  for (std::uint64_t xact = 1; xact <= kTransactions; ++xact) {
    const auto page = static_cast<db::PageId>(xact);
    h.Push(net::MsgType::kReadRequest, xact, {page});
    h.RunFor(10);
    h.Push(net::MsgType::kCommitRequest, xact, {});
    h.RunFor(10);
  }
  ASSERT_EQ(h.sent().size(), 2 * kTransactions);
  for (const net::Message& reply : h.sent()) {
    EXPECT_FALSE(reply.aborted);
  }
  EXPECT_EQ(h.server().xact_states(), 0u);
  EXPECT_EQ(h.server().active_transactions(), 0);

  h.Push(net::MsgType::kReadRequest, 1, {1});
  h.RunFor(10);
  ASSERT_EQ(h.sent().size(), 2 * kTransactions + 1);
  EXPECT_TRUE(h.sent().back().aborted);
  EXPECT_EQ(h.server().xact_states(), 0u);
}

TEST(IntegrationTest, NoWaitLockAfterCommitPointIsMoot) {
  // A faulty wire can deliver a no-wait lock request after the commit
  // request of its transaction. Once the commit point has passed, the
  // request must neither abort the transaction (it would finish twice)
  // nor leave a lock behind.
  ServerHarness h(Algorithm::kNoWaitLocking);
  constexpr std::uint64_t kXact = 1;
  h.Push(net::MsgType::kReadRequest, kXact, {1});
  h.RunFor(10);
  h.Push(net::MsgType::kCommitRequest, kXact, {1});
  const server::XactState* state = h.server().FindXact(kXact);
  ASSERT_NE(state, nullptr);
  while (!state->committing && h.sim().Now() < sim::SecondsToTicks(20)) {
    h.sim().Run(h.sim().Now() + 1);
  }
  ASSERT_TRUE(state->committing);
  ASSERT_FALSE(state->done);  // the commit record is still being forced
  h.Push(net::MsgType::kNoWaitLock, kXact, {2});  // a stale cached copy
  h.RunFor(10);
  ASSERT_EQ(h.sent().size(), 2u);  // the read and commit replies, no notice
  EXPECT_EQ(h.sent().back().type, net::MsgType::kCommitReply);
  EXPECT_FALSE(h.sent().back().aborted);
  EXPECT_EQ(h.server().locks().held_count(), 0u);
  EXPECT_EQ(h.server().xact_states(), 0u);
}

TEST(IntegrationTest, InvalidConfigRejected) {
  ExperimentConfig cfg = config::BaseConfig();
  cfg.transaction.prob_write = 1.5;
  Result<RunResult> result = RunExperiment(cfg);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(IntegrationTest, IntraModeForNoWaitRejected) {
  ExperimentConfig cfg = config::BaseConfig();
  cfg.algorithm.algorithm = Algorithm::kNoWaitLocking;
  cfg.algorithm.caching = CachingMode::kIntraTransaction;
  Result<RunResult> result = RunExperiment(cfg);
  EXPECT_FALSE(result.ok());
}

TEST(IntegrationTest, DeterministicForSeed) {
  const ExperimentConfig cfg = SmallConfig(
      Algorithm::kTwoPhaseLocking, CachingMode::kInterTransaction, 0.2, 0.5);
  const RunResult a = RunExperiment(cfg).ValueOrDie();
  const RunResult b = RunExperiment(cfg).ValueOrDie();
  EXPECT_EQ(a.commits, b.commits);
  EXPECT_EQ(a.aborts, b.aborts);
  EXPECT_DOUBLE_EQ(a.mean_response_s, b.mean_response_s);
  EXPECT_EQ(a.messages, b.messages);
}

TEST(IntegrationTest, SeedChangesRun) {
  ExperimentConfig cfg = SmallConfig(
      Algorithm::kTwoPhaseLocking, CachingMode::kInterTransaction, 0.2, 0.5);
  const RunResult a = RunExperiment(cfg).ValueOrDie();
  cfg.control.seed = 99;
  const RunResult b = RunExperiment(cfg).ValueOrDie();
  EXPECT_NE(a.messages, b.messages);
}

}  // namespace
}  // namespace ccsim
