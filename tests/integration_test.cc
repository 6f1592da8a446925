// End-to-end integration tests: build the whole simulated system and run
// every consistency algorithm against a contended workload. The commit-time
// serializability oracle (a CCSIM_CHECK inside the server) makes any
// protocol bug fatal, so "the run finishes with commits" is a strong check.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "config/params.h"
#include "runner/experiment.h"

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
