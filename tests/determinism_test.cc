// Golden determinism tests for the event kernel and the parallel sweep
// runner: the simulation must be a pure function of (config, seed).
//
// Every metric is serialized with hex-float formatting (%a), so the
// comparison is byte-exact — not within-epsilon. A single reordered event
// anywhere in a run perturbs the RNG consumption sequence and shows up
// here. This is the acceptance gate for kernel changes: any calendar or
// payload rework must keep these green.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "config/params.h"
#include "runner/experiment.h"
#include "runner/sweep.h"

namespace ccsim {
namespace {

struct NamedAlgorithm {
  config::Algorithm algorithm;
  const char* label;
};

// All five consistency algorithms: each exercises a different mix of
// kernel primitives (callbacks fan out events; certification batches
// validation; no-wait piggybacks checks on fetches).
const NamedAlgorithm kAllAlgorithms[] = {
    {config::Algorithm::kTwoPhaseLocking, "2PL"},
    {config::Algorithm::kCertification, "certification"},
    {config::Algorithm::kCallbackLocking, "callback"},
    {config::Algorithm::kNoWaitLocking, "no-wait"},
    {config::Algorithm::kNoWaitNotify, "no-wait+notify"},
};

config::ExperimentConfig SmallConfig(config::Algorithm algorithm,
                                     int num_clients) {
  config::ExperimentConfig cfg = config::BaseConfig();
  cfg.algorithm.algorithm = algorithm;
  cfg.algorithm.caching = config::CachingMode::kInterTransaction;
  cfg.system.num_clients = num_clients;
  cfg.control.seed = 12345;
  cfg.control.warmup_seconds = 5;
  cfg.control.target_commits = 200;
  cfg.control.max_measure_seconds = 120;
  return cfg;
}

// Byte-exact serialization of every counter-table field of a RunResult
// (doubles as hex floats) plus the per-type responses. The table holds no
// wall-clock field, so everything serialized here must repeat exactly.
std::string Serialize(const runner::RunResult& r) {
  std::string out;
  runner::ForEachField(r, [&out](const runner::FieldInfo& field, auto v) {
    char buf[128];
    if constexpr (std::is_floating_point_v<decltype(v)>) {
      std::snprintf(buf, sizeof(buf), "%s=%a\n", field.name, v);
    } else {
      std::snprintf(buf, sizeof(buf), "%s=%llu\n", field.name,
                    static_cast<unsigned long long>(v));
    }
    out += buf;
  });
  for (std::size_t i = 0; i < r.per_type_response.size(); ++i) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "type%zu_response=%a\ntype%zu_commits=%llu\n", i,
                  r.per_type_response[i].first, i,
                  static_cast<unsigned long long>(
                      r.per_type_response[i].second));
    out += buf;
  }
  return out;
}

TEST(DeterminismTest, SameSeedTwiceIsByteIdentical) {
  for (const NamedAlgorithm& alg : kAllAlgorithms) {
    const config::ExperimentConfig cfg = SmallConfig(alg.algorithm, 10);
    auto first = runner::RunExperiment(cfg);
    auto second = runner::RunExperiment(cfg);
    ASSERT_TRUE(first.ok()) << alg.label;
    ASSERT_TRUE(second.ok()) << alg.label;
    EXPECT_FALSE(first.ValueOrDie().stalled) << alg.label;
    EXPECT_EQ(Serialize(first.ValueOrDie()), Serialize(second.ValueOrDie()))
        << alg.label;
  }
}

TEST(DeterminismTest, SerialAndParallelSweepsAreByteIdentical) {
  // One sweep mixing all five algorithms at two client counts, run once
  // on the calling thread and once fanned across 8 workers. Results must
  // come back in submission order with byte-identical metrics.
  std::vector<config::ExperimentConfig> configs;
  for (const NamedAlgorithm& alg : kAllAlgorithms) {
    for (int clients : {5, 10}) {
      configs.push_back(SmallConfig(alg.algorithm, clients));
    }
  }
  auto serial = runner::RunExperiments(configs, 1);
  auto parallel = runner::RunExperiments(configs, 8);
  ASSERT_EQ(serial.size(), configs.size());
  ASSERT_EQ(parallel.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    ASSERT_TRUE(serial[i].ok()) << "config " << i;
    ASSERT_TRUE(parallel[i].ok()) << "config " << i;
    EXPECT_EQ(Serialize(serial[i].ValueOrDie()),
              Serialize(parallel[i].ValueOrDie()))
        << "config " << i;
  }
}

}  // namespace
}  // namespace ccsim
