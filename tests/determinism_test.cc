// Golden determinism tests for the event kernel and the parallel sweep
// runner: the simulation must be a pure function of (config, seed).
//
// Every metric is serialized with hex-float formatting (%a), so the
// comparison is byte-exact — not within-epsilon. A single reordered event
// anywhere in a run perturbs the RNG consumption sequence and shows up
// here. This is the acceptance gate for kernel changes: any calendar or
// payload rework must keep these green.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "config/flags.h"
#include "config/params.h"
#include "net/message.h"
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

// 64-bit FNV-1a.
std::uint64_t Fnv1a64(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// `algorithm` is a command-line name; `variant`, when given, is an ablation
// switch turned on.
config::ExperimentConfig NamedConfig(
    const char* algorithm,
    bool config::AlgorithmParams::*variant = nullptr) {
  config::ExperimentConfig cfg =
      SmallConfig(config::Algorithm::kTwoPhaseLocking, 10);
  EXPECT_TRUE(config::SelectAlgorithm(algorithm, &cfg.algorithm).ok())
      << algorithm;
  if (variant != nullptr) {
    cfg.algorithm.*variant = true;
  }
  return cfg;
}

// Recovery mode under message drops, duplicates and one server crash:
// exercises leases, commit revalidation and commit rejection.
config::ExperimentConfig FaultedConfig(const char* algorithm) {
  config::ExperimentConfig cfg = NamedConfig(algorithm);
  cfg.fault.drop_probability = 0.05;
  cfg.fault.duplicate_probability = 0.02;
  cfg.fault.crashes.push_back(
      {/*node=*/net::kServerNode, /*at_s=*/10.0, /*downtime_s=*/1.0});
  cfg.fault.recovery_enabled = true;
  return cfg;
}

// sim_hot_checked's configuration: 50 clients on a hot cell (locality
// 0.75, write probability 0.5) with caches that hold the whole database,
// checker on. Its hot pages put many events at one tick, so a changed
// tie-break among them moves these digests where the small runs' do not.
config::ExperimentConfig HotConfig(const char* algorithm) {
  config::ExperimentConfig cfg = config::BaseConfig();
  EXPECT_TRUE(config::SelectAlgorithm(algorithm, &cfg.algorithm).ok())
      << algorithm;
  cfg.system.num_clients = 50;
  cfg.control.target_commits = 500;
  cfg.transaction.inter_xact_loc = 0.75;
  cfg.transaction.prob_write = 0.5;
  cfg.system.client_cache_pages =
      static_cast<int>(cfg.database.TotalPages());
  cfg.checker.enabled = true;
  return cfg;
}

struct GoldenRun {
  const char* label;
  config::ExperimentConfig cfg;
  std::uint64_t digest;  // FNV-1a of Serialize()
};

std::vector<GoldenRun> GoldenRuns() {
  using config::AlgorithmParams;
  return {
      {"2pl", NamedConfig("2pl"), 0x40d38e0501cd0384ULL},
      {"2pl-intra", NamedConfig("2pl-intra"), 0x4e9b1d0cb06165ceULL},
      {"cert", NamedConfig("cert"), 0x2cea878f48f1f76cULL},
      {"cert-intra", NamedConfig("cert-intra"), 0x9818521bde01d85dULL},
      {"callback", NamedConfig("callback"), 0xc64882d53a2c7463ULL},
      {"no-wait", NamedConfig("no-wait"), 0x4df39501b864519bULL},
      {"no-wait-notify", NamedConfig("no-wait-notify"),
       0x7894c56fbe196bbbULL},
      {"callback+retain-write-locks",
       NamedConfig("callback", &AlgorithmParams::retain_write_locks),
       0xaec2e7ef8a89362dULL},
      {"callback+explicit-evict-notices",
       NamedConfig("callback", &AlgorithmParams::explicit_evict_notices),
       0xbbedc8218e096b98ULL},
      {"no-wait-notify+invalidate",
       NamedConfig("no-wait-notify", &AlgorithmParams::notify_invalidate),
       0xd8cd6be112b9b9f2ULL},
      {"no-wait-notify+broadcast",
       NamedConfig("no-wait-notify", &AlgorithmParams::notify_broadcast),
       0xbfdabaeb33138e84ULL},
      {"2pl+faults", FaultedConfig("2pl"), 0xe80ae1a0823c3ae8ULL},
      {"cert+faults", FaultedConfig("cert"), 0xbe8cb450de94483bULL},
      {"callback+faults", FaultedConfig("callback"), 0x1916ddc7a5313592ULL},
      {"no-wait+faults", FaultedConfig("no-wait"), 0x877b3ca195fc239dULL},
      {"no-wait-notify+faults", FaultedConfig("no-wait-notify"),
       0xcc177fccb681d797ULL},
      {"2pl+hot", HotConfig("2pl"), 0x49edc88b721f494cULL},
      {"cert+hot", HotConfig("cert"), 0x364f935ebdef7b49ULL},
      {"callback+hot", HotConfig("callback"), 0x30e9d95ae59be119ULL},
      {"no-wait+hot", HotConfig("no-wait"), 0x9b94322f14af08f4ULL},
      {"no-wait-notify+hot", HotConfig("no-wait-notify"),
       0x9cd33d7c577394a2ULL},
  };
}

TEST(DeterminismTest, GoldenDigests) {
  // The run-twice tests cannot see a change that alters every run the
  // same way. These digests are fixed: a refactor must pass them
  // unchanged, and only a deliberate behaviour change may re-record them.
  for (const GoldenRun& run : GoldenRuns()) {
    auto result = runner::RunExperiment(run.cfg);
    ASSERT_TRUE(result.ok()) << run.label;
    const runner::RunResult& r = result.ValueOrDie();
    EXPECT_FALSE(r.stalled) << run.label;
    if (!run.cfg.fault.crashes.empty()) {
      EXPECT_EQ(r.server_crashes, 1u) << run.label;
    }
    EXPECT_EQ(Fnv1a64(Serialize(r)), run.digest)
        << run.label << std::hex << " digest 0x" << Fnv1a64(Serialize(r));
  }
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
