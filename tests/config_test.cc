// Unit tests for configuration presets and validation.

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "config/flags.h"
#include "config/params.h"

namespace ccsim::config {
namespace {

TEST(ConfigTest, BaseConfigMatchesTable5) {
  const ExperimentConfig cfg = BaseConfig();
  EXPECT_EQ(cfg.database.num_classes, 40);
  EXPECT_EQ(cfg.database.PagesInClass(0), 50);
  EXPECT_EQ(cfg.database.TotalPages(), 2000);
  EXPECT_DOUBLE_EQ(cfg.database.cluster_factor, 1.0);
  EXPECT_EQ(cfg.transaction.min_xact_size, 4);
  EXPECT_EQ(cfg.transaction.max_xact_size, 12);
  EXPECT_DOUBLE_EQ(cfg.transaction.external_delay_s, 1.0);
  EXPECT_EQ(cfg.transaction.inter_xact_set_size, 20);
  EXPECT_DOUBLE_EQ(cfg.system.net_delay_ms, 2.0);
  EXPECT_EQ(cfg.system.packet_size_bytes, 4096);
  EXPECT_DOUBLE_EQ(cfg.system.msg_cost_instr, 5000);
  EXPECT_DOUBLE_EQ(cfg.system.server_mips, 2.0);
  EXPECT_DOUBLE_EQ(cfg.system.client_mips, 1.0);
  EXPECT_EQ(cfg.system.num_data_disks, 2);
  EXPECT_EQ(cfg.system.num_log_disks, 1);
  EXPECT_EQ(cfg.system.client_cache_pages, 100);
  EXPECT_EQ(cfg.system.server_buffer_pages, 400);
  EXPECT_DOUBLE_EQ(cfg.system.seek_high_ms, 44.0);
  EXPECT_DOUBLE_EQ(cfg.system.disk_transfer_ms, 2.0);
  EXPECT_DOUBLE_EQ(cfg.system.server_proc_page_instr, 10000);
  EXPECT_DOUBLE_EQ(cfg.system.client_proc_page_instr, 20000);
  EXPECT_EQ(cfg.system.mpl, 50);
  EXPECT_TRUE(cfg.Validate().ok());
}

TEST(ConfigTest, AclConfigMatchesTable4) {
  const ExperimentConfig cfg = AclVerificationConfig();
  EXPECT_EQ(cfg.database.num_classes, 2);
  EXPECT_EQ(cfg.database.PagesInClass(0), 500);
  EXPECT_DOUBLE_EQ(cfg.transaction.prob_write, 0.25);
  EXPECT_EQ(cfg.system.num_clients, 200);
  EXPECT_DOUBLE_EQ(cfg.system.server_mips, 1.0);
  EXPECT_EQ(cfg.system.client_cache_pages, 12);
  EXPECT_EQ(cfg.system.server_buffer_pages, 1);
  EXPECT_DOUBLE_EQ(cfg.system.seek_low_ms, 35.0);
  EXPECT_DOUBLE_EQ(cfg.system.seek_high_ms, 35.0);
  EXPECT_DOUBLE_EQ(cfg.system.server_proc_page_instr, 15000);
  EXPECT_FALSE(cfg.algorithm.enable_log_manager);
  EXPECT_EQ(cfg.algorithm.caching, CachingMode::kIntraTransaction);
  EXPECT_TRUE(cfg.Validate().ok());
}

TEST(ConfigTest, ValidationCatchesBadRanges) {
  {
    ExperimentConfig cfg = BaseConfig();
    cfg.transaction.prob_write = -0.1;
    EXPECT_FALSE(cfg.Validate().ok());
  }
  {
    ExperimentConfig cfg = BaseConfig();
    cfg.transaction.min_xact_size = 10;
    cfg.transaction.max_xact_size = 4;
    EXPECT_FALSE(cfg.Validate().ok());
  }
  {
    ExperimentConfig cfg = BaseConfig();
    cfg.system.num_clients = 0;
    EXPECT_FALSE(cfg.Validate().ok());
  }
  {
    ExperimentConfig cfg = BaseConfig();
    cfg.system.seek_low_ms = 10;
    cfg.system.seek_high_ms = 5;
    EXPECT_FALSE(cfg.Validate().ok());
  }
  {
    ExperimentConfig cfg = BaseConfig();
    cfg.database.cluster_factor = 1.5;
    EXPECT_FALSE(cfg.Validate().ok());
  }
  {
    ExperimentConfig cfg = BaseConfig();
    cfg.system.mpl = 0;
    EXPECT_FALSE(cfg.Validate().ok());
  }
}

TEST(ConfigTest, ValidationCatchesBadFaultConfig) {
  {
    ExperimentConfig cfg = BaseConfig();
    cfg.fault.torn_write_probability = 1.0;  // certain faults can't converge
    EXPECT_FALSE(cfg.Validate().ok());
  }
  {
    ExperimentConfig cfg = BaseConfig();
    cfg.fault.bit_flip_probability = -0.1;
    EXPECT_FALSE(cfg.Validate().ok());
  }
  {
    // A crash window sticking out past the end of the run would leave the
    // node down at harvest time.
    ExperimentConfig cfg = BaseConfig();
    cfg.fault.recovery_enabled = true;
    cfg.control.warmup_seconds = 5;
    cfg.control.max_measure_seconds = 60;
    cfg.fault.crashes.push_back({-1, 60.0, 10.0});
    EXPECT_FALSE(cfg.Validate().ok());
  }
  {
    // Overlapping crash windows on the same node.
    ExperimentConfig cfg = BaseConfig();
    cfg.fault.recovery_enabled = true;
    cfg.fault.crashes.push_back({-1, 10.0, 5.0});
    cfg.fault.crashes.push_back({-1, 12.0, 5.0});
    EXPECT_FALSE(cfg.Validate().ok());
  }
  {
    // Partition node must be a client; the server cannot partition from
    // itself.
    ExperimentConfig cfg = BaseConfig();
    cfg.fault.recovery_enabled = true;
    cfg.fault.partitions.push_back({-1, 10.0, 1.0, 0});
    EXPECT_FALSE(cfg.Validate().ok());
    cfg.fault.partitions.back().node = cfg.system.num_clients;
    EXPECT_FALSE(cfg.Validate().ok());
  }
  {
    ExperimentConfig cfg = BaseConfig();
    cfg.fault.recovery_enabled = true;
    cfg.fault.partitions.push_back({0, 10.0, 1.0, 3});  // bad direction
    EXPECT_FALSE(cfg.Validate().ok());
  }
  {
    // Overlapping partition windows on the same node.
    ExperimentConfig cfg = BaseConfig();
    cfg.fault.recovery_enabled = true;
    cfg.fault.partitions.push_back({2, 10.0, 5.0, 0});
    cfg.fault.partitions.push_back({2, 14.0, 5.0, 1});
    EXPECT_FALSE(cfg.Validate().ok());
    // Disjoint windows on the same node are fine.
    cfg.fault.partitions.back().at_s = 15.0;
    EXPECT_TRUE(cfg.Validate().ok());
  }
  {
    // A partition window past the run end never heals.
    ExperimentConfig cfg = BaseConfig();
    cfg.fault.recovery_enabled = true;
    cfg.control.warmup_seconds = 5;
    cfg.control.max_measure_seconds = 60;
    cfg.fault.partitions.push_back({0, 60.0, 10.0, 0});
    EXPECT_FALSE(cfg.Validate().ok());
  }
  {
    // Partitions (and the overload knobs) need the recovery layer: without
    // timeouts a cut-off client would hang forever.
    ExperimentConfig cfg = BaseConfig();
    cfg.fault.partitions.push_back({0, 10.0, 1.0, 0});
    EXPECT_FALSE(cfg.Validate().ok());
  }
  {
    ExperimentConfig cfg = BaseConfig();
    cfg.fault.server_queue_limit = 16;
    EXPECT_FALSE(cfg.Validate().ok());
    cfg.fault.recovery_enabled = true;
    EXPECT_TRUE(cfg.Validate().ok());
  }
  {
    ExperimentConfig cfg = BaseConfig();
    cfg.fault.recovery_enabled = true;
    cfg.fault.retry_jitter = 1.5;
    EXPECT_FALSE(cfg.Validate().ok());
    cfg.fault.retry_jitter = 0.25;
    EXPECT_TRUE(cfg.Validate().ok());
  }
  {
    ExperimentConfig cfg = BaseConfig();
    cfg.fault.recovery_enabled = true;
    cfg.fault.retry_budget = -1;
    EXPECT_FALSE(cfg.Validate().ok());
  }
}

TEST(ConfigTest, CacheMustHoldWorkingSet) {
  ExperimentConfig cfg = BaseConfig();
  cfg.system.client_cache_pages = 5;  // < MaxXactSize
  EXPECT_FALSE(cfg.Validate().ok());
}

TEST(ConfigTest, LocalityNeedsInterXactSet) {
  ExperimentConfig cfg = BaseConfig();
  cfg.transaction.inter_xact_set_size = 0;
  cfg.transaction.inter_xact_loc = 0.5;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg.transaction.inter_xact_loc = 0.0;
  EXPECT_TRUE(cfg.Validate().ok());
}

TEST(ConfigTest, ObjectSizeBounds) {
  ExperimentConfig cfg = BaseConfig();
  cfg.database.object_size = {0};
  EXPECT_FALSE(cfg.Validate().ok());
  cfg.database.object_size = {51};  // > pages per class
  EXPECT_FALSE(cfg.Validate().ok());
  cfg.database.object_size = {12};
  cfg.system.client_cache_pages = 400;  // working set grows with objects
  EXPECT_TRUE(cfg.Validate().ok());
}

TEST(ConfigTest, AlgorithmLabels) {
  EXPECT_EQ(AlgorithmLabel(Algorithm::kTwoPhaseLocking,
                           CachingMode::kInterTransaction),
            "2PL-inter");
  EXPECT_EQ(AlgorithmLabel(Algorithm::kTwoPhaseLocking,
                           CachingMode::kIntraTransaction),
            "2PL-intra");
  EXPECT_EQ(AlgorithmLabel(Algorithm::kCallbackLocking,
                           CachingMode::kInterTransaction),
            "callback");
  EXPECT_EQ(AlgorithmLabel(Algorithm::kNoWaitNotify,
                           CachingMode::kInterTransaction),
            "no-wait+notify");
  EXPECT_STREQ(AlgorithmName(Algorithm::kCertification), "certification");
  EXPECT_STREQ(CachingModeName(CachingMode::kIntraTransaction), "intra");
}

TEST(ConfigTest, IntraModeOnlyForTwoPhaseAndCertification) {
  ExperimentConfig cfg = BaseConfig();
  cfg.algorithm.caching = CachingMode::kIntraTransaction;
  for (Algorithm algorithm :
       {Algorithm::kCallbackLocking, Algorithm::kNoWaitLocking,
        Algorithm::kNoWaitNotify}) {
    cfg.algorithm.algorithm = algorithm;
    EXPECT_FALSE(cfg.Validate().ok());
  }
  cfg.algorithm.algorithm = Algorithm::kCertification;
  EXPECT_TRUE(cfg.Validate().ok());
}

// The tools turn recovery on from FaultParams::NeedsRecovery, so it must
// name exactly the knobs Validate() refuses to run without recovery.
TEST(ConfigTest, NeedsRecoveryAgreesWithValidate) {
  const std::vector<std::function<void(FaultParams&)>> knobs = {
      [](FaultParams& f) { f.drop_probability = 0.05; },
      [](FaultParams& f) { f.duplicate_probability = 0.02; },
      [](FaultParams& f) { f.delay_spike_probability = 0.05; },
      [](FaultParams& f) { f.crashes.push_back({-1, 10.0, 1.0}); },
      [](FaultParams& f) { f.crashes.push_back({3, 10.0, 1.0}); },
      [](FaultParams& f) { f.partitions.push_back({1, 10.0, 5.0, 0}); },
      [](FaultParams& f) { f.torn_write_probability = 0.1; },
      [](FaultParams& f) { f.bit_flip_probability = 0.05; },
      [](FaultParams& f) { f.server_queue_limit = 16; },
      [](FaultParams& f) { f.retry_budget = 8; },
      [](FaultParams& f) { f.retry_jitter = 0.25; },
  };
  int needing = 0;
  for (std::size_t i = 0; i < knobs.size(); ++i) {
    ExperimentConfig cfg = BaseConfig();
    knobs[i](cfg.fault);
    const bool needs = cfg.fault.NeedsRecovery();
    needing += needs ? 1 : 0;
    EXPECT_EQ(cfg.Validate().ok(), !needs) << "knob " << i;
    cfg.fault.recovery_enabled = true;
    EXPECT_TRUE(cfg.Validate().ok()) << "knob " << i;
  }
  EXPECT_EQ(needing, 8);  // all but spikes, torn writes and bit flips
  EXPECT_FALSE(BaseConfig().fault.NeedsRecovery());
}

TEST(ConfigTest, AlgorithmNamesSelectTheirProtocol) {
  AlgorithmParams params;
  ASSERT_TRUE(SelectAlgorithm("cert-intra", &params).ok());
  EXPECT_EQ(params.algorithm, Algorithm::kCertification);
  EXPECT_EQ(params.caching, CachingMode::kIntraTransaction);
  ASSERT_TRUE(SelectAlgorithm("no-wait-notify", &params).ok());
  EXPECT_EQ(params.algorithm, Algorithm::kNoWaitNotify);
  EXPECT_EQ(params.caching, CachingMode::kInterTransaction);
  EXPECT_FALSE(SelectAlgorithm("3pl", &params).ok());
}

TEST(ConfigTest, FaultFlagsParse) {
  FaultParams fault;
  Status status;
  ASSERT_TRUE(ParseFaultFlag("--partition=2:1.5:0.5:in:hard", &fault,
                             &status));
  ASSERT_TRUE(status.ok());
  ASSERT_EQ(fault.partitions.size(), 1u);
  EXPECT_EQ(fault.partitions[0].node, 2);
  EXPECT_DOUBLE_EQ(fault.partitions[0].at_s, 1.5);
  EXPECT_DOUBLE_EQ(fault.partitions[0].duration_s, 0.5);
  EXPECT_EQ(fault.partitions[0].direction, 1);
  EXPECT_TRUE(fault.partitions[0].hard);
  ASSERT_TRUE(ParseFaultFlag("--spike=0.05:20", &fault, &status));
  ASSERT_TRUE(status.ok());
  EXPECT_DOUBLE_EQ(fault.delay_spike_probability, 0.05);
  EXPECT_DOUBLE_EQ(fault.delay_spike_ms, 20.0);
  ASSERT_TRUE(ParseFaultFlag("--crash=-1:2.5:0.3", &fault, &status));
  ASSERT_TRUE(status.ok());
  ASSERT_EQ(fault.crashes.size(), 1u);
  EXPECT_EQ(fault.crashes[0].node, -1);
  EXPECT_DOUBLE_EQ(fault.crashes[0].at_s, 2.5);
  EXPECT_DOUBLE_EQ(fault.crashes[0].downtime_s, 0.3);
  for (const char* bad : {"--partition=2:1.5", "--partition=2:1:1:sideways",
                          "--spike=0.05", "--crash=3:2.0"}) {
    ASSERT_TRUE(ParseFaultFlag(bad, &fault, &status)) << bad;
    EXPECT_FALSE(status.ok()) << bad;
  }
  EXPECT_FALSE(ParseFaultFlag("--drop=0.1", &fault, &status));
}

}  // namespace
}  // namespace ccsim::config
