// Unit tests for configuration presets and validation.

#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <functional>
#include <set>
#include <sstream>
#include <string>
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

/// Parses `args` (words split at spaces) as `tool`'s command line.
int Parse(Tool tool, const std::string& args, CommandLine* out) {
  std::vector<std::string> words = {"tool"};
  for (std::size_t pos = 0; pos < args.size();) {
    const std::size_t space = std::min(args.find(' ', pos), args.size());
    words.push_back(args.substr(pos, space - pos));
    pos = space + 1;
  }
  std::vector<const char*> argv;
  for (const std::string& word : words) {
    argv.push_back(word.c_str());
  }
  return ParseCommandLine(tool, static_cast<int>(argv.size()), argv.data(),
                          out);
}

TEST(ConfigTest, FaultFlagsParse) {
  CommandLine flags;
  ASSERT_EQ(Parse(kCcsimRun,
                  "--partition=2:1.5:0.5:in:hard --spike=0.05:20 "
                  "--crash=-1:2.5:0.3",
                  &flags),
            -1);
  const FaultParams& fault = flags.config.fault;
  ASSERT_EQ(fault.partitions.size(), 1u);
  EXPECT_EQ(fault.partitions[0].node, 2);
  EXPECT_DOUBLE_EQ(fault.partitions[0].at_s, 1.5);
  EXPECT_DOUBLE_EQ(fault.partitions[0].duration_s, 0.5);
  EXPECT_EQ(fault.partitions[0].direction, 1);
  EXPECT_TRUE(fault.partitions[0].hard);
  EXPECT_DOUBLE_EQ(fault.delay_spike_probability, 0.05);
  EXPECT_DOUBLE_EQ(fault.delay_spike_ms, 20.0);
  ASSERT_EQ(fault.crashes.size(), 1u);
  EXPECT_EQ(fault.crashes[0].node, -1);
  EXPECT_DOUBLE_EQ(fault.crashes[0].at_s, 2.5);
  EXPECT_DOUBLE_EQ(fault.crashes[0].downtime_s, 0.3);
  for (const char* bad : {"--partition=2:1.5", "--partition=2:1:1:sideways",
                          "--spike=0.05", "--crash=3:2.0"}) {
    EXPECT_EQ(Parse(kCcsimRun, bad, &flags), 2) << bad;
  }
  // --drop is a plain number, not a structured fault flag.
  ASSERT_EQ(Parse(kCcsimRun, "--drop=0.1", &flags), -1);
  EXPECT_DOUBLE_EQ(flags.config.fault.drop_probability, 0.1);
  EXPECT_TRUE(flags.config.fault.crashes.empty());
  EXPECT_TRUE(flags.config.fault.partitions.empty());
}

// A number flag's value must be a whole number of its field's type; a
// rejected value exits 2 with a message naming the flag.
TEST(ConfigTest, MalformedNumbersAreRejected) {
  CommandLine flags;
  for (const char* bad :
       {"--commits=3k", "--seed=abc", "--clients=8x", "--drop=",
        "--seed=-1", "--clients=99999999999", "--locality=nan",
        "--xact-size=2:8x", "--crash=1x:2:3"}) {
    testing::internal::CaptureStderr();
    EXPECT_EQ(Parse(kCcsimRun, bad, &flags), 2) << bad;
    const std::string error = testing::internal::GetCapturedStderr();
    const std::string flag(bad, std::string(bad).find('='));
    EXPECT_NE(error.find(flag), std::string::npos) << error;
  }
  EXPECT_EQ(Parse(kCcload, "--port=1 --clients=8x", &flags), 2);
  ASSERT_EQ(Parse(kCcsimRun, "--crash=-1:2.5:0.3 --commits=30", &flags), -1);
  EXPECT_EQ(flags.config.control.target_commits, 30u);
  ASSERT_EQ(flags.config.fault.crashes.size(), 1u);
  EXPECT_EQ(flags.config.fault.crashes[0].node, -1);
}

// A flag is accepted only by the tools its row names, and each tool's
// --help lists exactly those rows.
TEST(ConfigTest, EachToolTakesItsOwnRows) {
  CommandLine flags;
  testing::internal::CaptureStderr();
  EXPECT_EQ(Parse(kCcserve, "--locality=0.5", &flags), 2);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "unknown flag: --locality=0.5 (try --help)\n");
  EXPECT_EQ(Parse(kCcload, "--crash=2.5:0.3", &flags), 2);
  ASSERT_EQ(Parse(kCcserve, "--crash=2.5:0.3", &flags), -1);
  EXPECT_EQ(flags.config.fault.crashes.at(0).node, -1);
  testing::internal::CaptureStdout();
  PrintUsage(kCcserve);
  const std::string usage = testing::internal::GetCapturedStdout();
  EXPECT_NE(usage.find("--crash=AT:DOWN"), std::string::npos);
  EXPECT_NE(usage.find("--bind=HOST"), std::string::npos);
  EXPECT_EQ(usage.find("--crash=NODE"), std::string::npos);
  EXPECT_EQ(usage.find("--locality"), std::string::npos);
}

std::string Num(double value) {
  char buf[64];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

/// Every config field a flag or the finishing steps can set, as
/// `key=value` words.
std::string Describe(const ExperimentConfig& c) {
  std::string s;
  const auto add = [&s](const char* key, double value) {
    s += std::string(" ") + key + "=" + Num(value);
  };
  add("alg", static_cast<int>(c.algorithm.algorithm));
  add("caching", static_cast<int>(c.algorithm.caching));
  add("clients", c.system.num_clients);
  add("loc", c.transaction.inter_xact_loc);
  add("pw", c.transaction.prob_write);
  add("xmin", c.transaction.min_xact_size);
  add("xmax", c.transaction.max_xact_size);
  add("objs", static_cast<double>(c.database.object_size.size()));
  add("obj", c.database.object_size[0]);
  add("cf", c.database.cluster_factor);
  add("ud", c.transaction.update_delay_s);
  add("id", c.transaction.internal_delay_s);
  add("ed", c.transaction.external_delay_s);
  add("smips", c.system.server_mips);
  add("cmips", c.system.client_mips);
  add("net", c.system.net_delay_ms);
  add("msg", c.system.msg_cost_instr);
  add("dd", c.system.num_data_disks);
  add("ld", c.system.num_log_disks);
  add("cache", c.system.client_cache_pages);
  add("buf", c.system.server_buffer_pages);
  add("mpl", c.system.mpl);
  add("seed", static_cast<double>(c.control.seed));
  add("warm", c.control.warmup_seconds);
  add("commits", static_cast<double>(c.control.target_commits));
  add("maxs", c.control.max_measure_seconds);
  add("drop", c.fault.drop_probability);
  add("dup", c.fault.duplicate_probability);
  add("spp", c.fault.delay_spike_probability);
  add("spms", c.fault.delay_spike_ms);
  for (const FaultParams::CrashEvent& crash : c.fault.crashes) {
    add("crash", crash.node);
    add("at", crash.at_s);
    add("down", crash.downtime_s);
  }
  for (const FaultParams::PartitionEvent& part : c.fault.partitions) {
    add("part", part.node);
    add("at", part.at_s);
    add("dur", part.duration_s);
    add("dir", part.direction);
    add("hard", part.hard);
  }
  add("torn", c.fault.torn_write_probability);
  add("flip", c.fault.bit_flip_probability);
  add("ql", c.fault.server_queue_limit);
  add("rb", c.fault.retry_budget);
  add("rj", c.fault.retry_jitter);
  add("rec", c.fault.recovery_enabled);
  add("rpc", c.fault.rpc_timeout_ms);
  add("lease", c.fault.lease_ms);
  add("idle", c.fault.xact_idle_timeout_ms);
  add("check", c.checker.enabled);
  add("seek", c.system.seek_low_ms);
  add("seekhi", c.system.seek_high_ms);
  add("xfer", c.system.disk_transfer_ms);
  add("idc", c.system.init_disk_cost_instr);
  add("sproc", c.system.server_proc_page_instr);
  add("cproc", c.system.client_proc_page_instr);
  return s;
}

/// The tool-only values `tool` runs with, as `key=value` words.
std::string DescribeOptions(Tool tool, const CommandLine& f) {
  std::string sweep;
  for (int clients : f.sweep_clients) {
    sweep += (sweep.empty() ? "" : ",") + std::to_string(clients);
  }
  const std::string alg = "alg=" + f.algorithm;
  switch (tool) {
    case kCcsimRun:
      return alg + " sub=" + f.substrate + " csv=" + std::to_string(f.csv) +
             " jobs=" + std::to_string(f.jobs) +
             " soak=" + std::to_string(f.chaos_soak) + " sweep=" + sweep +
             " dur=" + Num(f.duration_s) +
             " shards=" + std::to_string(f.shards) +
             " rwarm=" + Num(f.warmup_s.value_or(1.0));
    case kCcserve:
      return alg + " port=" + std::to_string(f.port) + " bind=" + f.bind_host +
             " pfile=" + f.port_file + " dur=" + Num(f.duration_s);
    case kCcload:
      return alg + " host=" + f.host + " pfile=" + f.port_file +
             " port=" + std::to_string(f.port) + " lo=" + std::to_string(f.lo) +
             " hi=" +
             std::to_string(f.hi < 0 ? f.config.system.num_clients : f.hi) +
             " shards=" + std::to_string(f.shards) +
             " dur=" + Num(f.duration_s) +
             " warm=" + Num(f.warmup_s.value_or(1.0));
  }
  return "";
}

/// The words of `full` that are not among `base`'s, in order.
std::string Unlike(const std::string& full, const std::string& base) {
  std::set<std::string> seen;
  std::istringstream base_words(base);
  for (std::string word; base_words >> word;) {
    seen.insert(word);
  }
  std::string out;
  std::istringstream words(full);
  for (std::string word; words >> word;) {
    if (seen.count(word) == 0) {
      out += (out.empty() ? "" : " ") + word;
    }
  }
  return out;
}

// Command lines from tools/ci.sh, tools/chaos_soak.sh, README.md, the
// tools' header comments and the verify notes, plus one that sets every
// ccsim_run knob, with what the tools made of them before their flags
// moved into the one table: the tool's own values that differ from its
// defaults, then the config fields that differ from BaseConfig(). A
// command line with no flags records the tool's defaults in full.
struct Recorded {
  Tool tool;
  const char* args;
  const char* parsed;
};
const Recorded kRecorded[] = {
    {kCcsimRun,
     "",
     "alg=2pl sub=sim csv=0 jobs=0 soak=0 sweep= dur=5 shards=0 rwarm=1 |"},
    {kCcserve,
     "",
     "alg=2pl port=0 bind= pfile= dur=0 | net=0 msg=0 seekhi=0 xfer=0 idc=0 "
     "sproc=0 cproc=0"},
    {kCcload,
     "",
     "alg=2pl host=127.0.0.1 pfile= port=0 lo=0 hi=10 shards=0 dur=10 warm=1 "
     "| net=0 msg=0 seekhi=0 xfer=0 idc=0 sproc=0 cproc=0"},
    {kCcsimRun,
     "--algorithm=2pl --clients=10 --seed=42 --commits=300",
     "| seed=42 commits=300"},
    {kCcsimRun,
     "--algorithm=callback --drop=0.05 --dup=0.02 --spike=0.05:20 --seed=7 "
     "--commits=300",
     "alg=callback | alg=2 seed=7 commits=300 drop=0.05 dup=0.02 spp=0.05 "
     "rec=1"},
    {kCcsimRun,
     "--algorithm=2pl --recovery --crash=3:20:2",
     "| crash=3 at=20 down=2 rec=1"},
    {kCcsimRun,
     "--algorithm=no-wait-notify --crash=-1:30:1",
     "alg=no-wait-notify | alg=4 crash=-1 at=30 down=1 rec=1"},
    {kCcsimRun,
     "--algorithm=2pl --sweep-clients=2,10,30 --jobs=4 --csv",
     "csv=1 jobs=4 sweep=2,10,30 |"},
    {kCcsimRun,
     "--substrate=real --algorithm=cert --clients=8 --duration=4 --check "
     "--drop=0.02 --dup=0.01 --spike=0.05:5 --partition=0:1.5:0.5:hard "
     "--crash=3:2.0:0.3 --crash=-1:2.5:0.3",
     "alg=cert sub=real dur=4 | alg=1 clients=8 drop=0.02 dup=0.01 spp=0.05 "
     "spms=5 crash=3 at=2 down=0.3 crash=-1 at=2.5 down=0.3 part=0 at=1.5 "
     "dur=0.5 dir=0 hard=1 rec=1 check=1"},
    {kCcsimRun,
     "--chaos-soak=3 --seed=1 --jobs=4 --check",
     "jobs=4 soak=3 | check=1"},
    {kCcsimRun,
     "--substrate=real --chaos-soak=3 --seed=1",
     "sub=real soak=3 |"},
    {kCcsimRun,
     "--chaos-soak=50 --seed=1 --jobs=4",
     "jobs=4 soak=50 |"},
    {kCcsimRun,
     "--substrate=real --recovery --crash=2:1.5:0.3 --check",
     "sub=real | crash=2 at=1.5 down=0.3 rec=1 check=1"},
    {kCcsimRun,
     "--algorithm=callback --clients=30 --locality=0.6 --prob-write=0.1 "
     "--server-mips=2 --seed=3",
     "alg=callback | alg=2 clients=30 loc=0.6 pw=0.1 seed=3"},
    {kCcsimRun,
     "--algorithm=2pl-intra --net-delay-ms=0 --csv",
     "alg=2pl-intra csv=1 | caching=0 net=0"},
    {kCcsimRun,
     "--algorithm=2pl --clients=50 --locality=0.75 --prob-write=0.5 "
     "--cache-pages=2000 --commits=20000 --max-seconds=1000000 --check",
     "| clients=50 loc=0.75 pw=0.5 cache=2000 commits=20000 maxs=1e+06 "
     "check=1"},
    {kCcsimRun,
     "--xact-size=2:8 --object-size=2 --cluster-factor=0.5 "
     "--update-delay=0.1 --internal-delay=0.2 --external-delay=0.5 "
     "--client-mips=3 --msg-cost=1000 --data-disks=3 --log-disks=2 "
     "--cache-pages=200 --buffer-pages=300 --mpl=20 --warmup=5 "
     "--max-seconds=100 --torn-write=0.1 --bit-flip=0.05 --queue-limit=16 "
     "--retry-budget=8 --retry-jitter=0.25 --rpc-timeout-ms=100 "
     "--lease-ms=1000 --idle-timeout-ms=5000 --partition=1:10:5:in "
     "--shards=3 --substrate=sim",
     "shards=3 rwarm=5 | xmin=2 xmax=8 obj=2 cf=0.5 ud=0.1 id=0.2 ed=0.5 "
     "cmips=3 msg=1000 dd=3 ld=2 cache=200 buf=300 mpl=20 warm=5 maxs=100 "
     "part=1 at=10 dur=5 dir=1 hard=0 torn=0.1 flip=0.05 ql=16 rb=8 rj=0.25 "
     "rec=1 rpc=100 lease=1000 idle=5000"},
    {kCcsimRun,
     "--substrate=real --warmup=2 --duration=3 --shards=4 "
     "--algorithm=cert-intra --partition=2:1:0.5:out:hard",
     "alg=cert-intra sub=real dur=3 shards=4 rwarm=2 | alg=1 caching=0 "
     "warm=2 part=2 at=1 dur=0.5 dir=2 hard=1 rec=1"},
    {kCcserve,
     "--algorithm=callback --clients=16 --port=7411",
     "alg=callback port=7411 | alg=2 clients=16 net=0 msg=0 seekhi=0 xfer=0 "
     "idc=0 sproc=0 cproc=0"},
    {kCcserve,
     "--algorithm=cert --clients=8 --port=0 --port-file=/tmp/port",
     "alg=cert pfile=/tmp/port | alg=1 clients=8 net=0 msg=0 seekhi=0 xfer=0 "
     "idc=0 sproc=0 cproc=0"},
    {kCcserve,
     "--algorithm=2pl --clients=8 --port=0 --port-file=/tmp/p --check "
     "--duration=65",
     "pfile=/tmp/p dur=65 | clients=8 net=0 msg=0 check=1 seekhi=0 xfer=0 "
     "idc=0 sproc=0 cproc=0"},
    {kCcserve,
     "--algorithm=2pl --clients=8 --port=0 --port-file=/tmp/p --check "
     "--duration=65 --recovery",
     "pfile=/tmp/p dur=65 | clients=8 net=0 msg=0 rec=1 check=1 seekhi=0 "
     "xfer=0 idc=0 sproc=0 cproc=0"},
    {kCcserve,
     "--algorithm=2pl --clients=16 --port=7411 --bind=0.0.0.0 --check",
     "port=7411 bind=0.0.0.0 | clients=16 net=0 msg=0 check=1 seekhi=0 "
     "xfer=0 idc=0 sproc=0 cproc=0"},
    {kCcserve,
     "--torn-write=0.1",
     "| net=0 msg=0 torn=0.1 seekhi=0 xfer=0 idc=0 sproc=0 cproc=0"},
    {kCcserve,
     "--crash=2.5:0.3 --drop=0.01 --dup=0.01 --spike=0.05:5 "
     "--partition=0:1:0.5:out:hard --bit-flip=0.05 --buffer-pages=100 "
     "--mpl=10 --seed=9 --algorithm=no-wait",
     "alg=no-wait | alg=3 net=0 msg=0 buf=100 mpl=10 seed=9 drop=0.01 "
     "dup=0.01 spp=0.05 spms=5 crash=-1 at=2.5 down=0.3 part=0 at=1 dur=0.5 "
     "dir=2 hard=1 flip=0.05 rec=1 seekhi=0 xfer=0 idc=0 sproc=0 cproc=0"},
    {kCcload,
     "--port=7411 --algorithm=callback --clients=16 --duration=30",
     "alg=callback port=7411 hi=16 dur=30 | alg=2 clients=16 net=0 msg=0 "
     "seekhi=0 xfer=0 idc=0 sproc=0 cproc=0"},
    {kCcload,
     "--port-file=/tmp/port --algorithm=cert --clients=8 --lo=0 --hi=4 "
     "--threads=2",
     "alg=cert pfile=/tmp/port hi=4 shards=2 | alg=1 clients=8 net=0 msg=0 "
     "seekhi=0 xfer=0 idc=0 sproc=0 cproc=0"},
    {kCcload,
     "--port-file=/tmp/p --algorithm=2pl --clients=8 --duration=5 --warmup=1",
     "pfile=/tmp/p hi=8 dur=5 | clients=8 net=0 msg=0 seekhi=0 xfer=0 idc=0 "
     "sproc=0 cproc=0"},
    {kCcload,
     "--port-file=/tmp/p --algorithm=2pl --clients=8 --duration=4 "
     "--partition=0:2.0:0.3:hard",
     "pfile=/tmp/p hi=8 dur=4 | clients=8 net=0 msg=0 part=0 at=2 dur=0.3 "
     "dir=0 hard=1 rec=1 seekhi=0 xfer=0 idc=0 sproc=0 cproc=0"},
    {kCcload,
     "--host=server.example.org --port=7411 --algorithm=2pl --clients=16 "
     "--duration=30",
     "host=server.example.org port=7411 hi=16 dur=30 | clients=16 net=0 "
     "msg=0 seekhi=0 xfer=0 idc=0 sproc=0 cproc=0"},
    {kCcload,
     "--port=1 --crash=3:1:0.5 --drop=0.01 --dup=0.02 --spike=0.1:3 "
     "--locality=0.5 --prob-write=0.3 --seed=5 --warmup=2 --recovery "
     "--algorithm=no-wait-notify",
     "alg=no-wait-notify port=1 warm=2 | alg=4 loc=0.5 pw=0.3 net=0 msg=0 "
     "seed=5 drop=0.01 dup=0.02 spp=0.1 spms=3 crash=3 at=1 down=0.5 rec=1 "
     "seekhi=0 xfer=0 idc=0 sproc=0 cproc=0"},
};

TEST(ConfigTest, CommandLinesParseAsRecorded) {
  const std::string base = Describe(BaseConfig());
  for (const Recorded& line : kRecorded) {
    CommandLine defaults;
    ASSERT_EQ(Parse(line.tool, "", &defaults), -1);
    CommandLine flags;
    ASSERT_EQ(Parse(line.tool, line.args, &flags), -1) << line.args;
    const std::string options = DescribeOptions(line.tool, flags);
    std::string parsed =
        *line.args == '\0'
            ? options
            : Unlike(options, DescribeOptions(line.tool, defaults));
    parsed += (parsed.empty() ? "|" : " |");
    const std::string fields = Unlike(Describe(flags.config), base);
    parsed += fields.empty() ? "" : " " + fields;
    EXPECT_EQ(parsed, line.parsed) << line.args;
  }
}

}  // namespace
}  // namespace ccsim::config
