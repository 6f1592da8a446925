// Oracle tests (ctest label "oracle"): the online serializability oracle
// and coherence invariant auditor from src/check. Three layers:
//
//  1. Unit tests of the incremental (Pearce–Kelly) serialization graph and
//     of the oracle fed with hand-built histories (write skew, unknown
//     outcomes), directly and through the check::Checker front end.
//  2. Full simulation runs of all five protocols — fault-free and under
//     the chaos cocktail — with `checker.enabled`, asserting the history
//     stays serializable and the counters reconcile.
//  3. Negative controls: a certification server with validation skipped
//     (AlgorithmParams::test_skip_validation) must be caught by the oracle
//     with a cycle dump and a non-zero exit, and client caches corrupted
//     mid-run must be caught by the structural audits.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "check/checker.h"
#include "check/oracle.h"
#include "check/serialization_graph.h"
#include "config/params.h"
#include "net/message.h"
#include "runner/experiment.h"
#include "runner/report.h"
#include "runner/sweep.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "substrate/node.h"

namespace ccsim {
namespace {

using check::EdgeKind;
using check::Oracle;
using check::SerializationGraph;
using config::Algorithm;
using config::CachingMode;
using config::ExperimentConfig;
using runner::RunExperiment;
using runner::RunExperiments;
using runner::RunResult;

// ---------------------------------------------------------------------------
// Serialization graph unit tests
// ---------------------------------------------------------------------------

TEST(SerializationGraphTest, ForwardChainNeedsNoSearch) {
  SerializationGraph g;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(g.AddNode(), i);
  }
  SerializationGraph::Cycle cycle;
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(g.AddEdge(i, i + 1, {EdgeKind::kWriteRead, 1, 1}, &cycle));
  }
  // Edges inserted in topological order never trigger the search machinery.
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_EQ(g.reorder_checks(), 0u);
  EXPECT_EQ(g.max_frontier(), 0u);
}

TEST(SerializationGraphTest, BackEdgeReordersWithoutCycle) {
  SerializationGraph g;
  for (int i = 0; i < 3; ++i) {
    g.AddNode();
  }
  SerializationGraph::Cycle cycle;
  // Both edges point against the insertion order, so each one forces a
  // bounded search + reorder of the affected region.
  EXPECT_FALSE(g.AddEdge(2, 1, {EdgeKind::kWriteWrite, 7, 2}, &cycle));
  EXPECT_FALSE(g.AddEdge(1, 0, {EdgeKind::kWriteWrite, 7, 3}, &cycle));
  EXPECT_EQ(g.reorder_checks(), 2u);
  EXPECT_GE(g.max_frontier(), 2u);
  // Now 0 → 2 closes the 3-cycle 2 → 1 → 0 → 2.
  ASSERT_TRUE(g.AddEdge(0, 2, {EdgeKind::kReadWrite, 7, 1}, &cycle));
  ASSERT_EQ(cycle.nodes.size(), 3u);
  // Every consecutive pair (wrapping) must be a real edge with provenance.
  for (std::size_t i = 0; i < cycle.nodes.size(); ++i) {
    const int from = cycle.nodes[i];
    const int to = cycle.nodes[(i + 1) % cycle.nodes.size()];
    EXPECT_NE(g.FindEdge(from, to), nullptr)
        << "cycle claims edge " << from << " -> " << to;
  }
}

TEST(SerializationGraphTest, TwoCycleDetected) {
  SerializationGraph g;
  g.AddNode();
  g.AddNode();
  SerializationGraph::Cycle cycle;
  EXPECT_FALSE(g.AddEdge(0, 1, {EdgeKind::kWriteRead, 3, 2}, &cycle));
  ASSERT_TRUE(g.AddEdge(1, 0, {EdgeKind::kReadWrite, 4, 1}, &cycle));
  ASSERT_EQ(cycle.nodes.size(), 2u);
  const SerializationGraph::EdgeInfo* info =
      g.FindEdge(cycle.nodes[0], cycle.nodes[1]);
  ASSERT_NE(info, nullptr);
}

TEST(SerializationGraphTest, SelfLoopIsACycle) {
  SerializationGraph g;
  g.AddNode();
  SerializationGraph::Cycle cycle;
  ASSERT_TRUE(g.AddEdge(0, 0, {EdgeKind::kWriteWrite, 1, 1}, &cycle));
  ASSERT_EQ(cycle.nodes.size(), 1u);
  EXPECT_EQ(cycle.nodes[0], 0);
}

TEST(SerializationGraphTest, DuplicateEdgesKeepFirstProvenance) {
  SerializationGraph g;
  g.AddNode();
  g.AddNode();
  SerializationGraph::Cycle cycle;
  EXPECT_FALSE(g.AddEdge(0, 1, {EdgeKind::kWriteRead, 5, 2}, &cycle));
  EXPECT_FALSE(g.AddEdge(0, 1, {EdgeKind::kWriteWrite, 9, 4}, &cycle));
  EXPECT_EQ(g.edge_count(), 1u);
  const SerializationGraph::EdgeInfo* info = g.FindEdge(0, 1);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->kind, EdgeKind::kWriteRead);
  EXPECT_EQ(info->page, 5);
  EXPECT_EQ(info->version, 2u);
}

// ---------------------------------------------------------------------------
// Oracle fed with hand-built histories
// ---------------------------------------------------------------------------

Oracle::Options NonFatalOptions() {
  Oracle::Options options;
  options.abort_on_violation = false;
  options.context = "oracle_test direct feed";
  return options;
}

TEST(OracleDirectFeedTest, SerialHistoryIsClean) {
  Oracle oracle(NonFatalOptions());
  oracle.OnCommit(0, 101, 10, {{1, 1}}, {{1, 2}});
  oracle.OnCommit(1, 102, 20, {{1, 2}}, {{1, 3}});
  oracle.OnCommit(0, 103, 30, {{1, 3}}, {});
  EXPECT_EQ(oracle.commits_observed(), 3u);
  EXPECT_GT(oracle.edges(), 0u);
  EXPECT_TRUE(oracle.violation_report().empty());
}

TEST(OracleDirectFeedTest, WriteSkewProducesCycleDump) {
  // Classic write skew: both transactions read pages 1 and 2 at the initial
  // version, then each writes one of them. No WR or WW conflict — only the
  // two anti-dependency edges, which form a 2-cycle.
  Oracle oracle(NonFatalOptions());
  oracle.OnCommit(0, 101, 10, {{1, 1}, {2, 1}}, {{1, 2}});
  oracle.NoteStaleCommitRead(1, 102, 1, 1, 2);
  oracle.OnCommit(1, 102, 20, {{1, 1}, {2, 1}}, {{2, 2}});
  const std::string& report = oracle.violation_report();
  ASSERT_FALSE(report.empty());
  EXPECT_NE(report.find("serializability violation"), std::string::npos);
  EXPECT_NE(report.find("RW"), std::string::npos);
  EXPECT_NE(report.find("client"), std::string::npos);
  EXPECT_NE(report.find("oracle_test direct feed"), std::string::npos);
  // The stale-read provenance note made it into the dump.
  EXPECT_NE(report.find("stale-at-commit evidence"), std::string::npos);
  EXPECT_EQ(oracle.stale_commit_reads(), 1u);
}

TEST(OracleDirectFeedTest, UnknownOutcomesResolveToExactlyOneSide) {
  Oracle oracle(NonFatalOptions());
  oracle.OnCommit(0, 5, 10, {{1, 1}}, {{1, 2}});
  oracle.OnUnknownOutcome(5);  // committed server-side, reply lost
  oracle.OnUnknownOutcome(6);  // aborted server-side
  oracle.OnAbortObserved(6);
  oracle.OnUnknownOutcome(7);  // request never took effect
  oracle.Finalize(/*reported_unknown_outcomes=*/3);
  EXPECT_EQ(oracle.unknown_resolved_committed(), 1u);
  EXPECT_EQ(oracle.unknown_resolved_aborted(), 2u);
}

TEST(OracleDirectFeedTest, ExpiredLeaseTrustIsFatal) {
  Oracle oracle(NonFatalOptions());
  // Structural invariants stay fatal even in non-fatal graph mode: trusting
  // a leased copy past its expiry is a protocol bug, not a history property.
  EXPECT_DEATH(oracle.OnTrustedLocalRead(/*client=*/3, /*page=*/7,
                                         /*version=*/2, /*retained_lock=*/false,
                                         /*lease_until=*/100, /*now=*/101,
                                         /*fault_free=*/false,
                                         /*current_version=*/0),
               "past its lease");
}

TEST(CheckerTest, VerdictLandsAtTheCallThatFeedsIt) {
  // Write skew fed through the front end: T1 installs a@1 and b@1; T2
  // reads b@1 and overwrites a; T3 reads a@1 (already overwritten: RW
  // T3 -> T2) and overwrites b (read by T2: RW T2 -> T3). The cycle is
  // reported before the call that committed T3 returns, not at Finish().
  check::Checker::Options options;
  options.oracle = NonFatalOptions();
  check::Checker checker(nullptr, options);
  const std::vector<check::PageVersion> t1_writes = {{1, 1}, {2, 1}};
  checker.OnCommit(0, 1, 0, {}, t1_writes);
  const std::vector<check::PageVersion> t2_reads = {{2, 1}};
  const std::vector<check::PageVersion> t2_writes = {{1, 2}};
  checker.OnCommit(1, 2, 1, t2_reads, t2_writes);
  ASSERT_TRUE(checker.oracle().violation_report().empty());
  const std::vector<check::PageVersion> t3_reads = {{1, 1}};
  const std::vector<check::PageVersion> t3_writes = {{2, 2}};
  checker.OnCommit(2, 3, 2, t3_reads, t3_writes);
  const std::string& report = checker.oracle().violation_report();
  ASSERT_FALSE(report.empty());
  EXPECT_NE(report.find("serializability violation"), std::string::npos);
  EXPECT_EQ(checker.oracle().commits_observed(), 3u);
  checker.Finish();
}

// ---------------------------------------------------------------------------
// Full runs: every protocol, fault-free and chaotic, under the oracle
// ---------------------------------------------------------------------------

/// Same contended workload as the chaos suite, with the checker switched on.
ExperimentConfig OracleBaseConfig(Algorithm algorithm, CachingMode mode) {
  ExperimentConfig cfg = config::BaseConfig();
  cfg.system.num_clients = 8;
  cfg.transaction.prob_write = 0.2;
  cfg.transaction.inter_xact_loc = 0.25;
  cfg.algorithm.algorithm = algorithm;
  cfg.algorithm.caching = mode;
  cfg.control.seed = 7;
  cfg.control.warmup_seconds = 5;
  cfg.control.target_commits = 300;
  cfg.control.max_measure_seconds = 300;
  cfg.checker.enabled = true;
  return cfg;
}

void AddLossyNetwork(ExperimentConfig& cfg) {
  cfg.fault.drop_probability = 0.05;
  cfg.fault.duplicate_probability = 0.02;
  cfg.fault.delay_spike_probability = 0.05;
  cfg.fault.delay_spike_ms = 20.0;
  cfg.fault.recovery_enabled = true;
}

void ExpectOracleClean(const RunResult& r, std::uint64_t target_commits) {
  EXPECT_FALSE(r.stalled);
  EXPECT_GE(r.commits, target_commits);
  ASSERT_TRUE(r.oracle_enabled);
  // The oracle sees warmup commits too, so it observes at least as many
  // commits as the measurement window reports.
  EXPECT_GE(r.oracle_commits, r.commits);
  EXPECT_GT(r.oracle_edges, 0u);
  EXPECT_GT(r.oracle_audits, 0u);
  // A correct protocol never commits a read of an overwritten version.
  EXPECT_EQ(r.oracle_stale_commit_reads, 0u);
  // Every unknown outcome resolved to exactly one side.
  EXPECT_EQ(r.oracle_unknown_committed + r.oracle_unknown_aborted,
            r.unknown_outcomes);
}

class OracleSweep
    : public ::testing::TestWithParam<std::tuple<Algorithm, CachingMode>> {};

TEST_P(OracleSweep, FaultFreeHistoryIsSerializable) {
  const auto [algorithm, mode] = GetParam();
  const ExperimentConfig cfg = OracleBaseConfig(algorithm, mode);
  Result<RunResult> result = RunExperiment(cfg);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const RunResult& r = result.ValueOrDie();
  ExpectOracleClean(r, cfg.control.target_commits);
  // Fault-free: the full audit (including the retained-lock cross-check
  // between client caches and the server lock table) ran at every commit,
  // every attempt ended with a structurally-clean cache, and no commit
  // outcome was ever in doubt.
  EXPECT_GT(r.oracle_client_audits, 0u);
  EXPECT_EQ(r.unknown_outcomes, 0u);
}

TEST_P(OracleSweep, ChaosCocktailHistoryIsSerializable) {
  const auto [algorithm, mode] = GetParam();
  ExperimentConfig cfg = OracleBaseConfig(algorithm, mode);
  AddLossyNetwork(cfg);
  Result<RunResult> result = RunExperiment(cfg);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const RunResult& r = result.ValueOrDie();
  ExpectOracleClean(r, cfg.control.target_commits);
  EXPECT_EQ(r.transactions_lost, 0u);
  EXPECT_GT(r.messages_dropped, 0u);
  EXPECT_GT(r.rpc_retries, 0u);
}

std::string OracleSweepName(
    const ::testing::TestParamInfo<OracleSweep::ParamType>& info) {
  const auto [algorithm, mode] = info.param;
  std::string name = config::AlgorithmLabel(algorithm, mode);
  for (char& ch : name) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) {
      ch = '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, OracleSweep,
    ::testing::Values(
        std::make_tuple(Algorithm::kTwoPhaseLocking,
                        CachingMode::kInterTransaction),
        std::make_tuple(Algorithm::kCertification,
                        CachingMode::kInterTransaction),
        std::make_tuple(Algorithm::kCallbackLocking,
                        CachingMode::kInterTransaction),
        std::make_tuple(Algorithm::kNoWaitLocking,
                        CachingMode::kInterTransaction),
        std::make_tuple(Algorithm::kNoWaitNotify,
                        CachingMode::kInterTransaction)),
    OracleSweepName);

TEST(OracleRunTest, CrashRecoveryAuditedSerializable) {
  // Server crash exercises AuditPostRecovery (no active transactions, no
  // locks, no uncommitted frames after log replay) plus client crashes for
  // the GC path, all on a lossy network.
  ExperimentConfig cfg = OracleBaseConfig(Algorithm::kCallbackLocking,
                                          CachingMode::kInterTransaction);
  AddLossyNetwork(cfg);
  cfg.fault.crashes.push_back(
      {/*node=*/net::kServerNode, /*at_s=*/10.0, /*downtime_s=*/1.0});
  cfg.fault.crashes.push_back({/*node=*/3, /*at_s=*/18.0, /*downtime_s=*/2.0});
  Result<RunResult> result = RunExperiment(cfg);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const RunResult& r = result.ValueOrDie();
  ExpectOracleClean(r, cfg.control.target_commits);
  EXPECT_EQ(r.server_crashes, 1u);
  EXPECT_EQ(r.client_crashes, 1u);
  EXPECT_EQ(r.transactions_lost, 0u);
}

TEST(OracleRunTest, CheckerDoesNotPerturbTheSimulation) {
  // The oracle must be an observer: switching it on changes no simulation
  // outcome (it touches neither the calendar nor any RNG stream).
  ExperimentConfig cfg = OracleBaseConfig(Algorithm::kCertification,
                                          CachingMode::kInterTransaction);
  cfg.checker.enabled = false;
  const RunResult off = RunExperiment(cfg).ValueOrDie();
  cfg.checker.enabled = true;
  const RunResult on = RunExperiment(cfg).ValueOrDie();
  EXPECT_FALSE(off.oracle_enabled);
  EXPECT_TRUE(on.oracle_enabled);
  EXPECT_EQ(off.commits, on.commits);
  EXPECT_EQ(off.aborts, on.aborts);
  EXPECT_EQ(off.messages, on.messages);
  EXPECT_EQ(off.packets, on.packets);
  EXPECT_DOUBLE_EQ(off.mean_response_s, on.mean_response_s);
  EXPECT_DOUBLE_EQ(off.throughput_tps, on.throughput_tps);
}

TEST(OracleRunTest, DeterministicAcrossSweepJobs) {
  // One oracle per run, owned by the run: a parallel sweep produces the
  // same simulation results and the same oracle counters as a serial one.
  std::vector<ExperimentConfig> configs;
  for (Algorithm algorithm :
       {Algorithm::kTwoPhaseLocking, Algorithm::kCertification,
        Algorithm::kCallbackLocking, Algorithm::kNoWaitNotify}) {
    ExperimentConfig cfg =
        OracleBaseConfig(algorithm, CachingMode::kInterTransaction);
    AddLossyNetwork(cfg);
    configs.push_back(cfg);
  }
  const auto serial = RunExperiments(configs, /*jobs=*/1);
  const auto parallel = RunExperiments(configs, /*jobs=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].ok());
    ASSERT_TRUE(parallel[i].ok());
    const RunResult& a = serial[i].ValueOrDie();
    const RunResult& b = parallel[i].ValueOrDie();
    EXPECT_EQ(a.commits, b.commits);
    EXPECT_EQ(a.aborts, b.aborts);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_DOUBLE_EQ(a.mean_response_s, b.mean_response_s);
    EXPECT_EQ(a.oracle_commits, b.oracle_commits);
    EXPECT_EQ(a.oracle_edges, b.oracle_edges);
    EXPECT_EQ(a.oracle_scc_checks, b.oracle_scc_checks);
    EXPECT_EQ(a.oracle_max_frontier, b.oracle_max_frontier);
    EXPECT_EQ(a.oracle_audits, b.oracle_audits);
    EXPECT_EQ(a.oracle_trusted_reads, b.oracle_trusted_reads);
    EXPECT_EQ(a.oracle_unknown_committed, b.oracle_unknown_committed);
    EXPECT_EQ(a.oracle_unknown_aborted, b.oracle_unknown_aborted);
  }
}

TEST(OracleRunTest, SummaryLineReportsCounters) {
  const ExperimentConfig cfg = OracleBaseConfig(
      Algorithm::kTwoPhaseLocking, CachingMode::kInterTransaction);
  const RunResult r = RunExperiment(cfg).ValueOrDie();
  const std::string summary = runner::CounterSummary(r);
  EXPECT_NE(summary.find("checker"), std::string::npos);
  EXPECT_NE(summary.find("oracle_commits"), std::string::npos);
  EXPECT_NE(summary.find("oracle_edges"), std::string::npos);
  EXPECT_NE(summary.find("oracle_scc_checks"), std::string::npos);
  RunResult no_oracle;
  EXPECT_TRUE(runner::CounterSummary(no_oracle).empty());
}

// ---------------------------------------------------------------------------
// One seed of every paper figure family under the oracle
// ---------------------------------------------------------------------------

TEST(OracleFigureTest, IntraTransactionCaching) {  // figs 5-7
  ExperimentConfig cfg = OracleBaseConfig(Algorithm::kTwoPhaseLocking,
                                          CachingMode::kIntraTransaction);
  const RunResult r = RunExperiment(cfg).ValueOrDie();
  ExpectOracleClean(r, cfg.control.target_commits);
}

TEST(OracleFigureTest, HotSpotContention) {  // figs 8-13 feed region
  ExperimentConfig cfg = OracleBaseConfig(Algorithm::kNoWaitNotify,
                                          CachingMode::kInterTransaction);
  cfg.transaction.prob_write = 0.5;
  cfg.transaction.inter_xact_loc = 0.8;
  cfg.system.num_clients = 20;
  const RunResult r = RunExperiment(cfg).ValueOrDie();
  ExpectOracleClean(r, cfg.control.target_commits);
  // Contention actually materialized: some aborts were consistency-driven.
  EXPECT_GT(r.aborts, 0u);
}

TEST(OracleFigureTest, LargeTransactions) {  // figs 14-15
  ExperimentConfig cfg = OracleBaseConfig(Algorithm::kCallbackLocking,
                                          CachingMode::kInterTransaction);
  cfg.transaction.min_xact_size = 16;
  cfg.transaction.max_xact_size = 24;
  cfg.control.target_commits = 150;
  const RunResult r = RunExperiment(cfg).ValueOrDie();
  ExpectOracleClean(r, cfg.control.target_commits);
}

TEST(OracleFigureTest, FastServer) {  // figs 16-17
  ExperimentConfig cfg = OracleBaseConfig(Algorithm::kCertification,
                                          CachingMode::kInterTransaction);
  cfg.system.server_mips = 10.0;
  const RunResult r = RunExperiment(cfg).ValueOrDie();
  ExpectOracleClean(r, cfg.control.target_commits);
}

TEST(OracleFigureTest, FastNetwork) {  // figs 18-21
  ExperimentConfig cfg = OracleBaseConfig(Algorithm::kNoWaitLocking,
                                          CachingMode::kInterTransaction);
  cfg.system.net_delay_ms = 0.1;
  const RunResult r = RunExperiment(cfg).ValueOrDie();
  ExpectOracleClean(r, cfg.control.target_commits);
}

TEST(OracleFigureTest, AclVerification) {  // table 4 (§4 experiment 1)
  ExperimentConfig cfg = config::AclVerificationConfig();
  cfg.algorithm.algorithm = Algorithm::kCertification;
  cfg.algorithm.caching = CachingMode::kIntraTransaction;
  cfg.system.num_clients = 20;
  cfg.control.seed = 7;
  cfg.control.warmup_seconds = 5;
  cfg.control.target_commits = 150;
  cfg.control.max_measure_seconds = 300;
  cfg.checker.enabled = true;
  const RunResult r = RunExperiment(cfg).ValueOrDie();
  ExpectOracleClean(r, cfg.control.target_commits);
}

TEST(OracleFigureTest, InteractiveUpdates) {  // fig 22
  ExperimentConfig cfg = OracleBaseConfig(Algorithm::kCallbackLocking,
                                          CachingMode::kInterTransaction);
  cfg.transaction.update_delay_s = 0.5;
  cfg.control.target_commits = 150;
  const RunResult r = RunExperiment(cfg).ValueOrDie();
  ExpectOracleClean(r, cfg.control.target_commits);
}

// ---------------------------------------------------------------------------
// Certification / validation edge cases (satellite d)
// ---------------------------------------------------------------------------

TEST(OracleEdgeCaseTest, WriteWriteConflictOnNotifiedCopy) {
  // No-wait+notify with a hot write-heavy workload: clients repeatedly
  // update pages for which they hold propagated (notified) copies, so
  // commit-time validation must catch write-write conflicts on copies that
  // were fresh when the notification arrived but stale by commit.
  ExperimentConfig cfg = OracleBaseConfig(Algorithm::kNoWaitNotify,
                                          CachingMode::kInterTransaction);
  cfg.transaction.prob_write = 0.6;
  cfg.transaction.inter_xact_loc = 0.8;
  cfg.database.num_classes = 5;
  cfg.database.pages_per_class = {20};
  cfg.system.num_clients = 12;
  const RunResult r = RunExperiment(cfg).ValueOrDie();
  ExpectOracleClean(r, cfg.control.target_commits);
  // The conflicts really happened (stale-copy aborts) and cached copies
  // really were trusted without server contact.
  EXPECT_GT(r.stale_aborts + r.cert_aborts, 0u);
  EXPECT_GT(r.oracle_trusted_reads, 0u);
}

TEST(OracleEdgeCaseTest, LeaseExpiresMidTransaction) {
  // A lease short enough to expire between first use and commit, plus
  // delay spikes and a server crash to stall transactions mid-flight. The
  // oracle checks every trusted read against its lease at use time.
  ExperimentConfig cfg = OracleBaseConfig(Algorithm::kCallbackLocking,
                                          CachingMode::kInterTransaction);
  AddLossyNetwork(cfg);
  cfg.fault.lease_ms = 50.0;
  cfg.transaction.update_delay_s = 0.1;
  cfg.fault.crashes.push_back(
      {/*node=*/net::kServerNode, /*at_s=*/12.0, /*downtime_s=*/1.0});
  const RunResult r = RunExperiment(cfg).ValueOrDie();
  ExpectOracleClean(r, cfg.control.target_commits);
  EXPECT_GT(r.lease_expirations, 0u);
  EXPECT_EQ(r.transactions_lost, 0u);
}

TEST(OracleEdgeCaseTest, CallbacksRaceActiveReaders) {
  // Slow interactive updates hold read locks while other clients commit
  // writes, so callbacks keep arriving for pages that are concurrently
  // being read. The per-commit audit and per-use lease checks must hold
  // through every such interleaving.
  ExperimentConfig cfg = OracleBaseConfig(Algorithm::kCallbackLocking,
                                          CachingMode::kInterTransaction);
  cfg.transaction.prob_write = 0.5;
  cfg.transaction.inter_xact_loc = 0.8;
  cfg.transaction.update_delay_s = 0.5;
  cfg.database.num_classes = 5;
  cfg.database.pages_per_class = {20};
  cfg.system.num_clients = 12;
  cfg.control.target_commits = 150;
  const RunResult r = RunExperiment(cfg).ValueOrDie();
  ExpectOracleClean(r, cfg.control.target_commits);
  EXPECT_GT(r.oracle_trusted_reads, 0u);
}

// ---------------------------------------------------------------------------
// Negative control: a broken protocol must die with a cycle dump
// ---------------------------------------------------------------------------

TEST(OracleViolationDeathTest, BrokenCertificationIsCaught) {
  // Certification with backward validation skipped commits stale reads;
  // on a hot database the resulting anti-dependency edges close a cycle
  // within a few hundred commits. The oracle must dump it and abort.
  ExperimentConfig cfg = OracleBaseConfig(Algorithm::kCertification,
                                          CachingMode::kInterTransaction);
  cfg.algorithm.test_skip_validation = true;
  cfg.transaction.prob_write = 0.5;
  cfg.transaction.inter_xact_loc = 0.8;
  cfg.database.num_classes = 5;
  cfg.database.pages_per_class = {10};
  cfg.system.num_clients = 10;
  EXPECT_DEATH(
      {
        Result<RunResult> result = RunExperiment(cfg);
        (void)result;
      },
      "serializability violation");
}

TEST(OracleViolationDeathTest, BrokenProtocolSurvivesWithoutChecker) {
  // Sanity check on the negative control itself: with the checker off the
  // demoted commit-point assertion is what fires instead, so the broken
  // variant still cannot slip through a default build.
  ExperimentConfig cfg = OracleBaseConfig(Algorithm::kCertification,
                                          CachingMode::kInterTransaction);
  cfg.checker.enabled = false;
  cfg.algorithm.test_skip_validation = true;
  cfg.transaction.prob_write = 0.5;
  cfg.transaction.inter_xact_loc = 0.8;
  cfg.database.num_classes = 5;
  cfg.database.pages_per_class = {10};
  cfg.system.num_clients = 10;
  EXPECT_DEATH(
      {
        Result<RunResult> result = RunExperiment(cfg);
        (void)result;
      },
      "read-currency violated");
}

// ---------------------------------------------------------------------------
// Negative controls: the structural audits catch a corrupted cache
// ---------------------------------------------------------------------------

TEST(OracleViolationDeathTest, RetainedCopyUnderTwoPhaseLockingIsCaught) {
  // Only callback locking retains copies across transactions. A 2PL cache
  // left holding a page marked retained dies in the attempt-end audit of
  // the client's next attempt, not in an epoch audit.
  const ExperimentConfig cfg = OracleBaseConfig(
      Algorithm::kTwoPhaseLocking, CachingMode::kInterTransaction);
  EXPECT_DEATH(
      {
        sim::Simulator sim;
        substrate::Assembly nodes(&sim, cfg, cfg.control.seed,
                                  /*with_server=*/true, 0,
                                  cfg.system.num_clients, "");
        nodes.Start();
        sim.Run(sim::SecondsToTicks(20));
        nodes.clients[0]->cache().ForEach(
            [](db::PageId, client::CachedPage& entry) {
              entry.retained = true;
            });
        sim.Run(sim::SecondsToTicks(1000));
        sim.Shutdown();
      },
      "marked retained under a protocol that retains no copies");
}

TEST(OracleViolationDeathTest, RetainedCopyWithoutItsServerLockIsCaught) {
  // Callback locking's promise: a copy the client trusts as retained is
  // backed by a retained lock at the server. Releasing those locks behind
  // the clients' backs breaks it; with an audit at every commit, the next
  // commit's epoch audit dies before any rival write could make a trusted
  // copy stale.
  ExperimentConfig cfg = OracleBaseConfig(Algorithm::kCallbackLocking,
                                          CachingMode::kInterTransaction);
  cfg.checker.audit_epoch_commits = 1;
  EXPECT_DEATH(
      {
        sim::Simulator sim;
        substrate::Assembly nodes(&sim, cfg, cfg.control.seed,
                                  /*with_server=*/true, 0,
                                  cfg.system.num_clients, "");
        nodes.Start();
        sim.Run(sim::SecondsToTicks(20));
        for (const auto& c : nodes.clients) {
          const int id = c->id();
          c->cache().ForEach(
              [&](db::PageId page, const client::CachedPage& entry) {
                if (entry.retained && entry.lock == client::PageLock::kNone) {
                  nodes.server->locks().Release(lock::RetainedOwner(id),
                                                page);
                }
              });
        }
        sim.Run(sim::SecondsToTicks(1000));
        sim.Shutdown();
      },
      "trusts a retained copy");
}

}  // namespace
}  // namespace ccsim
