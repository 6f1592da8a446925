// Tests for the report table formatter and bench environment knobs.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <type_traits>

#include "runner/experiment.h"
#include "runner/report.h"

namespace ccsim::runner {
namespace {

std::string PrintToString(const Table& table) {
  char buffer[4096];
  std::FILE* stream = fmemopen(buffer, sizeof(buffer), "w");
  table.Print(stream);
  std::fclose(stream);
  return buffer;
}

TEST(TableTest, FormatsAlignedColumns) {
  Table table("Title", {"a", "long_column", "c"});
  table.AddRow({"1", "2", "3"});
  table.AddRow({"44444444", "5", "6"});
  const std::string out = PrintToString(table);
  EXPECT_NE(out.find("Title"), std::string::npos);
  EXPECT_NE(out.find("long_column"), std::string::npos);
  EXPECT_NE(out.find("44444444"), std::string::npos);
  // Header then separator then two rows.
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TableTest, NumFormatsDigits) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Num(3.14159, 0), "3");
  EXPECT_EQ(Table::Num(-1.5, 1), "-1.5");
  EXPECT_EQ(Table::Int(42), "42");
  EXPECT_EQ(Table::Int(0), "0");
}

TEST(BenchScaleTest, DefaultsWithoutEnv) {
  unsetenv("CCSIM_SCALE");
  unsetenv("CCSIM_SEED");
  const BenchScale scale = ReadBenchScale();
  EXPECT_DOUBLE_EQ(scale.scale, 1.0);
  EXPECT_EQ(scale.seed, 1u);
}

TEST(BenchScaleTest, ReadsEnv) {
  setenv("CCSIM_SCALE", "0.25", 1);
  setenv("CCSIM_SEED", "77", 1);
  const BenchScale scale = ReadBenchScale();
  EXPECT_DOUBLE_EQ(scale.scale, 0.25);
  EXPECT_EQ(scale.seed, 77u);
  unsetenv("CCSIM_SCALE");
  unsetenv("CCSIM_SEED");
}

TEST(BenchScaleTest, IgnoresGarbage) {
  setenv("CCSIM_SCALE", "-3", 1);
  setenv("CCSIM_SEED", "0", 1);
  const BenchScale scale = ReadBenchScale();
  EXPECT_DOUBLE_EQ(scale.scale, 1.0);
  EXPECT_EQ(scale.seed, 1u);
  unsetenv("CCSIM_SCALE");
  unsetenv("CCSIM_SEED");
}

// The CSV column order is part of the deterministic output; scripts read
// columns by position.
TEST(CounterTableTest, CsvHeaderKeepsItsColumnOrder) {
  EXPECT_EQ(CsvHeader(),
            "resp_s,resp_ci_s,tput,commits,aborts,deadlocks,stale,cert,"
            "srv_cpu,net,disk,client_cpu,cache_hit,buffer_hit,messages,"
            "packets,stalled,dropped,duplicated,spikes,down_drops,retries,"
            "timeouts,timeout_aborts,crash_aborts,lease_exp,dup_suppressed,"
            "gc_xacts,client_crashes,server_crashes,recovery_s,lost,"
            "unknown,partition_drops,shed,budget_exhausted,queue_hwm,"
            "torn_writes,bit_flips,log_rewrites,log_truncated,stuck");
}

// Every row's printf conversion must fit its type: the formatter passes
// doubles as double, signed and bool fields as int, and unsigned fields as
// unsigned long long.
TEST(CounterTableTest, FormatsMatchFieldTypes) {
  ForEachField(RunResult{}, [](const FieldInfo& field, auto value) {
    using T = decltype(value);
    const std::string format = field.format;
    if constexpr (std::is_floating_point_v<T>) {
      EXPECT_EQ(format.back(), 'f') << field.name;
    } else if constexpr (std::is_same_v<T, bool> || std::is_signed_v<T>) {
      EXPECT_EQ(format, "%d") << field.name;
    } else {
      EXPECT_EQ(format, "%llu") << field.name;
    }
  });
}

TEST(CounterTableTest, SummaryListsActiveSourcesWithinEightyColumns) {
  RunResult r;
  r.commits = 12;
  r.rpc_retries = 123456;
  r.throughput_tps = 4.0;  // a Calc row: never summarized
  r.messages = 99;
  r.oracle_edges = 7;
  const std::string summary = CounterSummary(r, "> ");
  EXPECT_EQ(summary.rfind("> metrics            : commits 12, aborts 0", 0),
            0u)
      << summary;
  EXPECT_NE(summary.find("rpc_retries 123456"), std::string::npos);
  EXPECT_NE(summary.find("> network            : messages 99, packets 0\n"),
            std::string::npos);
  EXPECT_NE(summary.find("oracle_edges 7"), std::string::npos);
  EXPECT_NE(summary.find("oracle_scc_checks 0"), std::string::npos);
  EXPECT_EQ(summary.find("throughput"), std::string::npos);
  EXPECT_EQ(summary.find("server "), std::string::npos);  // all zero
  EXPECT_EQ(summary.find("injector"), std::string::npos);
  std::istringstream lines(summary);
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    EXPECT_LE(line.size(), 80u) << line;
    EXPECT_EQ(line.rfind("> ", 0), 0u) << line;
    ++count;
  }
  EXPECT_GT(count, 3);  // the metrics source wraps
}

}  // namespace
}  // namespace ccsim::runner
