// Differential test of the oracle's retirement (ctest label "oracle").
//
// Synthetic histories of 50 clients over a few hundred pages, at least
// 4·H commits long (H = Oracle::kHorizon), are fed straight to an Oracle
// with abort_on_violation off, and compared with a reference that keeps
// every transaction: it derives every edge from the whole history and
// searches the whole graph for a cycle from scratch. Injected anomalies:
//  (a) write skew between two transactions of chosen ages;
//  (b) a committed stale read whose overwriter is still retained (young,
//      or older than H but kept by an in-edge from a retained node);
//  (c) a committed stale read whose overwriter has retired.
// (a) and (b) must report the reference's cycle, naming the same original
// transactions; (c) must report the stale read beyond the horizon; a clean
// history reports nothing and counts the reference's edges.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "check/oracle.h"
#include "oracle_history.h"

namespace ccsim {
namespace {

using check::Oracle;
using check::PageVersion;

constexpr int kH = Oracle::kHorizon;
constexpr int kClients = 50;
constexpr int kPages = 300;
/// First page of those the background never touches.
constexpr db::PageId kInjected = 1000;

Oracle::Options NonFatalOptions() {
  Oracle::Options options;
  options.abort_on_violation = false;
  options.context = "oracle_retirement_test";
  return options;
}

/// Keeps every transaction fed and answers from scratch.
class Reference {
 public:
  void Add(const SyntheticHistory& history) {
    txns_.push_back({history.xact(), history.reads(), history.writes()});
  }

  /// Every distinct edge, as pairs of indexes into the history: writer of
  /// v → reader of v (WR), writer of v → writer of v + 1 (WW), reader of v
  /// → writer of v + 1 (RW).
  std::set<std::pair<int, int>> Edges() const {
    std::map<PageVersion, int> writer;
    for (int i = 0; i < static_cast<int>(txns_.size()); ++i) {
      for (const PageVersion& w : txns_[static_cast<std::size_t>(i)].writes) {
        writer[w] = i;
      }
    }
    auto writer_of = [&writer](const PageVersion& key) {
      auto it = writer.find(key);
      return it == writer.end() ? -1 : it->second;
    };
    std::set<std::pair<int, int>> edges;
    auto add = [&edges](int from, int to) {
      if (from >= 0 && to >= 0 && from != to) {
        edges.emplace(from, to);
      }
    };
    for (int i = 0; i < static_cast<int>(txns_.size()); ++i) {
      const Txn& t = txns_[static_cast<std::size_t>(i)];
      for (const auto& [page, version] : t.reads) {
        add(writer_of({page, version}), i);
        add(i, writer_of({page, version + 1}));
      }
      for (const auto& [page, version] : t.writes) {
        add(writer_of({page, version - 1}), i);
      }
    }
    return edges;
  }

  /// The xact ids on a cycle of the whole graph, or empty if it is acyclic.
  std::set<std::uint64_t> Cycle() const {
    const int n = static_cast<int>(txns_.size());
    std::vector<std::vector<int>> out(static_cast<std::size_t>(n));
    for (const auto& [from, to] : Edges()) {
      out[static_cast<std::size_t>(from)].push_back(to);
    }
    enum Color { kWhite, kGray, kBlack };
    std::vector<Color> color(static_cast<std::size_t>(n), kWhite);
    for (int root = 0; root < n; ++root) {
      if (color[static_cast<std::size_t>(root)] != kWhite) {
        continue;
      }
      // Iterative DFS; `path` holds the gray nodes with their next child.
      std::vector<std::pair<int, std::size_t>> path = {{root, 0}};
      color[static_cast<std::size_t>(root)] = kGray;
      while (!path.empty()) {
        auto& [node, child] = path.back();
        const auto& next = out[static_cast<std::size_t>(node)];
        if (child == next.size()) {
          color[static_cast<std::size_t>(node)] = kBlack;
          path.pop_back();
          continue;
        }
        const int to = next[child++];
        if (color[static_cast<std::size_t>(to)] == kGray) {
          std::set<std::uint64_t> cycle;
          for (auto it = path.rbegin(); it != path.rend(); ++it) {
            cycle.insert(txns_[static_cast<std::size_t>(it->first)].xact);
            if (it->first == to) {
              break;
            }
          }
          return cycle;
        }
        if (color[static_cast<std::size_t>(to)] == kWhite) {
          color[static_cast<std::size_t>(to)] = kGray;
          path.emplace_back(to, 0);
        }
      }
    }
    return {};
  }

 private:
  struct Txn {
    std::uint64_t xact;
    std::vector<PageVersion> reads;
    std::vector<PageVersion> writes;
  };
  std::vector<Txn> txns_;
};

/// Feeds one history to the oracle under test and to the reference.
class Differential {
 public:
  Differential() : history_(kClients, kPages, /*seed=*/42) {}

  void Background(int commits) {
    for (int i = 0; i < commits; ++i) {
      history_.NextBackground();
      Commit();
    }
  }

  /// Starts an injected transaction; finish it with Commit().
  SyntheticHistory& Begin() {
    history_.Begin();
    return history_;
  }

  /// Commits the transaction built last; returns its xact id.
  std::uint64_t Commit() {
    history_.FeedTo(oracle_);
    reference_.Add(history_);
    return history_.xact();
  }

  /// The xact ids the oracle's violation report names ("T<id> (client").
  std::set<std::uint64_t> ReportedXacts() const {
    static constexpr std::string_view kAfter = " (client";
    const std::string& report = oracle_.violation_report();
    std::set<std::uint64_t> xacts;
    for (std::size_t at = report.find('T'); at != std::string::npos;
         at = report.find('T', at + 1)) {
      std::size_t end = at + 1;
      while (end < report.size() &&
             std::isdigit(static_cast<unsigned char>(report[end])) != 0) {
        ++end;
      }
      if (end > at + 1 && report.compare(end, kAfter.size(), kAfter) == 0) {
        xacts.insert(std::stoull(report.substr(at + 1, end - at - 1)));
      }
    }
    return xacts;
  }

  Oracle& oracle() { return oracle_; }
  const Reference& reference() const { return reference_; }

 private:
  SyntheticHistory history_;
  Oracle oracle_{NonFatalOptions()};
  Reference reference_;
};

TEST(OracleRetirementTest, CleanHistoryMatchesTheReference) {
  Differential d;
  d.Background(4 * kH + 500);
  EXPECT_TRUE(d.oracle().violation_report().empty())
      << d.oracle().violation_report();
  EXPECT_TRUE(d.reference().Cycle().empty());
  // Edges from retired sources are counted, each once, like stored ones.
  EXPECT_EQ(d.oracle().edges(), d.reference().Edges().size());
  EXPECT_EQ(d.oracle().scc_checks(), 0u);
  EXPECT_EQ(d.oracle().retained_nodes(), static_cast<std::size_t>(kH) + 1);
}

/// T1 and T2 both read x and y at version 1; T1 writes x, then `age`
/// commits later T2 writes y: the anti-dependencies T1 → T2 (y) and
/// T2 → T1 (x) form a 2-cycle. Returns {T1, T2}.
std::set<std::uint64_t> InjectWriteSkew(Differential& d, int age,
                                        db::PageId x, db::PageId y) {
  SyntheticHistory& t1 = d.Begin();
  t1.Read(x);
  t1.Read(y);
  t1.Write(x);
  const std::uint64_t first = d.Commit();
  d.Background(age - 1);
  SyntheticHistory& t2 = d.Begin();
  t2.Read(x, 1);
  t2.Read(y);
  t2.Write(y);
  return {first, d.Commit()};
}

TEST(OracleRetirementTest, WriteSkewWithinTheHorizonIsTheReferenceCycle) {
  // Up to age H + 1 the first transaction is still retained when the
  // second commits (a node retires once it is more than H commits old).
  for (int age : {1, 100, kH, kH + 1}) {
    SCOPED_TRACE(age);
    Differential d;
    d.Background(2 * kH);
    const std::set<std::uint64_t> skew =
        InjectWriteSkew(d, age, kInjected, kInjected + 1);
    d.Background(2 * kH);
    const std::string& report = d.oracle().violation_report();
    ASSERT_NE(report.find("cycle of 2"), std::string::npos) << report;
    EXPECT_NE(report.find("RW"), std::string::npos);
    EXPECT_EQ(d.reference().Cycle(), skew);
    EXPECT_EQ(d.ReportedXacts(), skew);
  }
}

TEST(OracleRetirementTest, WriteSkewBeyondTheHorizonIsAStaleReadVerdict) {
  for (int age : {kH + 2, 2 * kH}) {
    SCOPED_TRACE(age);
    Differential d;
    d.Background(2 * kH);
    const std::set<std::uint64_t> skew =
        InjectWriteSkew(d, age, kInjected, kInjected + 1);
    d.Background(kH);
    const std::string& report = d.oracle().violation_report();
    ASSERT_NE(report.find("stale read beyond the horizon"), std::string::npos)
        << report;
    EXPECT_EQ(d.reference().Cycle(), skew);
    // The verdict names the reader (T2), the page and the version read.
    EXPECT_EQ(d.ReportedXacts(), std::set<std::uint64_t>{*skew.rbegin()});
    EXPECT_NE(report.find("read of page 1000 at v1,"), std::string::npos);
  }
}

TEST(OracleRetirementTest, StaleReadOfAYoungOverwriterIsTheReferenceCycle) {
  // Tw installs z and u; Tm reads u and installs q; Tr reads q but reads z
  // at the version Tw overwrote: Tw → Tm → Tr → Tw.
  const db::PageId z = kInjected, u = kInjected + 1, q = kInjected + 2;
  Differential d;
  d.Background(2 * kH);
  SyntheticHistory& tw = d.Begin();
  tw.Read(z);
  tw.Read(u);
  tw.Write(z);
  tw.Write(u);
  const std::uint64_t writer = d.Commit();
  d.Background(3);
  SyntheticHistory& tm = d.Begin();
  tm.Read(u);
  tm.Write(q);
  const std::uint64_t middle = d.Commit();
  d.Background(3);
  SyntheticHistory& tr = d.Begin();
  tr.Read(q);
  tr.Read(z, 1);
  const std::uint64_t reader = d.Commit();
  d.Background(2 * kH);
  const std::set<std::uint64_t> cycle = {writer, middle, reader};
  const std::string& report = d.oracle().violation_report();
  ASSERT_NE(report.find("cycle of 3"), std::string::npos) << report;
  EXPECT_EQ(d.reference().Cycle(), cycle);
  EXPECT_EQ(d.ReportedXacts(), cycle);
}

TEST(OracleRetirementTest, PinnedOverwriterOlderThanTheHorizonStaysInTheCycle) {
  // P installs a and b. N reads a at the version P overwrote (N → P, no
  // cycle yet) and installs w. More than H commits later X reads P's b
  // (P → X) and w at the version N overwrote (X → N): P → X → N → P. P has
  // an in-edge from a retained node all along, so neither it nor anything
  // newer may retire; otherwise the cycle would be missed.
  const db::PageId a = kInjected, b = kInjected + 1, w = kInjected + 2;
  Differential d;
  d.Background(2 * kH);
  SyntheticHistory& p = d.Begin();
  p.Read(a);
  p.Read(b);
  p.Write(a);
  p.Write(b);
  const std::uint64_t pinned = d.Commit();
  d.Background(5);
  SyntheticHistory& n = d.Begin();
  n.Read(a, 1);
  n.Read(w);
  n.Write(w);
  const std::uint64_t stale = d.Commit();
  d.Background(kH + 50);
  EXPECT_TRUE(d.oracle().violation_report().empty());
  EXPECT_GT(d.oracle().retained_nodes(), static_cast<std::size_t>(kH) + 50);
  SyntheticHistory& x = d.Begin();
  x.Read(b);
  x.Read(w, 1);
  const std::uint64_t closer = d.Commit();
  d.Background(kH);
  const std::set<std::uint64_t> cycle = {pinned, stale, closer};
  const std::string& report = d.oracle().violation_report();
  ASSERT_NE(report.find("cycle of 3"), std::string::npos) << report;
  EXPECT_EQ(d.reference().Cycle(), cycle);
  EXPECT_EQ(d.ReportedXacts(), cycle);
}

TEST(OracleRetirementTest, StaleReadOfARetiredOverwriterIsReported) {
  // Tw overwrites c; 2·H commits later Tr reads c at the old version. The
  // read alone closes no cycle (the reference finds none), but the graph
  // no longer holds Tw, so the oracle cannot check it and says so.
  const db::PageId c = kInjected;
  Differential d;
  d.Background(2 * kH);
  SyntheticHistory& tw = d.Begin();
  tw.Read(c);
  tw.Write(c);
  d.Commit();
  d.Background(2 * kH);
  SyntheticHistory& tr = d.Begin();
  tr.Read(c, 1);
  const std::uint64_t reader = d.Commit();
  d.Background(100);
  const std::string& report = d.oracle().violation_report();
  ASSERT_NE(report.find("stale read beyond the horizon"), std::string::npos)
      << report;
  EXPECT_EQ(d.ReportedXacts(), std::set<std::uint64_t>{reader});
  EXPECT_NE(report.find("read of page 1000 at v1,"), std::string::npos);
  EXPECT_TRUE(d.reference().Cycle().empty());
}

}  // namespace
}  // namespace ccsim
