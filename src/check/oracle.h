#ifndef CCSIM_CHECK_ORACLE_H_
#define CCSIM_CHECK_ORACLE_H_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "check/serialization_graph.h"
#include "db/database.h"

namespace ccsim::check {

/// A (page, version) pair: an element of a commit's read or write set.
using PageVersion = std::pair<db::PageId, std::uint64_t>;

/// Run-time-optional consistency oracle: observes every committed
/// transaction's read set (page, version seen) and write set (page, version
/// installed) at the server's commit point, maintains the direct
/// serialization graph online, and aborts the run with a cycle dump the
/// moment a non-serializable history commits. The graph holds only recent
/// history: a node more than kHorizon commits old that no retained node has
/// an edge into is retired (it can no longer lie on a cycle), so a commit
/// costs O(its read and write sets) and the state held is bounded by the
/// horizon. A committed read of a version whose overwriter has retired is
/// reported as a violation of its own (a stale read beyond the horizon).
///
/// A coherence invariant auditor rides along: the check::Checker's audit
/// hook (installed by the experiment runner) checks client caches, the lock
/// table, no-wait-notify's caching directory, and the buffer pool once per
/// audit epoch, and protocol code reports trusted local reads and unknown
/// commit outcomes so structural invariants are checked where they are
/// claimed, not where they fail.
///
/// One oracle is owned per run and touches neither the event calendar nor
/// any RNG stream, so checker-on runs are deterministic at any sweep
/// `--jobs` value and checker-off runs are bit-identical to a build without
/// the checker (every hook is a null-pointer branch).
///
/// The oracle is single-threaded: it trusts its caller to serialize the
/// feed. In production the check::Checker front-end applies every record at
/// its call site; currency lookups are resolved by the caller at use time,
/// so nothing here touches live simulation state.
class Oracle {
 public:
  /// H: a node is retired once it is more than this many commits old (and
  /// unpinned). Every protocol here commits only current reads, so on a
  /// correct run nothing ever points that far back.
  static constexpr int kHorizon = 1024;

  struct Options {
    /// Dump and std::abort() on a violation (the production setting; unit
    /// tests clear it and inspect the violation report instead).
    bool abort_on_violation = true;
    /// Free-form run label ("callback, seed 7") printed with violations.
    std::string context;
  };

  /// The per-page table reserves room for `total_pages` pages (the checker
  /// passes its version table's size) and reaches a page's state when the
  /// page is first committed; tests feeding hand-built histories may leave
  /// it 0.
  explicit Oracle(Options options, std::size_t total_pages = 0);

  Oracle(const Oracle&) = delete;
  Oracle& operator=(const Oracle&) = delete;

  // --- commit-point feed (server) ---

  /// A transaction committed: `reads` holds (page, version read) and
  /// `writes` (page, version installed). Feeds the serialization graph;
  /// fatal (with cycle dump) if the history stops being serializable.
  /// Each client's transactions must commit in rising id order (the server
  /// refuses an attempt older than one it has finished); a repeat or an
  /// older id is fatal ("committed twice").
  void OnCommit(int client, std::uint64_t xact, std::int64_t at,
                std::span<const PageVersion> reads,
                std::span<const PageVersion> writes);

  /// Convenience overload for tests that feed hand-built histories.
  void OnCommit(int client, std::uint64_t xact, std::int64_t at,
                const std::vector<PageVersion>& reads,
                const std::vector<PageVersion>& writes) {
    OnCommit(client, xact, at, std::span<const PageVersion>(reads),
             std::span<const PageVersion>(writes));
  }

  /// A server-side transaction of `client` was aborted (abort pipeline,
  /// GC, or crash). Only consumed by unknown-outcome reconciliation.
  void OnAbortObserved(int client, std::uint64_t xact);
  /// The same from a feed that does not know the client (hand-built
  /// histories): it resolves only an outcome already reported unknown.
  void OnAbortObserved(std::uint64_t xact);

  /// A commit carried a read of `read_version` while `current_version` was
  /// already committed. With the oracle attached this is evidence, not yet
  /// proof, of a violation — the graph decides — but it is recorded as
  /// provenance for the eventual cycle dump.
  void NoteStaleCommitRead(int client, std::uint64_t xact, db::PageId page,
                           std::uint64_t read_version,
                           std::uint64_t current_version);

  // --- client-side feeds ---

  /// A commit RPC whose outcome the client never learned.
  void OnUnknownOutcome(std::uint64_t xact);

  /// A client served a read from its cache without contacting the server
  /// (retained callback lock or leased notified copy). Asserts the trust is
  /// justified at the moment of use: the lease (if any) has not expired,
  /// and — for retained locks on a fault-free run, where no crash/GC window
  /// exists — the cached version is the latest committed one.
  /// `current_version` is the latest committed version of `page` resolved
  /// by the caller *at use time* (0 = not resolved / skip the currency
  /// check), so the oracle never reads live server state.
  void OnTrustedLocalRead(int client, db::PageId page, std::uint64_t version,
                          bool retained_lock, std::int64_t lease_until,
                          std::int64_t now, bool fault_free,
                          std::uint64_t current_version);

  // --- invariant auditor ---

  /// Post-recovery structural invariants: a freshly-replayed server has no
  /// active transactions, holds no locks, and owns no uncommitted frames.
  void AuditPostRecovery(std::size_t active_xacts, std::size_t locks_held,
                         std::size_t uncommitted_frames);

  // --- end of run ---

  /// Reconciles unknown outcomes against the committed set: each must have
  /// resolved to exactly one of committed / aborted, and the client-side
  /// count must match `reported_unknown_outcomes` from the metrics report.
  void Finalize(std::uint64_t reported_unknown_outcomes);

  // --- counters (surfaced in RunResult / report.cc) ---

  std::uint64_t commits_observed() const { return commits_observed_; }
  std::uint64_t edges() const { return graph_.edge_count(); }
  std::uint64_t scc_checks() const { return graph_.reorder_checks(); }
  std::uint64_t max_frontier() const { return graph_.max_frontier(); }
  /// The state held: retained graph nodes, stored edges, and retained
  /// per-page write entries. Bounded by the horizon on a clean history.
  std::size_t retained_nodes() const { return graph_.node_count(); }
  std::uint64_t stored_edges() const { return graph_.stored_edge_count(); }
  std::uint64_t retained_writes() const { return writes_.size(); }
  std::uint64_t trusted_reads() const { return trusted_reads_; }
  std::uint64_t stale_commit_reads() const { return stale_commit_reads_; }
  std::uint64_t unknown_resolved_committed() const {
    return unknown_resolved_committed_;
  }
  std::uint64_t unknown_resolved_aborted() const {
    return unknown_resolved_aborted_;
  }

  /// Non-empty once a serializability violation was detected (tests with
  /// abort_on_violation off read this; production runs never get here).
  const std::string& violation_report() const { return violation_report_; }

 private:
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};

  /// A retained node's transaction.
  struct XactInfo {
    int client = 0;
    std::uint64_t xact = 0;
    std::int64_t at = 0;
    /// writes_.end() when it committed: its writes start here.
    std::uint64_t first_write = 0;
  };

  /// One committed write of a retained node. Its page's earlier writes are
  /// reached through `prev`, one version down per step.
  struct WriteEntry {
    int writer = -1;
    /// The writer of the version this one replaced (-1: none observed).
    int prev_writer = -1;
    std::uint64_t prev = kNone;
  };

  /// A node that read its page's latest version, listed until the page is
  /// next written; entries live in one pool with a free list.
  struct ReaderEntry {
    int node = -1;
    std::uint32_t next = 0;
  };
  static constexpr std::uint32_t kNoReader = ~std::uint32_t{0};

  /// Per-page bookkeeping over the committed version chain. Versions are
  /// dense (each committed write bumps by exactly one), which the oracle
  /// asserts and then exploits: the retained writes of a page are a chain
  /// of consecutive versions ending at `latest`.
  struct PageState {
    /// Latest committed version seen so far; 0 until first observation
    /// (reads of untouched pages establish the baseline lazily).
    std::uint64_t latest = 0;
    /// The first version seen written; meaningful once latest_writer >= 0.
    std::uint64_t first_written = 0;
    /// writes_ index of the write that installed `latest` (kNone: none).
    std::uint64_t newest_write = kNone;
    /// Node that installed `latest`, retained or not; -1 until a write.
    int latest_writer = -1;
    std::uint32_t readers_head = kNoReader;
    std::uint32_t readers_tail = kNoReader;
  };

  /// What the oracle keeps per client: the newest transaction it committed
  /// and the newest the server aborted. A client runs its attempts one at
  /// a time with rising ids, so a transaction whose outcome it reports
  /// unknown is its newest attempt.
  struct ClientLog {
    std::uint64_t last_committed = 0;
    std::uint64_t last_aborted = 0;
  };

  struct Outcome {
    bool committed = false;
    bool aborted = false;
  };

  /// The page's state; grows the table to reach it.
  PageState& StateOf(db::PageId page);
  ClientLog& LogOf(int client);

  /// writes_ index of the retained write that installed `version` of the
  /// page, or kNone once it has retired.
  std::uint64_t RetainedWrite(const PageState& ps,
                              std::uint64_t version) const;
  void AddReader(PageState& ps, int node);
  /// Adds `from → to`, or counts it at the end of the commit if `from` has
  /// retired.
  void AddEdgeChecked(int from, int to, EdgeKind kind, db::PageId page,
                      std::uint64_t version);
  /// Retires nodes older than the horizon, with their writes.
  void Retire();
  /// Formats + records the violation; aborts unless tests disabled that.
  void Violate(const SerializationGraph::Cycle& cycle);
  /// `node` committed a read of `page` at `version`, and the transaction
  /// that overwrote it has retired.
  void ViolateBeyondHorizon(int node, db::PageId page, std::uint64_t version);
  /// Appends the stale-read evidence, then records / aborts.
  void Report(std::string report);
  std::string DescribeNode(int node) const;

  Options options_;
  SerializationGraph graph_;
  /// Retained nodes' transactions; index = node id.
  FifoRing<XactInfo> info_;
  /// Retained nodes' writes, in commit order.
  FifoRing<WriteEntry> writes_;
  std::vector<ReaderEntry> readers_;
  std::uint32_t free_readers_ = kNoReader;
  /// Indexed by page id, up to the largest page committed so far.
  std::vector<PageState> pages_;
  /// Sources of this commit's in-edges that have retired (deduplicated and
  /// counted at the end of the commit).
  std::vector<int> retired_sources_;

  /// Indexed by client id.
  std::vector<ClientLog> clients_;
  std::unordered_map<std::uint64_t, Outcome> unknown_;
  std::vector<std::string> stale_notes_;

  std::uint64_t commits_observed_ = 0;
  std::uint64_t trusted_reads_ = 0;
  std::uint64_t stale_commit_reads_ = 0;
  std::uint64_t unknown_resolved_committed_ = 0;
  std::uint64_t unknown_resolved_aborted_ = 0;
  std::string violation_report_;
  bool finalized_ = false;
};

}  // namespace ccsim::check

#endif  // CCSIM_CHECK_ORACLE_H_
