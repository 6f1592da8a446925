#ifndef CCSIM_CHECK_CHECKER_H_
#define CCSIM_CHECK_CHECKER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "check/oracle.h"
#include "db/database.h"
#include "util/arena.h"

namespace ccsim::check {

/// Front-end of the consistency checker: the object every component
/// reaches through `metrics().checker()` (null = checking off). It owns
/// the verification pipeline; the Oracle behind it holds the actual
/// serialization graph and invariant logic.
///
/// Two modes, selected by CheckerParams::pipelined:
///
///  - **Pipelined** (production): every feed call only copies a compact
///    record — fixed fields plus read/write version sets bump-allocated
///    from a per-epoch util::Arena — into a bounded SPSC ring, and a
///    dedicated verification thread drains it in FIFO order into the
///    Oracle. The commit path never runs graph maintenance. When the ring
///    is full the producer stalls (backpressure — records are never
///    dropped), and a drain barrier at end-of-run / recovery audit points
///    guarantees every verdict lands before counters are read.
///
///  - **Synchronous** (equivalence baseline for tests): each record is
///    applied to the Oracle inline at the call site. Because the pipeline
///    preserves feed order exactly and resolves every currency lookup on
///    the sim thread at feed time, both modes produce byte-identical
///    verdicts, cycle dumps, and counters.
///
/// The structural coherence audit (directory / buffer pool / client cache
/// walk) must read live simulation structures, so it always runs on the
/// sim thread — but epoch-batched: once every `audit_epoch_commits`
/// commits instead of at every commit, in both modes, with the cadence
/// driven by the deterministic commit count.
class Checker {
 public:
  struct Options {
    /// False = apply records synchronously at the call site.
    bool pipelined = true;
    /// Bounded record ring capacity (pipelined mode).
    std::size_t queue_capacity = 4096;
    /// Per-epoch arena capacity for read/write set payloads.
    std::size_t arena_bytes = 1 << 18;
    /// Structural audit cadence in commits (1 = every commit).
    std::uint64_t audit_epoch_commits = 32;
    /// Oracle settings (violation handling, run context label).
    Oracle::Options oracle;
  };

  /// `versions` is the server's durable version table, used to resolve
  /// "latest committed version" for trusted-read currency checks at feed
  /// time on the sim thread. May be null in unit tests.
  Checker(const db::VersionTable* versions, Options options);
  ~Checker();

  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;

  // --- sim-thread feed (mirrors the Oracle surface) ---

  void OnCommit(int client, std::uint64_t xact, std::int64_t at,
                std::span<const PageVersion> reads,
                std::span<const PageVersion> writes);
  void OnAbortObserved(int client, std::uint64_t xact);
  void NoteStaleCommitRead(int client, std::uint64_t xact, db::PageId page,
                           std::uint64_t read_version,
                           std::uint64_t current_version);
  void OnUnknownOutcome(std::uint64_t xact);
  /// Resolves the page's current committed version here (use time, sim
  /// thread) so the record is pure data by the time the verifier sees it.
  void OnTrustedLocalRead(int client, db::PageId page, std::uint64_t version,
                          bool retained_lock, std::int64_t lease_until,
                          std::int64_t now, bool fault_free);
  /// Pure sim-thread counter (the structural checks live in
  /// ClientCache::AuditEndOfAttempt) — never routed through the queue.
  void NoteClientAudit();

  // --- invariant auditor (sim thread, epoch-batched) ---

  void set_audit_hook(std::function<void()> hook) {
    audit_hook_ = std::move(hook);
  }

  /// Recovery audit point: drain barrier, then the stateless post-recovery
  /// invariants — any violation queued before the crash surfaces first.
  void AuditPostRecovery(std::size_t active_xacts, std::size_t locks_held,
                         std::size_t uncommitted_frames);

  // --- end of run ---

  /// Drain barrier + verification thread join. After this returns the
  /// Oracle has applied every record and may be read (and Finalized) from
  /// the calling thread. Idempotent; also run by the destructor.
  void Finish();

  /// Drain barrier only: blocks until the verifier has applied everything
  /// enqueued so far. No-op in synchronous mode.
  void Drain();

  Oracle& oracle() { return *oracle_; }
  std::uint64_t audits() const { return audits_; }
  std::uint64_t client_audits() const { return client_audits_; }

  /// TEST ONLY: invoked on the verification thread before each record is
  /// applied (lets tests stall the consumer to observe backpressure).
  void set_test_observe_hook(std::function<void()> hook) {
    test_observe_hook_ = std::move(hook);
  }

 private:
  struct Record {
    enum class Kind : std::uint8_t {
      kCommit,
      kAbortObserved,
      kUnknownOutcome,
      kStaleCommitRead,
      kTrustedRead,
    };
    Kind kind{};
    bool retained_lock = false;
    bool fault_free = false;
    int client = 0;
    std::uint64_t xact = 0;
    std::int64_t at = 0;  // commit tick, or "now" for trusted reads
    db::PageId page = 0;
    std::uint64_t version = 0;
    std::uint64_t current_version = 0;
    std::int64_t lease_until = 0;
    const PageVersion* reads = nullptr;
    const PageVersion* writes = nullptr;
    std::uint32_t read_count = 0;
    std::uint32_t write_count = 0;
  };

  /// Applies one record to the Oracle (verification thread in pipelined
  /// mode; the sim thread in synchronous mode).
  void Apply(const Record& record);

  /// Enqueues (pipelined) or applies (synchronous) one record.
  void Submit(const Record& record);

  /// Blocks until the ring has a free slot, then publishes the record.
  void Enqueue(const Record& record);

  /// Slow path: sleeps the sim thread until tail_ >= target.
  void WaitForTail(std::uint64_t target);

  /// Returns an arena with room for `page_count` PageVersion entries,
  /// rotating to the next epoch (waiting for the verifier to release it)
  /// when the current one is full.
  util::Arena* EnsureEpochSpace(std::size_t page_count);
  static const PageVersion* CopyPayload(util::Arena* arena,
                                        std::span<const PageVersion> pages);

  void VerifierMain();
  void MaybeAudit();

  const db::VersionTable* versions_;
  Options options_;
  std::unique_ptr<Oracle> oracle_;

  std::function<void()> audit_hook_;
  std::uint64_t audits_ = 0;
  std::uint64_t client_audits_ = 0;
  std::uint64_t commits_since_audit_ = 0;

  // --- pipelined mode state ---
  // Lock-free SPSC fast path: the producer publishes a slot with a
  // release store of head_, the consumer acquires it and — only *after*
  // applying the record — bumps tail_ with a release store. That ordering
  // is what makes epoch-arena reuse safe: an arena is recycled only once
  // tail_ has passed every record pointing into it. The mutex + condvars
  // exist purely for the blocking edges (empty consumer, full ring, arena
  // retirement, drain barrier); `consumer_idle_` / `producer_wake_at_`
  // are the Dekker-style flags that let the fast path skip the mutex —
  // both sides use seq_cst for flag + counter so a publish and a
  // going-to-sleep can never miss each other.
  std::vector<Record> ring_;
  /// Idle-consumer wakeup threshold (quarter ring): below this backlog an
  /// idle verifier is left asleep and records simply accumulate.
  std::uint64_t wake_backlog_ = 1;
  std::atomic<std::uint64_t> head_{0};  // records produced
  std::atomic<std::uint64_t> tail_{0};  // records fully applied
  bool stop_ = false;
  /// Set (under mutex_) before the consumer sleeps on not_empty_.
  std::atomic<bool> consumer_idle_{false};
  /// Tail value the sim thread is waiting for (full ring / retirement /
  /// drain); UINT64_MAX when nobody waits. Only one sim-thread waiter can
  /// exist at a time, so a single threshold suffices.
  std::atomic<std::uint64_t> producer_wake_at_{~std::uint64_t{0}};
  std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;

  static constexpr std::size_t kEpochArenas = 4;
  std::unique_ptr<util::Arena> arenas_[kEpochArenas];
  /// head_ value at which each arena was retired; reusable once tail_
  /// catches up.
  std::uint64_t retired_at_[kEpochArenas] = {};
  std::size_t current_arena_ = 0;

  std::function<void()> test_observe_hook_;
  std::thread verifier_;
  bool finished_ = false;
};

}  // namespace ccsim::check

#endif  // CCSIM_CHECK_CHECKER_H_
