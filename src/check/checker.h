#ifndef CCSIM_CHECK_CHECKER_H_
#define CCSIM_CHECK_CHECKER_H_

#include <cstdint>
#include <functional>
#include <span>
#include <utility>

#include "check/oracle.h"
#include "db/database.h"

namespace ccsim::check {

/// Front-end of the consistency checker: the object every component
/// reaches through `metrics().checker()` (null = checking off). Each feed
/// call applies its record to the Oracle behind it at the call site, on
/// the calling thread, so a violation aborts inside the call that fed it,
/// with the offending commit on the stack.
///
/// The structural coherence audit (directory / buffer pool / client cache
/// walk) reads live simulation structures, so it runs epoch-batched: once
/// every `audit_epoch_commits` commits instead of at every commit, with the
/// cadence driven by the deterministic commit count.
class Checker {
 public:
  struct Options {
    /// Structural audit cadence in commits (1 = every commit).
    std::uint64_t audit_epoch_commits = 32;
    /// Oracle settings (violation handling, run context label).
    Oracle::Options oracle;
  };

  /// `versions` is the server's durable version table, used to resolve
  /// "latest committed version" for trusted-read currency checks at use
  /// time. May be null in unit tests.
  Checker(const db::VersionTable* versions, Options options);

  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;

  // --- feed (mirrors the Oracle surface) ---

  void OnCommit(int client, std::uint64_t xact, std::int64_t at,
                std::span<const PageVersion> reads,
                std::span<const PageVersion> writes);
  void OnAbortObserved(int client, std::uint64_t xact);
  void NoteStaleCommitRead(int client, std::uint64_t xact, db::PageId page,
                           std::uint64_t read_version,
                           std::uint64_t current_version);
  void OnUnknownOutcome(std::uint64_t xact);
  /// Resolves the page's current committed version here, at use time.
  void OnTrustedLocalRead(int client, db::PageId page, std::uint64_t version,
                          bool retained_lock, std::int64_t lease_until,
                          std::int64_t now, bool fault_free);
  /// Counter only (the structural checks live in
  /// ClientCache::AuditEndOfAttempt).
  void NoteClientAudit() { ++client_audits_; }

  // --- invariant auditor (epoch-batched) ---

  void set_audit_hook(std::function<void()> hook) {
    audit_hook_ = std::move(hook);
  }

  /// Recovery audit point: the stateless post-recovery invariants.
  void AuditPostRecovery(std::size_t active_xacts, std::size_t locks_held,
                         std::size_t uncommitted_frames) {
    oracle_.AuditPostRecovery(active_xacts, locks_held, uncommitted_frames);
  }

  // --- end of run ---

  /// End of the run. Every record was applied when it was fed, so there is
  /// nothing left to do; the Oracle may be read (and Finalized) at any time.
  void Finish() {}

  Oracle& oracle() { return oracle_; }
  std::uint64_t audits() const { return audits_; }
  std::uint64_t client_audits() const { return client_audits_; }

 private:
  const db::VersionTable* versions_;
  const std::uint64_t audit_epoch_commits_;
  Oracle oracle_;

  std::function<void()> audit_hook_;
  std::uint64_t audits_ = 0;
  std::uint64_t client_audits_ = 0;
  std::uint64_t commits_since_audit_ = 0;
};

}  // namespace ccsim::check

#endif  // CCSIM_CHECK_CHECKER_H_
