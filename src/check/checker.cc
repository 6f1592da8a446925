#include "check/checker.h"

#include <utility>

#include "util/macros.h"

namespace ccsim::check {

Checker::Checker(const db::VersionTable* versions, Options options)
    : versions_(versions),
      audit_epoch_commits_(options.audit_epoch_commits),
      oracle_(std::move(options.oracle),
              versions != nullptr ? versions->size() : std::size_t{0}) {
  CCSIM_CHECK(audit_epoch_commits_ > 0);
}

void Checker::OnCommit(int client, std::uint64_t xact, std::int64_t at,
                       std::span<const PageVersion> reads,
                       std::span<const PageVersion> writes) {
  oracle_.OnCommit(client, xact, at, reads, writes);
  if (!audit_hook_ || ++commits_since_audit_ < audit_epoch_commits_) {
    return;
  }
  commits_since_audit_ = 0;
  ++audits_;
  audit_hook_();
}

void Checker::OnAbortObserved(int client, std::uint64_t xact) {
  oracle_.OnAbortObserved(client, xact);
}

void Checker::NoteStaleCommitRead(int client, std::uint64_t xact,
                                  db::PageId page, std::uint64_t read_version,
                                  std::uint64_t current_version) {
  oracle_.NoteStaleCommitRead(client, xact, page, read_version,
                              current_version);
}

void Checker::OnUnknownOutcome(std::uint64_t xact) {
  oracle_.OnUnknownOutcome(xact);
}

void Checker::OnTrustedLocalRead(int client, db::PageId page,
                                 std::uint64_t version, bool retained_lock,
                                 std::int64_t lease_until, std::int64_t now,
                                 bool fault_free) {
  // The currency check asks "was the cached copy current when the client
  // used it", so the lookup happens now.
  std::uint64_t current = 0;
  if (retained_lock && fault_free && versions_ != nullptr) {
    current = versions_->Get(page);
  }
  oracle_.OnTrustedLocalRead(client, page, version, retained_lock,
                             lease_until, now, fault_free, current);
}

}  // namespace ccsim::check
