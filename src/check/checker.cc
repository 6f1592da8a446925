#include "check/checker.h"

#include <algorithm>
#include <utility>

#include "util/macros.h"

namespace ccsim::check {

Checker::Checker(const db::VersionTable* versions, Options options)
    : versions_(versions),
      options_(options),
      oracle_(std::make_unique<Oracle>(
          std::move(options.oracle),
          versions != nullptr ? versions->size() : std::size_t{0})) {
  CCSIM_CHECK(options_.queue_capacity > 0);
  CCSIM_CHECK(options_.audit_epoch_commits > 0);
  if (options_.pipelined) {
    ring_.resize(options_.queue_capacity);
    wake_backlog_ = std::max<std::uint64_t>(1, ring_.size() / 4);
    for (std::size_t i = 0; i < kEpochArenas; ++i) {
      arenas_[i] = std::make_unique<util::Arena>(options_.arena_bytes);
    }
    verifier_ = std::thread([this] { VerifierMain(); });
  }
}

Checker::~Checker() { Finish(); }

// --- feed ------------------------------------------------------------------

void Checker::OnCommit(int client, std::uint64_t xact, std::int64_t at,
                       std::span<const PageVersion> reads,
                       std::span<const PageVersion> writes) {
  Record record;
  record.kind = Record::Kind::kCommit;
  record.client = client;
  record.xact = xact;
  record.at = at;
  if (options_.pipelined) {
    // Both sets come from one arena so the record's entire payload shares
    // one epoch (and therefore one retirement point).
    util::Arena* arena = EnsureEpochSpace(reads.size() + writes.size());
    record.reads = CopyPayload(arena, reads);
    record.writes = CopyPayload(arena, writes);
  } else {
    record.reads = reads.data();
    record.writes = writes.data();
  }
  record.read_count = static_cast<std::uint32_t>(reads.size());
  record.write_count = static_cast<std::uint32_t>(writes.size());
  Submit(record);
  MaybeAudit();
}

void Checker::OnAbortObserved(int client, std::uint64_t xact) {
  Record record;
  record.kind = Record::Kind::kAbortObserved;
  record.client = client;
  record.xact = xact;
  Submit(record);
}

void Checker::NoteStaleCommitRead(int client, std::uint64_t xact,
                                  db::PageId page, std::uint64_t read_version,
                                  std::uint64_t current_version) {
  Record record;
  record.kind = Record::Kind::kStaleCommitRead;
  record.client = client;
  record.xact = xact;
  record.page = page;
  record.version = read_version;
  record.current_version = current_version;
  Submit(record);
}

void Checker::OnUnknownOutcome(std::uint64_t xact) {
  Record record;
  record.kind = Record::Kind::kUnknownOutcome;
  record.xact = xact;
  Submit(record);
}

void Checker::OnTrustedLocalRead(int client, db::PageId page,
                                 std::uint64_t version, bool retained_lock,
                                 std::int64_t lease_until, std::int64_t now,
                                 bool fault_free) {
  Record record;
  record.kind = Record::Kind::kTrustedRead;
  record.client = client;
  record.page = page;
  record.version = version;
  record.retained_lock = retained_lock;
  record.fault_free = fault_free;
  record.lease_until = lease_until;
  record.at = now;
  // Use-time resolution: the whole point of the trusted-read currency
  // check is "was the cached copy current when the client used it", so
  // the lookup must happen here, not when the verifier gets around to it.
  if (retained_lock && fault_free && versions_ != nullptr) {
    record.current_version = versions_->Get(page);
  }
  Submit(record);
}

void Checker::NoteClientAudit() { ++client_audits_; }

// --- epoch-batched structural audit (sim thread, both modes) ---------------

void Checker::MaybeAudit() {
  if (!audit_hook_) {
    return;
  }
  if (++commits_since_audit_ < options_.audit_epoch_commits) {
    return;
  }
  commits_since_audit_ = 0;
  ++audits_;
  audit_hook_();
}

void Checker::AuditPostRecovery(std::size_t active_xacts,
                                std::size_t locks_held,
                                std::size_t uncommitted_frames) {
  Drain();
  oracle_->AuditPostRecovery(active_xacts, locks_held, uncommitted_frames);
}

// --- pipeline --------------------------------------------------------------

void Checker::Submit(const Record& record) {
  if (options_.pipelined) {
    Enqueue(record);
  } else {
    Apply(record);
  }
}

void Checker::Enqueue(const Record& record) {
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  // Backpressure: a full ring stalls the producer until the verifier
  // catches up. Records are never dropped. Hysteresis matters on a
  // saturated single core: waiting for a *half*-empty ring (not one free
  // slot) hands each thread a long burst instead of a wakeup per record
  // once the ring first fills.
  if (head - tail_.load(std::memory_order_acquire) >= ring_.size()) {
    WaitForTail(head - ring_.size() / 2);
  }
  ring_[head % ring_.size()] = record;
  head_.store(head + 1, std::memory_order_seq_cst);
  // seq_cst on the head publish and on the idle flag pair up with the
  // consumer's (set idle, re-check head) so exactly one of us always sees
  // the other: either the consumer sees the new head and stays awake, or
  // we see idle and can deliver a wakeup. The wakeup itself is *batched*:
  // an idle verifier is only kicked once a quarter-ring of records has
  // piled up (any blocking edge — drain, full ring, retirement, shutdown
  // — kicks it unconditionally). Verdict timeliness is defined by the
  // drain barriers, not per record, and on a single core an eager wakeup
  // per record just schedules a futex round-trip into the commit path.
  if (head + 1 - tail_.load(std::memory_order_relaxed) >= wake_backlog_ &&
      consumer_idle_.load(std::memory_order_seq_cst)) {
    std::lock_guard<std::mutex> lock(mutex_);
    not_empty_.notify_one();
  }
}

void Checker::WaitForTail(std::uint64_t target) {
  std::unique_lock<std::mutex> lock(mutex_);
  producer_wake_at_.store(target, std::memory_order_seq_cst);
  // The verifier may be sleeping through a sub-threshold backlog; any
  // blocking edge needs it running now.
  not_empty_.notify_one();
  not_full_.wait(lock, [this, target] {
    return tail_.load(std::memory_order_acquire) >= target;
  });
  producer_wake_at_.store(~std::uint64_t{0}, std::memory_order_seq_cst);
}

util::Arena* Checker::EnsureEpochSpace(std::size_t page_count) {
  util::Arena* arena = arenas_[current_arena_].get();
  if (arena->Fits<PageVersion>(page_count)) {
    return arena;
  }
  // Close the epoch: retire this arena at the current head and move to
  // the next one, waiting until the verifier has applied every record
  // that points into it (tail_ must pass its retirement index). Every
  // record referencing the retired arena was enqueued before this point,
  // so all of them sit below the recorded head.
  const std::size_t next = (current_arena_ + 1) % kEpochArenas;
  retired_at_[current_arena_] = head_.load(std::memory_order_relaxed);
  if (tail_.load(std::memory_order_acquire) < retired_at_[next]) {
    WaitForTail(retired_at_[next]);
  }
  current_arena_ = next;
  arena = arenas_[next].get();
  arena->Reset();
  CCSIM_CHECK_MSG(arena->Fits<PageVersion>(page_count),
                  "commit record payload (%zu pages) exceeds the epoch "
                  "arena (%zu bytes)",
                  page_count, arena->capacity());
  return arena;
}

const PageVersion* Checker::CopyPayload(util::Arena* arena,
                                        std::span<const PageVersion> pages) {
  PageVersion* copy = arena->AllocateArray<PageVersion>(pages.size());
  for (std::size_t i = 0; i < pages.size(); ++i) {
    copy[i] = pages[i];
  }
  return copy;
}

void Checker::VerifierMain() {
  std::uint64_t tail = 0;
  for (;;) {
    if (head_.load(std::memory_order_acquire) == tail) {
      std::unique_lock<std::mutex> lock(mutex_);
      consumer_idle_.store(true, std::memory_order_seq_cst);
      not_empty_.wait(lock, [this, tail] {
        return head_.load(std::memory_order_seq_cst) != tail || stop_;
      });
      consumer_idle_.store(false, std::memory_order_seq_cst);
      if (head_.load(std::memory_order_relaxed) == tail) {
        return;  // stopped and fully drained
      }
    }
    const Record record = ring_[tail % ring_.size()];
    if (test_observe_hook_) {
      test_observe_hook_();
    }
    Apply(record);
    // Bumped only after Apply so arenas and the drain barrier both mean
    // "fully verified", not merely "dequeued". The producer sleeps only
    // with a tail threshold posted in producer_wake_at_, so one check
    // replaces a wakeup per slot.
    ++tail;
    tail_.store(tail, std::memory_order_seq_cst);
    if (tail >= producer_wake_at_.load(std::memory_order_seq_cst)) {
      std::lock_guard<std::mutex> lock(mutex_);
      not_full_.notify_all();
    }
  }
}

void Checker::Apply(const Record& record) {
  switch (record.kind) {
    case Record::Kind::kCommit:
      oracle_->OnCommit(
          record.client, record.xact, record.at,
          std::span<const PageVersion>(record.reads, record.read_count),
          std::span<const PageVersion>(record.writes, record.write_count));
      break;
    case Record::Kind::kAbortObserved:
      oracle_->OnAbortObserved(record.client, record.xact);
      break;
    case Record::Kind::kUnknownOutcome:
      oracle_->OnUnknownOutcome(record.xact);
      break;
    case Record::Kind::kStaleCommitRead:
      oracle_->NoteStaleCommitRead(record.client, record.xact, record.page,
                                   record.version, record.current_version);
      break;
    case Record::Kind::kTrustedRead:
      oracle_->OnTrustedLocalRead(record.client, record.page, record.version,
                                  record.retained_lock, record.lease_until,
                                  record.at, record.fault_free,
                                  record.current_version);
      break;
  }
}

void Checker::Drain() {
  if (!options_.pipelined || !verifier_.joinable()) {
    return;
  }
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  if (tail_.load(std::memory_order_acquire) < head) {
    WaitForTail(head);
  }
}

void Checker::Finish() {
  if (finished_) {
    return;
  }
  finished_ = true;
  if (options_.pipelined && verifier_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
      not_empty_.notify_one();
    }
    // The verifier drains every queued record before exiting, so a cycle
    // committed in the final epoch still aborts (from the verification
    // thread) before this join returns.
    verifier_.join();
  }
}

}  // namespace ccsim::check
