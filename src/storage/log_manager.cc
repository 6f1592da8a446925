#include "storage/log_manager.h"

#include "fault/fault_injector.h"
#include "util/macros.h"

namespace ccsim::storage {

sim::Task<void> LogManager::ForceCommit(int updated_pages) {
  if (!params_.enabled || updated_pages == 0) {
    co_return;
  }
  CCSIM_CHECK(!log_disks_.empty());
  // One sequential log block carries the commit record plus the (small)
  // update records of a transaction. Log disks are dedicated, so appends
  // pay transfer time only.
  Disk* disk = log_disks_[next_log_disk_];
  next_log_disk_ = (next_log_disk_ + 1) % log_disks_.size();
  ++commits_logged_;
  // The record takes the next sequence number and a checksum. It counts as
  // durable — and the commit as acknowledgeable — only once a valid copy is
  // fully on disk; until then it is the candidate crash-torn tail.
  ++next_record_lsn_;
  const std::uint64_t epoch = crash_epoch_;
  ++forces_in_flight_;
  co_await server_cpu_->Use(params_.init_disk_cost);
  co_await disk->Append(/*blocks=*/1);
  if (epoch != crash_epoch_) {
    // A crash interrupted this force: OnCrash() already counted the record
    // into the truncated tail, and the reply for this commit never went
    // out. The zombie coroutine just unwinds.
    co_return;
  }
  if (injector_ != nullptr) {
    // Write-verify read-back: the record is re-read and its checksum
    // validated while still in memory. A torn write or a bit flip on the
    // medium is caught here — before the commit is acknowledged — and
    // repaired with a re-append, so injected storage faults degrade to
    // extra log I/O instead of latent corruption.
    bool invalid = false;
    if (injector_->DrawTornWrite()) {
      ++torn_writes_detected_;
      invalid = true;
    } else if (injector_->DrawBitFlip()) {
      ++bit_flips_detected_;
      invalid = true;
    }
    if (invalid) {
      ++log_rewrites_;
      co_await server_cpu_->Use(params_.init_disk_cost);
      co_await disk->Append(/*blocks=*/1);
      if (epoch != crash_epoch_) {
        co_return;  // crash interrupted the repair; same torn-tail path
      }
    }
  }
  --forces_in_flight_;
  ++records_durable_;
}

sim::Task<void> LogManager::ProcessAbort(
    const std::vector<db::PageId>& flushed_pages) {
  if (!params_.enabled || flushed_pages.empty()) {
    co_return;
  }
  CCSIM_CHECK(!log_disks_.empty());
  // Read the transaction's log tail (one sequential block) ...
  Disk* log_disk = log_disks_[next_log_disk_];
  next_log_disk_ = (next_log_disk_ + 1) % log_disks_.size();
  co_await server_cpu_->Use(params_.init_disk_cost);
  co_await log_disk->Append(/*blocks=*/1);
  // ... then undo each flushed page in place: read + write on its disk.
  for (db::PageId page : flushed_pages) {
    Disk* data_disk =
        data_disks_[static_cast<std::size_t>(layout_->DiskOfPage(page))];
    undo_page_ios_ += 2;
    co_await server_cpu_->Use(params_.init_disk_cost);
    co_await data_disk->Access(/*sequential=*/false);
    co_await server_cpu_->Use(params_.init_disk_cost);
    co_await data_disk->Access(/*sequential=*/false);
  }
}

void LogManager::AppendCommitRecord(
    const std::vector<std::pair<db::PageId, std::uint64_t>>& writes) {
  if (writes.empty()) {
    return;  // read-only commit: no log records
  }
  const std::uint64_t lsn = next_lsn_++;
  for (const auto& [page, version] : writes) {
    CCSIM_CHECK_MSG(static_cast<std::size_t>(page) < page_lsn_.size(),
                    "commit record for page %d outside the database", page);
    auto& [last_lsn, last_version] = page_lsn_[static_cast<std::size_t>(page)];
    if (last_lsn == 0) {
      last_lsn = lsn;
      last_version = version;
      continue;
    }
    CCSIM_CHECK_MSG(lsn > last_lsn,
                    "log LSN not monotone on page %d: %llu after %llu", page,
                    static_cast<unsigned long long>(lsn),
                    static_cast<unsigned long long>(last_lsn));
    CCSIM_CHECK_MSG(version > last_version,
                    "page %d logged version %llu after %llu: commit records "
                    "out of version-chain order",
                    page, static_cast<unsigned long long>(version),
                    static_cast<unsigned long long>(last_version));
    last_lsn = lsn;
    last_version = version;
  }
}

void LogManager::OnCrash() {
  if (!params_.enabled) {
    return;
  }
  // Every force still in flight becomes a crash-torn tail record: its
  // append never completed, so restart recovery will fail its checksum and
  // truncate it. None of these commits were acknowledged.
  records_truncated_ += static_cast<std::uint64_t>(forces_in_flight_);
  truncation_pending_ += forces_in_flight_;
  forces_in_flight_ = 0;
  ++crash_epoch_;
}

sim::Task<void> LogManager::ReplayRecovery(int redo_pages) {
  if (!params_.enabled) {
    co_return;
  }
  CCSIM_CHECK(!log_disks_.empty());
  // No force can still be live across a crash boundary: OnCrash() folded
  // them all into the truncated tail.
  CCSIM_CHECK(forces_in_flight_ == 0);
  // Scan the log tail: one sequential read per log disk (commit records
  // were striped round-robin across them).
  for (Disk* log_disk : log_disks_) {
    co_await server_cpu_->Use(params_.init_disk_cost);
    co_await log_disk->Append(/*blocks=*/1);
  }
  // Truncate at the first invalid record and re-force the truncated
  // commits from their redo information (their version bumps survived in
  // the durable version table), so the log again covers every commit.
  while (truncation_pending_ > 0) {
    --truncation_pending_;
    Disk* log_disk = log_disks_[next_log_disk_];
    next_log_disk_ = (next_log_disk_ + 1) % log_disks_.size();
    co_await server_cpu_->Use(params_.init_disk_cost);
    co_await log_disk->Append(/*blocks=*/1);
    ++records_durable_;
  }
  // Redo each lost committed-dirty page in place. Which data disk each
  // page lived on is not tracked here, so spread the writes round-robin —
  // the cost model only needs the aggregate I/O.
  for (int i = 0; i < redo_pages; ++i) {
    Disk* data_disk = data_disks_[static_cast<std::size_t>(i) %
                                  data_disks_.size()];
    ++redo_page_ios_;
    co_await server_cpu_->Use(params_.init_disk_cost);
    co_await data_disk->Access(/*sequential=*/false);
  }
}

}  // namespace ccsim::storage
