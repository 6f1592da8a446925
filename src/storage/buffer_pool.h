#ifndef CCSIM_STORAGE_BUFFER_POOL_H_
#define CCSIM_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "db/database.h"
#include "sim/event.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "storage/disk.h"
#include "util/block_pool.h"
#include "util/lru.h"

namespace ccsim::storage {

/// The server buffer manager (paper §3.3.4): an LRU pool of `capacity`
/// pages over the data disks.
///
/// Modeling points the paper calls out (§1):
///  1. dirty pages may be written out *before* commit (victim write-back),
///     causing I/O contention;
///  2. concurrent readers of a hot page are charged one I/O, not one each
///     (in-flight loads are shared);
///  3. committed updates are not forced — they stay dirty in the pool and
///     reach disk on eviction, so a page updated twice is written once;
///  4. transactions whose uncommitted dirty pages reached disk are charged
///     undo I/O on abort (reported via AbortTransaction; the log manager
///     performs the I/O).
class BufferPool {
 public:
  struct Params {
    int capacity_pages = 400;
    /// InitDiskCost in ticks, charged on the server CPU per disk access.
    sim::Ticks init_disk_cost = 0;
    /// Recovery mode: after a server crash, a zombie handler of a dead
    /// transaction may still install pages that a post-restart transaction
    /// has since taken over. With this set, the newer owner usurps the
    /// frame instead of tripping the single-uncommitted-owner invariant.
    bool allow_owner_usurp = false;
  };

  /// Uncommitted-owner value meaning "no uncommitted owner".
  static constexpr std::uint64_t kCommitted = 0;

  BufferPool(sim::Simulator* simulator, const Params& params,
             const db::DatabaseLayout* layout, std::vector<Disk*> data_disks,
             sim::Resource* server_cpu);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Ensures `page` is resident, performing victim write-back and a disk
  /// read on a miss. `sequential` marks the read physically sequential with
  /// the immediately preceding access of the same object (the caller
  /// applies the ClusterFactor draw).
  sim::Task<void> FetchPage(db::PageId page, bool sequential);

  /// Installs a full-page image updated by transaction `xact` (received
  /// from a client or produced by an update application). No read I/O: the
  /// whole page is overwritten; a miss still needs room (victim
  /// write-back). `xact == kCommitted` installs a committed dirty page.
  sim::Task<void> InstallPage(db::PageId page, std::uint64_t xact);

  /// Commit: the transaction's dirty pages become committed-dirty (they
  /// remain in the pool; the log manager has forced the log).
  void CommitTransaction(std::uint64_t xact);

  /// Abort: returns the pages whose uncommitted updates were written to
  /// disk (they need undo I/O) and reverts the transaction's in-pool pages
  /// to committed-dirty (in-memory undo).
  std::vector<db::PageId> AbortTransaction(std::uint64_t xact);

  /// Server-crash modeling: volatile pool contents vanish. Returns the
  /// number of committed-dirty frames lost — committed updates that had not
  /// reached the data disks and must be redone from the log at restart.
  int CrashReset();

  bool Resident(db::PageId page) const { return frames_.Contains(page); }
  std::size_t size() const { return frames_.size(); }
  int capacity() const { return params_.capacity_pages; }

  /// Frames currently owned by an uncommitted transaction (checker audits;
  /// must be zero right after crash recovery).
  std::size_t UncommittedFrameCount() const;

  /// Consistency-oracle audit of the pool's internal bookkeeping: every
  /// uncommitted-owner frame is dirty and indexed in dirty_by_xact_, every
  /// indexed page has a matching resident frame, and — when `live` is
  /// provided (fault-free runs; crash windows legitimately break it) —
  /// every uncommitted owner is a live transaction. Fatal on violation.
  void AuditConsistency(const std::function<bool(std::uint64_t)>& live) const;

  std::size_t loading_count() const { return loading_count_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t writebacks() const { return writebacks_; }
  double HitRatio() const {
    const std::uint64_t total = hits_ + misses_;
    return total == 0 ? 0.0 : static_cast<double>(hits_) / total;
  }
  void ResetStats() { hits_ = misses_ = writebacks_ = 0; }

 private:
  struct Frame {
    bool dirty = false;
    std::uint64_t uncommitted_owner = kCommitted;
  };

  Disk* DiskFor(db::PageId page) {
    return data_disks_[static_cast<std::size_t>(layout_->DiskOfPage(page))];
  }

  /// Evicts until an incoming page fits; write-back of dirty victims.
  sim::Task<void> MakeRoom();

  sim::Simulator* simulator_;
  Params params_;
  const db::DatabaseLayout* layout_;
  std::vector<Disk*> data_disks_;
  sim::Resource* server_cpu_;

  LruTable<db::PageId, Frame> frames_;
  /// Indexed by page id (sized from the layout): the event of the page's
  /// disk read in flight, null when none. Concurrent fetchers share the
  /// I/O by waiting on it.
  std::vector<std::unique_ptr<sim::Event>> loading_;
  std::size_t loading_count_ = 0;
  sim::Event pool_changed_;

  /// Keyed by transaction uid. AbortTransaction hands a flushed set's
  /// iteration order to the undo I/O, so these stay hashed.
  util::PooledMap<std::uint64_t, util::PooledSet<db::PageId>> dirty_by_xact_;
  util::PooledMap<std::uint64_t, util::PooledSet<db::PageId>>
      flushed_by_xact_;

  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t writebacks_ = 0;
};

}  // namespace ccsim::storage

#endif  // CCSIM_STORAGE_BUFFER_POOL_H_
