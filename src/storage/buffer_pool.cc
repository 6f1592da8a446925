#include "storage/buffer_pool.h"

#include <utility>

#include "util/macros.h"

namespace ccsim::storage {

BufferPool::BufferPool(sim::Simulator* simulator, const Params& params,
                       const db::DatabaseLayout* layout,
                       std::vector<Disk*> data_disks,
                       sim::Resource* server_cpu)
    : simulator_(simulator), params_(params), layout_(layout),
      data_disks_(std::move(data_disks)), server_cpu_(server_cpu),
      loading_(static_cast<std::size_t>(layout->total_pages())),
      pool_changed_(simulator) {
  CCSIM_CHECK(params_.capacity_pages >= 1);
  CCSIM_CHECK(!data_disks_.empty());
}

sim::Task<void> BufferPool::MakeRoom() {
  // Free one frame slot, evicting LRU victims as needed. Runs *after* the
  // incoming page's I/O, so a tiny pool (the ACL experiment uses
  // BufferSize=1) limits only residency — it does not serialize disk reads
  // behind a single frame.
  if (HasFreeFrame()) {
    return sim::Task<void>::Ready();
  }
  return Evict();
}

sim::Task<void> BufferPool::Evict() {
  while (!HasFreeFrame()) {
    const auto* victim = frames_.VictimCandidate();
    if (victim == nullptr) {
      // Pool drained by concurrent miss paths; wait for an insert.
      co_await pool_changed_.Wait();
      continue;
    }
    const db::PageId victim_page = victim->key;
    const Frame victim_frame = victim->value;
    // Remove before awaiting so concurrent evictions never pick it twice.
    frames_.Erase(victim_page);
    if (victim_frame.dirty) {
      ++writebacks_;
      if (victim_frame.uncommitted_owner != kCommitted) {
        // Uncommitted data reaches disk: the owner owes undo I/O on abort.
        flushed_by_xact_[victim_frame.uncommitted_owner].insert(victim_page);
        auto it = dirty_by_xact_.find(victim_frame.uncommitted_owner);
        if (it != dirty_by_xact_.end()) {
          it->second.erase(victim_page);
        }
      }
      co_await server_cpu_->Use(params_.init_disk_cost);
      co_await DiskFor(victim_page)->Access(/*sequential=*/false);
    }
    pool_changed_.Signal();
  }
}

sim::Task<void> BufferPool::FetchPage(db::PageId page, bool sequential) {
  if (frames_.Touch(page) != nullptr) {
    ++hits_;
    return sim::Task<void>::Ready();
  }
  return FetchMissing(page, sequential);
}

sim::Task<void> BufferPool::FetchMissing(db::PageId page, bool sequential) {
  std::unique_ptr<sim::Event>& loading =
      loading_[static_cast<std::size_t>(page)];
  if (loading != nullptr) {
    // Another fetch is already paying the I/O; share it (paper §1 point 2).
    ++hits_;
    while (loading != nullptr) {
      co_await loading->Wait();
      if (frames_.Touch(page) != nullptr) {
        co_return;
      }
      // Evicted between load and our wake-up (tiny pools); fall through to
      // a fresh miss without recounting.
    }
    if (frames_.Touch(page) != nullptr) {
      co_return;
    }
  } else {
    ++misses_;
  }

  loading = std::make_unique<sim::Event>(simulator_);
  ++loading_count_;
  co_await server_cpu_->Use(params_.init_disk_cost);
  co_await DiskFor(page)->Access(sequential);
  co_await MakeRoom();
  if (frames_.Find(page) == nullptr) {
    frames_.Insert(page, Frame{});
  }
  // else: an InstallPage raced into the gap an eviction left between this
  // page's load and its insert; the installed (dirty) frame wins and this
  // read's I/O cost stands.
  // Wake sharers before destroying the event.
  loading->Signal();
  loading.reset();
  --loading_count_;
  pool_changed_.Signal();
}

sim::Task<void> BufferPool::InstallPage(db::PageId page, std::uint64_t xact) {
  if (loading_[static_cast<std::size_t>(page)] == nullptr) {
    Frame* frame = frames_.Touch(page);
    if (frame == nullptr && HasFreeFrame()) {
      frame = frames_.Insert(page, Frame{});
      pool_changed_.Signal();
    }
    if (frame != nullptr) {
      ClaimFrame(page, *frame, xact);
      return sim::Task<void>::Ready();
    }
  }
  return InstallWaiting(page, xact);
}

sim::Task<void> BufferPool::InstallWaiting(db::PageId page,
                                           std::uint64_t xact) {
  // If a read of this page is in flight, let it land first so we do not
  // insert a duplicate frame.
  const std::unique_ptr<sim::Event>& loading =
      loading_[static_cast<std::size_t>(page)];
  while (loading != nullptr) {
    co_await loading->Wait();
  }
  Frame* frame = frames_.Touch(page);
  if (frame == nullptr) {
    co_await MakeRoom();
    frame = frames_.Touch(page);  // re-check: racing install may have won
    if (frame == nullptr) {
      frame = frames_.Insert(page, Frame{});
      pool_changed_.Signal();
    }
  }
  ClaimFrame(page, *frame, xact);
}

void BufferPool::ClaimFrame(db::PageId page, Frame& frame,
                            std::uint64_t xact) {
  if (frame.uncommitted_owner != kCommitted &&
      frame.uncommitted_owner != xact) {
    CCSIM_CHECK_MSG(params_.allow_owner_usurp,
                    "page %d has another uncommitted owner", page);
    // The previous owner died with a server crash; its image is garbage
    // and the frame passes to the installer.
    auto it = dirty_by_xact_.find(frame.uncommitted_owner);
    if (it != dirty_by_xact_.end()) {
      it->second.erase(page);
    }
  }
  frame.dirty = true;
  frame.uncommitted_owner = xact;
  if (xact != kCommitted) {
    dirty_by_xact_[xact].insert(page);
  }
}

void BufferPool::CommitTransaction(std::uint64_t xact) {
  auto it = dirty_by_xact_.find(xact);
  if (it != dirty_by_xact_.end()) {
    for (db::PageId page : it->second) {
      Frame* frame = frames_.Find(page);
      if (frame != nullptr && frame->uncommitted_owner == xact) {
        frame->uncommitted_owner = kCommitted;
      }
    }
    dirty_by_xact_.erase(it);
  }
  flushed_by_xact_.erase(xact);
}

std::vector<db::PageId> BufferPool::AbortTransaction(std::uint64_t xact) {
  std::vector<db::PageId> flushed;
  auto flushed_it = flushed_by_xact_.find(xact);
  if (flushed_it != flushed_by_xact_.end()) {
    flushed.assign(flushed_it->second.begin(), flushed_it->second.end());
    flushed_by_xact_.erase(flushed_it);
  }
  auto dirty_it = dirty_by_xact_.find(xact);
  if (dirty_it != dirty_by_xact_.end()) {
    for (db::PageId page : dirty_it->second) {
      Frame* frame = frames_.Find(page);
      if (frame != nullptr && frame->uncommitted_owner == xact) {
        // In-memory undo: the page reverts to its committed image. It stays
        // dirty conservatively (the revert itself modified the frame).
        frame->uncommitted_owner = kCommitted;
      }
    }
    dirty_by_xact_.erase(dirty_it);
  }
  return flushed;
}

std::size_t BufferPool::UncommittedFrameCount() const {
  std::size_t count = 0;
  frames_.ForEach([&](const LruTable<db::PageId, Frame>::Entry& e) {
    if (e.value.uncommitted_owner != kCommitted) {
      ++count;
    }
  });
  return count;
}

void BufferPool::AuditConsistency(
    const std::function<bool(std::uint64_t)>& live) const {
  frames_.ForEach([&](const LruTable<db::PageId, Frame>::Entry& e) {
    const std::uint64_t owner = e.value.uncommitted_owner;
    if (owner == kCommitted) {
      return;
    }
    CCSIM_CHECK_MSG(e.value.dirty, "page %d has an uncommitted owner but is "
                    "clean", e.key);
    auto it = dirty_by_xact_.find(owner);
    CCSIM_CHECK_MSG(it != dirty_by_xact_.end() && it->second.count(e.key) > 0,
                    "page %d owned by an uncommitted transaction missing "
                    "from dirty_by_xact_", e.key);
    if (live) {
      CCSIM_CHECK_MSG(live(owner), "page %d owned by a dead transaction",
                      e.key);
    }
  });
  for (const auto& [xact, pages] : dirty_by_xact_) {
    for (const db::PageId page : pages) {
      const Frame* frame = frames_.Find(page);
      CCSIM_CHECK_MSG(frame != nullptr && frame->uncommitted_owner == xact &&
                      frame->dirty,
                      "dirty_by_xact_ entry for page %d has no matching "
                      "frame", page);
    }
  }
}

int BufferPool::CrashReset() {
  int redo_pages = 0;
  frames_.ForEach([&](const LruTable<db::PageId, Frame>::Entry& e) {
    if (e.value.dirty && e.value.uncommitted_owner == kCommitted) {
      ++redo_pages;
    }
  });
  frames_.Clear();
  dirty_by_xact_.clear();
  flushed_by_xact_.clear();
  // In-flight fetches (loading_) finish as zombies and clean up after
  // themselves; MakeRoom waiters see an empty pool and proceed.
  pool_changed_.Signal();
  return redo_pages;
}

}  // namespace ccsim::storage
