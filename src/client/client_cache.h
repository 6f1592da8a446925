#ifndef CCSIM_CLIENT_CLIENT_CACHE_H_
#define CCSIM_CLIENT_CLIENT_CACHE_H_

#include <cstdint>

#include "db/database.h"
#include "util/lru.h"
#include "util/small_vector.h"

namespace ccsim::client {

/// Lock strength the *current transaction* holds on a cached page.
enum class PageLock { kNone, kShared, kExclusive };

/// Client-cache metadata for one page. The simulator does not carry page
/// contents; `version` stands in for them.
struct CachedPage {
  std::uint64_t version = 0;
  /// Updated locally and not yet shipped to the server.
  bool dirty = false;
  /// Certification: validated (or fetched) by the current transaction.
  bool checked_this_xact = false;
  /// No-wait locking: an asynchronous lock request was already sent for the
  /// current transaction.
  bool requested_this_xact = false;
  /// Callback locking: the client retains a shared lock across
  /// transactions; the page is valid until called back.
  bool retained = false;
  /// Retain-write-locks ablation: the retained lock is exclusive.
  bool retained_x = false;
  /// Recovery mode: tick until which asynchronously-maintained state
  /// (a retained lock, or a no-wait-notify copy kept fresh by update
  /// propagation) may be trusted. 0 = no lease tracking. Past this, a lost
  /// callback or propagation can no longer wedge the protocol: the client
  /// re-validates with the server instead of trusting the copy.
  std::int64_t lease_until = 0;
  PageLock lock = PageLock::kNone;
};

/// The client cache manager (paper §3.3.3): an LRU page cache. Pages used
/// by the current transaction are pinned (they may be dirty or locked and
/// must survive until commit); the replacement victim is the
/// least-recently-used unpinned page.
///
/// Eviction side effects (shipping a dirty page, notifying the server about
/// a replaced retained lock) are protocol-specific, so Insert() returns the
/// evicted entries for the caller to process.
class ClientCache {
 public:
  struct Evicted {
    db::PageId page;
    CachedPage info;
  };
  /// Inline-capacity victim list: one insert evicts at most a handful of
  /// pages (usually exactly one), so the eviction path allocates nothing.
  using EvictedList = util::SmallVector<Evicted, 4>;
  /// Page-id list sized like net::Message lists (dirty sets fit a
  /// transaction's write set).
  using PageIdList = util::SmallVector<db::PageId, 12>;

  explicit ClientCache(int capacity) : capacity_(capacity) {}
  ClientCache(const ClientCache&) = delete;
  ClientCache& operator=(const ClientCache&) = delete;

  int capacity() const { return capacity_; }
  std::size_t size() const { return lru_.size(); }
  bool Contains(db::PageId page) const { return lru_.Contains(page); }

  /// Lookup without touching recency (metadata checks).
  CachedPage* Find(db::PageId page) { return lru_.Find(page); }
  const CachedPage* Find(db::PageId page) const { return lru_.Find(page); }

  /// Lookup marking the page most recently used (an access).
  CachedPage* Touch(db::PageId page) { return lru_.Touch(page); }

  /// Inserts a page, evicting LRU unpinned pages to stay within capacity.
  /// Fatal if the page is already cached. Returns the victims (oldest
  /// first) for protocol processing. If every page is pinned the cache
  /// overflows temporarily rather than deadlocking (counted).
  EvictedList Insert(db::PageId page, CachedPage info);

  void Erase(db::PageId page);
  void Clear() {
    lru_.Clear();
    touched_.clear();
  }

  /// Pins a page for the current transaction (excluded from eviction).
  /// Pins are only ever cleared all at once by EndTransaction(), so
  /// pinning a page twice needs no check. Fatal if the page is not cached.
  void Pin(db::PageId page) {
    Entry& entry = lru_.Pin(page);
    if (entry.pin_count == 1) {
      touched_.push_back(&entry);
    }
  }

  /// True if the current transaction touched (pinned) the page.
  bool IsPinned(db::PageId page) const { return lru_.IsPinned(page); }

  /// Marks a page the current transaction updated and returns it. Fatal
  /// unless the page is cached and pinned: dirty implies pinned, which is
  /// what lets DirtyPages() look at the touched pages alone.
  CachedPage& MarkDirty(db::PageId page);

  /// Transaction boundary: unpin every touched page and clear its
  /// per-transaction flags and lock. Per-transaction state lives only on
  /// pinned pages (every site that sets it pins), so this costs
  /// O(pages touched), not O(pages cached).
  void EndTransaction();

  /// Consistency-oracle audit at the attempt boundary (after the
  /// protocol's OnAttemptEnd): no page may remain pinned, dirty, locked,
  /// or flagged for the finished transaction. Fatal on violation. It walks
  /// the whole cache on purpose: that walk is what proves the per-attempt
  /// paths, which visit the touched pages only, missed nothing.
  void AuditEndOfAttempt() const;

  /// Visits every cached page (MRU to LRU): fn(PageId, const CachedPage&),
  /// or fn(PageId, CachedPage&) on a mutable cache. The visitor must not
  /// insert or erase pages.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    lru_.ForEach([&](const LruTable<db::PageId, CachedPage>::Entry& e) {
      fn(e.key, e.value);
    });
  }
  template <typename Fn>
  void ForEach(Fn&& fn) {
    lru_.ForEach([&](LruTable<db::PageId, CachedPage>::Entry& e) {
      fn(e.key, e.value);
    });
  }

  /// Visits the pages the current transaction pinned, MRU to LRU — the
  /// order ForEach() would visit them in: fn(PageId, CachedPage&). The
  /// visitor must not insert, erase or pin pages.
  template <typename Fn>
  void ForEachTouched(Fn&& fn) {
    SortTouched();
    for (Entry* entry : touched_) {
      fn(entry->key, entry->value);
    }
  }

  /// Pages currently dirty (in MRU order).
  PageIdList DirtyPages() const;

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t overflow_inserts() const { return overflow_inserts_; }
  void RecordHit() { ++hits_; }
  void RecordMiss() { ++misses_; }
  void ResetStats() { hits_ = misses_ = 0; }

 private:
  using Entry = LruTable<db::PageId, CachedPage>::Entry;

  /// Orders touched_ MRU first (by recency stamp). It only reorders, so
  /// the const paths may call it.
  void SortTouched() const;

  int capacity_;
  LruTable<db::PageId, CachedPage> lru_;
  /// Exactly the cached pages with a nonzero pin count, kept so by Pin,
  /// Erase, Clear and EndTransaction. Inline capacity covers a
  /// transaction's pages (Table 5: 4-12); a larger one spills once and the
  /// heap block is kept.
  mutable util::SmallVector<Entry*, 16> touched_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t overflow_inserts_ = 0;
};

}  // namespace ccsim::client

#endif  // CCSIM_CLIENT_CLIENT_CACHE_H_
