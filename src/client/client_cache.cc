#include "client/client_cache.h"

#include "util/macros.h"

namespace ccsim::client {

ClientCache::EvictedList ClientCache::Insert(db::PageId page,
                                                      CachedPage info) {
  EvictedList victims;
  while (static_cast<int>(lru_.size()) >= capacity_) {
    const auto* victim = lru_.VictimCandidate();
    if (victim == nullptr) {
      // Every page is pinned by the current transaction; overflow softly.
      ++overflow_inserts_;
      break;
    }
    victims.push_back(Evicted{victim->key, victim->value});
    lru_.Erase(victim->key);
  }
  lru_.Insert(page, info);
  return victims;
}

void ClientCache::EndTransaction() {
  lru_.ForEach([](LruTable<db::PageId, CachedPage>::Entry& e) {
    e.pin_count = 0;
    e.value.checked_this_xact = false;
    e.value.requested_this_xact = false;
    e.value.lock = PageLock::kNone;
  });
}

void ClientCache::AuditEndOfAttempt() const {
  lru_.ForEach([&](const LruTable<db::PageId, CachedPage>::Entry& e) {
    CCSIM_CHECK_MSG(e.pin_count == 0,
                    "page %d still pinned after the attempt ended", e.key);
    CCSIM_CHECK_MSG(!e.value.dirty,
                    "page %d still dirty after the attempt ended (neither "
                    "shipped with the commit nor dropped by the abort)",
                    e.key);
    CCSIM_CHECK_MSG(!e.value.checked_this_xact &&
                    !e.value.requested_this_xact,
                    "page %d kept a per-transaction flag across the "
                    "attempt boundary", e.key);
    CCSIM_CHECK_MSG(e.value.lock == PageLock::kNone,
                    "page %d kept a transaction lock across the attempt "
                    "boundary", e.key);
    CCSIM_CHECK_MSG(e.value.retained || !e.value.retained_x,
                    "page %d marked retained-exclusive without being "
                    "retained", e.key);
  });
}

ClientCache::PageIdList ClientCache::DirtyPages() const {
  PageIdList dirty;
  lru_.ForEach([&](const LruTable<db::PageId, CachedPage>::Entry& e) {
    if (e.value.dirty) {
      dirty.push_back(e.key);
    }
  });
  return dirty;
}

}  // namespace ccsim::client
