#include "client/client_cache.h"

#include <algorithm>

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

void ClientCache::Erase(db::PageId page) {
  const Entry* entry = lru_.FindEntry(page);
  if (entry == nullptr) {
    return;
  }
  if (entry->pin_count > 0) {
    Entry** slot = std::find(touched_.begin(), touched_.end(), entry);
    CCSIM_CHECK(slot != touched_.end());
    *slot = touched_.back();
    touched_.pop_back();
  }
  lru_.Erase(page);
}

CachedPage& ClientCache::MarkDirty(db::PageId page) {
  Entry* entry = lru_.FindEntry(page);
  CCSIM_CHECK_MSG(entry != nullptr && entry->pin_count > 0,
                  "page %d marked dirty without being cached and pinned",
                  page);
  entry->value.dirty = true;
  return entry->value;
}

void ClientCache::EndTransaction() {
  for (Entry* entry : touched_) {
    entry->pin_count = 0;
    entry->value.checked_this_xact = false;
    entry->value.requested_this_xact = false;
    entry->value.lock = PageLock::kNone;
  }
  touched_.clear();
}

void ClientCache::AuditEndOfAttempt() const {
  CCSIM_CHECK_MSG(touched_.empty(),
                  "%zu touched pages left after the attempt ended",
                  touched_.size());
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

void ClientCache::SortTouched() const {
  std::sort(touched_.begin(), touched_.end(),
            [](const Entry* a, const Entry* b) { return a->stamp > b->stamp; });
}

ClientCache::PageIdList ClientCache::DirtyPages() const {
  SortTouched();
  PageIdList dirty;
  for (const Entry* entry : touched_) {
    if (entry->value.dirty) {
      dirty.push_back(entry->key);
    }
  }
  return dirty;
}

}  // namespace ccsim::client
