// Unit tests for the client cache manager: LRU replacement with pinning,
// eviction reporting, per-transaction state, and statistics.

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "client/client_cache.h"

namespace ccsim::client {
namespace {

CachedPage Page(std::uint64_t version) {
  CachedPage page;
  page.version = version;
  return page;
}

TEST(ClientCacheTest, InsertWithinCapacityEvictsNothing) {
  ClientCache cache(3);
  EXPECT_TRUE(cache.Insert(1, Page(1)).empty());
  EXPECT_TRUE(cache.Insert(2, Page(1)).empty());
  EXPECT_TRUE(cache.Insert(3, Page(1)).empty());
  EXPECT_EQ(cache.size(), 3u);
}

TEST(ClientCacheTest, LruEvictionOrder) {
  ClientCache cache(3);
  cache.Insert(1, Page(1));
  cache.Insert(2, Page(1));
  cache.Insert(3, Page(1));
  cache.Touch(1);  // order (MRU..LRU): 1 3 2
  const auto victims = cache.Insert(4, Page(1));
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0].page, 2);
  EXPECT_FALSE(cache.Contains(2));
}

TEST(ClientCacheTest, PinnedPagesSurviveEviction) {
  ClientCache cache(2);
  cache.Insert(1, Page(1));
  cache.Insert(2, Page(1));
  cache.Pin(1);
  const auto victims = cache.Insert(3, Page(1));
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0].page, 2);
  EXPECT_TRUE(cache.Contains(1));
}

TEST(ClientCacheTest, AllPinnedOverflowsSoftly) {
  ClientCache cache(2);
  cache.Insert(1, Page(1));
  cache.Insert(2, Page(1));
  cache.Pin(1);
  cache.Pin(2);
  const auto victims = cache.Insert(3, Page(1));
  EXPECT_TRUE(victims.empty());
  EXPECT_EQ(cache.size(), 3u);  // soft overflow rather than deadlock
  EXPECT_EQ(cache.overflow_inserts(), 1u);
}

TEST(ClientCacheTest, EvictionReportsMetadata) {
  ClientCache cache(1);
  CachedPage dirty = Page(7);
  dirty.dirty = true;
  dirty.retained = true;
  cache.Insert(1, dirty);
  const auto victims = cache.Insert(2, Page(1));
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_TRUE(victims[0].info.dirty);
  EXPECT_TRUE(victims[0].info.retained);
  EXPECT_EQ(victims[0].info.version, 7u);
}

TEST(ClientCacheTest, EndTransactionClearsPerXactState) {
  ClientCache cache(4);
  CachedPage page = Page(1);
  page.lock = PageLock::kExclusive;
  page.checked_this_xact = true;
  page.requested_this_xact = true;
  page.retained = true;
  cache.Insert(1, page);
  cache.Pin(1);
  cache.EndTransaction();
  const CachedPage* entry = cache.Find(1);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->lock, PageLock::kNone);
  EXPECT_FALSE(entry->checked_this_xact);
  EXPECT_FALSE(entry->requested_this_xact);
  EXPECT_TRUE(entry->retained);  // retention survives transactions
  EXPECT_FALSE(cache.IsPinned(1));
}

TEST(ClientCacheTest, DirtyPagesListsMruFirst) {
  ClientCache cache(4);
  cache.Insert(1, Page(1));
  cache.Insert(2, Page(1));
  cache.Insert(3, Page(1));
  cache.Pin(1);
  cache.Pin(3);
  cache.MarkDirty(1);
  cache.MarkDirty(3);
  EXPECT_EQ(cache.DirtyPages(), (std::vector<db::PageId>{3, 1}));
  cache.Touch(1);  // recency, not pin order, decides
  EXPECT_EQ(cache.DirtyPages(), (std::vector<db::PageId>{1, 3}));
}

TEST(ClientCacheDeathTest, MarkDirtyRequiresAPin) {
  ClientCache cache(4);
  cache.Insert(1, Page(1));
  EXPECT_DEATH(cache.MarkDirty(1), "marked dirty without being");
  EXPECT_DEATH(cache.MarkDirty(2), "marked dirty without being");
}

TEST(ClientCacheTest, ErasingAPinnedPageUntouchesIt) {
  ClientCache cache(4);
  cache.Insert(1, Page(1));
  cache.Insert(2, Page(1));
  cache.Pin(1);
  cache.Pin(2);
  cache.MarkDirty(2);
  cache.Erase(2);
  EXPECT_TRUE(cache.DirtyPages().empty());
  std::vector<db::PageId> touched;
  cache.ForEachTouched(
      [&](db::PageId page, CachedPage&) { touched.push_back(page); });
  EXPECT_EQ(touched, (std::vector<db::PageId>{1}));
  cache.EndTransaction();
  cache.AuditEndOfAttempt(/*retains_copies=*/false);
}

// Property: over random mixes of the cache operations the protocols use,
// the O(touched) paths (DirtyPages, ForEachTouched) agree exactly — order
// included — with a brute-force walk of the whole cache.
TEST(ClientCacheTest, TouchedPathsMatchAWholeCacheWalk) {
  constexpr int kPages = 48;
  for (std::uint32_t seed = 1; seed <= 20; ++seed) {
    std::mt19937 rng(seed);
    ClientCache cache(24);
    const auto pick = [&] {
      return static_cast<db::PageId>(rng() % kPages);
    };
    for (int op = 0; op < 3000; ++op) {
      const db::PageId page = pick();
      switch (rng() % 16) {
        case 0:
        case 1:
        case 2:
          cache.Touch(page);
          break;
        case 3:
        case 4:
        case 5:
          if (!cache.Contains(page)) {
            (void)cache.Insert(page, Page(1));
          }
          break;
        case 6:
        case 7:
        case 8:
        case 9:
          if (cache.Contains(page)) {
            cache.Pin(page);
          }
          break;
        case 10:
        case 11:
          if (cache.IsPinned(page)) {
            cache.MarkDirty(page);
          }
          break;
        case 12:
          cache.Erase(page);
          break;
        case 13:
          if (rng() % 8 == 0) {
            cache.Clear();
          }
          break;
        default:
          // An attempt ends the way the protocols end one: dirty pages are
          // either shipped (made clean) or dropped, then the pins go.
          for (db::PageId dirty : cache.DirtyPages()) {
            if (rng() % 2 == 0) {
              cache.Find(dirty)->dirty = false;
            } else {
              cache.Erase(dirty);
            }
          }
          cache.EndTransaction();
          cache.AuditEndOfAttempt(/*retains_copies=*/false);
          break;
      }
      std::vector<db::PageId> want_dirty, want_touched;
      cache.ForEach([&](db::PageId p, const CachedPage& entry) {
        if (entry.dirty) {
          want_dirty.push_back(p);
        }
        if (cache.IsPinned(p)) {
          want_touched.push_back(p);
        }
      });
      std::vector<db::PageId> touched;
      cache.ForEachTouched(
          [&](db::PageId p, CachedPage&) { touched.push_back(p); });
      const ClientCache::PageIdList dirty = cache.DirtyPages();
      ASSERT_EQ(std::vector<db::PageId>(dirty.begin(), dirty.end()),
                want_dirty)
          << "seed " << seed << " op " << op;
      ASSERT_EQ(touched, want_touched) << "seed " << seed << " op " << op;
    }
  }
}

TEST(ClientCacheTest, ClearDropsEverything) {
  ClientCache cache(4);
  cache.Insert(1, Page(1));
  cache.Insert(2, Page(1));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Contains(1));
}

TEST(ClientCacheTest, HitMissCounters) {
  ClientCache cache(4);
  cache.RecordHit();
  cache.RecordHit();
  cache.RecordMiss();
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
  cache.ResetStats();
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(ClientCacheTest, IsPinnedFalseForUnknownPage) {
  ClientCache cache(4);
  EXPECT_FALSE(cache.IsPinned(99));
}

}  // namespace
}  // namespace ccsim::client
