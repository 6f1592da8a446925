// Tests for Status/Result, the LRU table, SmallVector and the block pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <list>
#include <map>
#include <new>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/block_pool.h"
#include "util/lru.h"
#include "util/small_vector.h"
#include "util/status.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// Counts heap allocations so the SmallVector move tests can assert that a
// move allocates nothing, and the block pool tests which requests reach the
// heap.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* ptr = std::malloc(size ? size : 1)) {
    return ptr;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// Pairs with the malloc-backed operator new above; GCC cannot see that
// every pointer reaching these came from malloc.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
#pragma GCC diagnostic pop

namespace ccsim {
namespace {

std::uint64_t AllocationsNow() {
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad knob");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad knob");
}

Status FailsWhen(bool fail) {
  if (fail) {
    return Status::Internal("inner");
  }
  return Status::OK();
}

Status Propagates(bool fail) {
  CCSIM_RETURN_NOT_OK(FailsWhen(fail));
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkPropagates) {
  EXPECT_TRUE(Propagates(false).ok());
  EXPECT_EQ(Propagates(true).code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(LruTableTest, InsertFindTouch) {
  LruTable<int, std::string> lru;
  lru.Insert(1, "one");
  lru.Insert(2, "two");
  ASSERT_NE(lru.Find(1), nullptr);
  EXPECT_EQ(*lru.Find(1), "one");
  EXPECT_EQ(lru.Find(3), nullptr);
  EXPECT_EQ(lru.size(), 2u);
}

TEST(LruTableTest, VictimIsLeastRecentlyUsed) {
  LruTable<int, int> lru;
  lru.Insert(1, 0);
  lru.Insert(2, 0);
  lru.Insert(3, 0);
  // Order (MRU..LRU): 3 2 1. Touch 1 -> 1 3 2.
  lru.Touch(1);
  const auto* victim = lru.VictimCandidate();
  ASSERT_NE(victim, nullptr);
  EXPECT_EQ(victim->key, 2);
}

TEST(LruTableTest, TouchOrInsertTouchesExistingKeepingItsValue) {
  LruTable<int, int> lru;
  const auto [first, inserted_first] = lru.TouchOrInsert(1, 10);
  EXPECT_TRUE(inserted_first);
  EXPECT_EQ(first->value, 10);
  lru.Insert(2, 20);
  // Order (MRU..LRU): 2 1. Touching 1 leaves 2 as the victim.
  const auto [again, inserted_again] = lru.TouchOrInsert(1, 99);
  EXPECT_FALSE(inserted_again);
  EXPECT_EQ(again->value, 10);
  EXPECT_EQ(lru.size(), 2u);
  EXPECT_EQ(lru.VictimCandidate()->key, 2);
}

TEST(LruTableTest, PinnedEntriesAreNotVictims) {
  LruTable<int, int> lru;
  lru.Insert(1, 0);
  lru.Insert(2, 0);
  lru.Pin(1);
  const auto* victim = lru.VictimCandidate();
  ASSERT_NE(victim, nullptr);
  EXPECT_EQ(victim->key, 2);
}

TEST(LruTableTest, AllPinnedMeansNoVictim) {
  LruTable<int, int> lru;
  lru.Insert(1, 0);
  lru.Pin(1);
  EXPECT_EQ(lru.VictimCandidate(), nullptr);
  lru.Unpin(1);
  EXPECT_NE(lru.VictimCandidate(), nullptr);
}

TEST(LruTableTest, MutableForEachClearsPins) {
  LruTable<int, int> lru;
  lru.Insert(1, 0);
  lru.Insert(2, 0);
  lru.Pin(1);
  lru.Pin(2);
  EXPECT_EQ(lru.VictimCandidate(), nullptr);
  lru.ForEach([](LruTable<int, int>::Entry& e) {
    e.pin_count = 0;
    e.value = e.key * 10;
  });
  EXPECT_NE(lru.VictimCandidate(), nullptr);
  EXPECT_FALSE(lru.IsPinned(1));
  EXPECT_EQ(*lru.Find(2), 20);
}

TEST(LruTableTest, EraseRemoves) {
  LruTable<int, int> lru;
  lru.Insert(1, 10);
  EXPECT_TRUE(lru.Erase(1));
  EXPECT_FALSE(lru.Erase(1));
  EXPECT_EQ(lru.Find(1), nullptr);
  EXPECT_TRUE(lru.empty());
}

TEST(LruTableTest, ForEachVisitsMruToLru) {
  LruTable<int, int> lru;
  lru.Insert(1, 0);
  lru.Insert(2, 0);
  lru.Insert(3, 0);
  std::vector<int> keys;
  lru.ForEach([&](const auto& e) { keys.push_back(e.key); });
  EXPECT_EQ(keys, (std::vector<int>{3, 2, 1}));
}

TEST(LruTableTest, ClearEmpties) {
  LruTable<int, int> lru;
  lru.Insert(1, 0);
  lru.Insert(2, 0);
  lru.Clear();
  EXPECT_TRUE(lru.empty());
  EXPECT_FALSE(lru.Contains(1));
}

TEST(LruTableTest, MatchesAReferenceModel) {
  // Random inserts, touches, erases, pins and clears over keys spanning
  // several slot chunks, checked after every step against a list kept in
  // MRU order: ForEach order, the entries ForEachInSlotOrder visits,
  // sizes, pins, lookups and VictimCandidate. Erased keys come back, so
  // slots are reused.
  struct ModelEntry {
    int key;
    int value;
    int pins;
  };
  for (std::uint32_t seed = 1; seed <= 20; ++seed) {
    std::mt19937 rng(seed);
    LruTable<int, int> lru;
    std::list<ModelEntry> model;  // front = most recently used
    const auto find = [&model](int key) {
      return std::find_if(model.begin(), model.end(),
                          [key](const ModelEntry& e) { return e.key == key; });
    };
    for (int step = 0; step < 3000; ++step) {
      const int key = static_cast<int>(rng() % 80);
      const int value = static_cast<int>(rng() % 1000);
      const std::uint32_t op = rng() % 100;
      auto it = find(key);
      if (op < 30) {
        const auto [entry, inserted] = lru.TouchOrInsert(key, value);
        ASSERT_EQ(inserted, it == model.end());
        if (it == model.end()) {
          model.push_front({key, value, 0});
        } else {
          model.splice(model.begin(), model, it);
        }
        ASSERT_EQ(entry->value, model.front().value);
        ASSERT_EQ(entry->pin_count, model.front().pins);
      } else if (op < 50) {
        int* found = lru.Touch(key);
        ASSERT_EQ(found == nullptr, it == model.end());
        if (found != nullptr) {
          model.splice(model.begin(), model, it);
          ASSERT_EQ(*found, it->value);
        }
      } else if (op < 70) {
        ASSERT_EQ(lru.Erase(key), it != model.end());
        if (it != model.end()) {
          model.erase(it);
          ASSERT_EQ(lru.Find(key), nullptr);
          ASSERT_FALSE(lru.IsPinned(key));
        }
      } else if (op < 85) {
        if (it != model.end()) {
          ASSERT_EQ(lru.Pin(key).pin_count, ++it->pins);
        }
      } else if (op < 97) {
        if (it != model.end() && it->pins > 0) {
          lru.Unpin(key);
          --it->pins;
        }
      } else if (op < 98) {
        lru.Clear();
        model.clear();
      } else {
        // A page dropped and cached again starts over: fresh value, no
        // pins, most recently used.
        if (it != model.end()) {
          ASSERT_TRUE(lru.Erase(key));
          model.erase(it);
        }
        ASSERT_EQ(*lru.Insert(key, value), value);
        model.push_front({key, value, 0});
        ASSERT_EQ(lru.FindEntry(key)->pin_count, 0);
      }

      ASSERT_EQ(lru.size(), model.size()) << "seed " << seed;
      ASSERT_EQ(lru.empty(), model.empty());
      std::vector<int> order;
      lru.ForEach([&order](const LruTable<int, int>::Entry& e) {
        order.push_back(e.key);
      });
      std::vector<int> expected;
      const ModelEntry* victim = nullptr;
      for (const ModelEntry& e : model) {
        expected.push_back(e.key);
        if (e.pins == 0) {
          victim = &e;
        }
      }
      ASSERT_EQ(order, expected) << "seed " << seed << " step " << step;
      std::vector<int> in_slot_order;
      lru.ForEachInSlotOrder([&](const LruTable<int, int>::Entry& e) {
        in_slot_order.push_back(e.key);
      });
      std::sort(in_slot_order.begin(), in_slot_order.end());
      std::sort(expected.begin(), expected.end());
      ASSERT_EQ(in_slot_order, expected)
          << "seed " << seed << " step " << step;
      const auto* candidate = lru.VictimCandidate();
      ASSERT_EQ(candidate == nullptr, victim == nullptr);
      if (victim != nullptr) {
        ASSERT_EQ(candidate->key, victim->key);
      }
      const int probe = static_cast<int>(rng() % 80);
      auto probe_it = find(probe);
      ASSERT_EQ(lru.Contains(probe), probe_it != model.end());
      ASSERT_EQ(lru.IsPinned(probe),
                probe_it != model.end() && probe_it->pins > 0);
      if (probe_it != model.end()) {
        ASSERT_EQ(*lru.Find(probe), probe_it->value);
      }
    }
  }
}

TEST(PooledContainersTest, IterateInTheOrderOfStdContainers) {
  // The pooled aliases change only where nodes and buckets come from, so
  // any sequence of inserts, erases, clears and rehashes must leave them
  // iterating exactly like the std::allocator containers.
  for (std::uint32_t seed = 1; seed <= 20; ++seed) {
    std::mt19937 rng(seed);
    util::PooledSet<int> pooled_set;
    std::unordered_set<int> std_set;
    util::PooledMap<std::uint64_t, int> pooled_map;
    std::unordered_map<std::uint64_t, int> std_map;
    for (int step = 0; step < 4000; ++step) {
      const int key = static_cast<int>(rng() % 600);
      const std::uint64_t uid = (std::uint64_t{rng()} << 20) % 5000;
      const std::uint32_t op = rng() % 1000;
      if (op < 550) {
        pooled_set.insert(key);
        std_set.insert(key);
        pooled_map[uid] = step;
        std_map[uid] = step;
      } else if (op < 960) {
        pooled_set.erase(key);
        std_set.erase(key);
        pooled_map.erase(uid);
        std_map.erase(uid);
      } else if (op < 985) {
        const std::size_t buckets = rng() % 400;
        pooled_set.rehash(buckets);
        std_set.rehash(buckets);
        pooled_map.rehash(buckets);
        std_map.rehash(buckets);
      } else {
        pooled_set.clear();
        std_set.clear();
        pooled_map.clear();
        std_map.clear();
      }
      ASSERT_EQ(pooled_set.bucket_count(), std_set.bucket_count());
      ASSERT_TRUE(std::equal(pooled_set.begin(), pooled_set.end(),
                             std_set.begin(), std_set.end()))
          << "seed " << seed << " step " << step;
      ASSERT_EQ(pooled_map.bucket_count(), std_map.bucket_count());
      ASSERT_TRUE(std::equal(pooled_map.begin(), pooled_map.end(),
                             std_map.begin(), std_map.end()))
          << "seed " << seed << " step " << step;
    }
  }
}

using IntList = util::SmallVector<int, 12>;

IntList Iota(int count) {
  IntList list;
  for (int i = 0; i < count; ++i) {
    list.push_back(i);
  }
  return list;
}

TEST(SmallVectorTest, MoveStealsSpilledHeapBlock) {
  IntList source = Iota(64);
  ASSERT_FALSE(source.inline_storage());
  const int* block = source.data();
  const std::uint64_t before = AllocationsNow();
  IntList moved(std::move(source));
  EXPECT_EQ(AllocationsNow(), before) << "move allocated";
  EXPECT_EQ(moved.data(), block);
  EXPECT_EQ(moved, Iota(64));
  EXPECT_TRUE(source.empty());           // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(source.inline_storage());  // NOLINT(bugprone-use-after-move)
}

TEST(SmallVectorTest, MoveAssignStealsAndFreesTheTargetsBlock) {
  IntList source = Iota(64);
  IntList target = Iota(40);
  const int* block = source.data();
  const std::uint64_t before = AllocationsNow();
  target = std::move(source);
  EXPECT_EQ(AllocationsNow(), before) << "move assignment allocated";
  EXPECT_EQ(target.data(), block);
  EXPECT_EQ(target, Iota(64));
  EXPECT_TRUE(source.empty());  // NOLINT(bugprone-use-after-move)
  source.push_back(7);          // a moved-from list is reusable
  EXPECT_EQ(source, IntList{7});
}

TEST(SmallVectorTest, MoveOfInlineListCopiesAndEmptiesSource) {
  IntList source = Iota(5);
  ASSERT_TRUE(source.inline_storage());
  const std::uint64_t before = AllocationsNow();
  IntList moved(std::move(source));
  IntList assigned;
  assigned = std::move(moved);
  EXPECT_EQ(AllocationsNow(), before) << "inline move allocated";
  EXPECT_TRUE(assigned.inline_storage());
  EXPECT_EQ(assigned, Iota(5));
  EXPECT_TRUE(source.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(moved.empty());   // NOLINT(bugprone-use-after-move)
}

TEST(SmallVectorTest, CopyOfSpilledListOwnsItsOwnBlock) {
  const IntList source = Iota(64);
  const IntList copy(source);
  EXPECT_NE(copy.data(), source.data());
  EXPECT_EQ(copy, source);
}

TEST(BlockPoolTest, FreedBlockIsReusedBySameClassOnly) {
  using util::BlockPool;
  void* block = BlockPool::Allocate(100);
  BlockPool::Free(block, 100);
  // 300 bytes is another size class: it must not get the freed block.
  void* other = BlockPool::Allocate(300);
  EXPECT_NE(other, block);
  // 110 bytes shares 100's class: the freed block comes straight back.
  const std::uint64_t before = AllocationsNow();
  void* reused = BlockPool::Allocate(110);
  EXPECT_EQ(reused, block);
  EXPECT_EQ(AllocationsNow(), before);
  BlockPool::Free(reused, 110);
  BlockPool::Free(other, 300);
}

TEST(BlockPoolTest, FreesPastTheCapGoBackToTheHeap) {
  using util::BlockPool;
  constexpr std::size_t kBytes = 200;
  constexpr std::size_t kExtra = 8;
  std::vector<void*> blocks(BlockPool::kMaxFreePerClass + kExtra);
  const auto allocate_all = [&] {
    for (void*& block : blocks) {
      block = BlockPool::Allocate(kBytes);
    }
  };
  const auto free_all = [&] {
    for (void* block : blocks) {
      BlockPool::Free(block, kBytes);
    }
  };
  allocate_all();
  free_all();
  EXPECT_EQ(BlockPool::FreeCount(kBytes), BlockPool::kMaxFreePerClass);
  // Only the capped number of blocks was kept: the rest came from the heap.
  const std::uint64_t before = AllocationsNow();
  allocate_all();
  EXPECT_EQ(AllocationsNow() - before, kExtra);
  EXPECT_EQ(BlockPool::FreeCount(kBytes), 0u);
  free_all();
  EXPECT_EQ(BlockPool::FreeCount(kBytes), BlockPool::kMaxFreePerClass);
}

TEST(BlockPoolTest, OversizeRequestsPassThroughToTheHeap) {
  using util::BlockPool;
  constexpr std::size_t kBytes = BlockPool::kMaxBlockBytes + 1;
  const std::uint64_t before = AllocationsNow();
  void* block = BlockPool::Allocate(kBytes);
  EXPECT_EQ(AllocationsNow(), before + 1);
  BlockPool::Free(block, kBytes);
  void* again = BlockPool::Allocate(kBytes);
  EXPECT_EQ(AllocationsNow(), before + 2);
  BlockPool::Free(again, kBytes);
}

TEST(BlockPoolTest, TwoThreadsNeverShareAList) {
  using util::BlockPool;
  constexpr std::size_t kBytes = 500;
  void* mine = BlockPool::Allocate(kBytes);
  BlockPool::Free(mine, kBytes);
  const std::uint32_t my_count = BlockPool::FreeCount(kBytes);
  ASSERT_GE(my_count, 1u);
  void* theirs = nullptr;
  std::uint32_t their_count_before = 0;
  std::uint32_t their_count_after = 0;
  std::thread other([&] {
    their_count_before = BlockPool::FreeCount(kBytes);
    theirs = BlockPool::Allocate(kBytes);
    BlockPool::Free(theirs, kBytes);
    their_count_after = BlockPool::FreeCount(kBytes);
  });  // the thread's lists go back to the heap when it exits
  other.join();
  EXPECT_EQ(their_count_before, 0u);
  EXPECT_NE(theirs, mine);
  EXPECT_EQ(their_count_after, 1u);
  EXPECT_EQ(BlockPool::FreeCount(kBytes), my_count);
  void* again = BlockPool::Allocate(kBytes);
  EXPECT_EQ(again, mine);
  BlockPool::Free(again, kBytes);
}

}  // namespace
}  // namespace ccsim
