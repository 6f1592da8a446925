// Unit tests for the server's caching directory (notification targeting).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <unordered_set>
#include <vector>

#include "server/directory.h"

namespace ccsim::server {
namespace {

constexpr int kClients = 4;
constexpr std::int64_t kPages = 256;

std::vector<int> ClientsCaching(const Directory& dir, db::PageId page,
                                int except) {
  std::vector<int> out;
  dir.ClientsCaching(page, except, &out);
  return out;
}

TEST(DirectoryTest, NoteAndQuery) {
  Directory dir(10, kClients, kPages);
  dir.Note(1, 100);
  dir.Note(2, 100);
  dir.Note(1, 200);
  EXPECT_TRUE(dir.Caches(1, 100));
  EXPECT_TRUE(dir.Caches(2, 100));
  EXPECT_FALSE(dir.Caches(3, 100));
  std::vector<int> clients = ClientsCaching(dir, 100, /*except=*/-1);
  std::sort(clients.begin(), clients.end());
  EXPECT_EQ(clients, (std::vector<int>{1, 2}));
}

TEST(DirectoryTest, ExceptFiltersRequester) {
  Directory dir(10, kClients, kPages);
  dir.Note(1, 100);
  dir.Note(2, 100);
  EXPECT_EQ(ClientsCaching(dir, 100, /*except=*/1),
            (std::vector<int>{2}));
}

TEST(DirectoryTest, DropRemoves) {
  Directory dir(10, kClients, kPages);
  dir.Note(1, 100);
  dir.Drop(1, 100);
  EXPECT_FALSE(dir.Caches(1, 100));
  EXPECT_TRUE(ClientsCaching(dir, 100, -1).empty());
  EXPECT_EQ(dir.page_count(), 0u);
}

TEST(DirectoryTest, DropUnknownIsNoop) {
  Directory dir(10, kClients, kPages);
  dir.Drop(1, 100);
  dir.Note(1, 100);
  dir.Drop(2, 100);  // other client
  EXPECT_TRUE(dir.Caches(1, 100));
}

TEST(DirectoryTest, PerClientCapacityEvictsLru) {
  Directory dir(/*per_client_capacity=*/3, kClients, kPages);
  dir.Note(1, 10);
  dir.Note(1, 20);
  dir.Note(1, 30);
  dir.Note(1, 10);  // touch 10 -> LRU is 20
  dir.Note(1, 40);  // evicts 20
  EXPECT_TRUE(dir.Caches(1, 10));
  EXPECT_FALSE(dir.Caches(1, 20));
  EXPECT_TRUE(dir.Caches(1, 30));
  EXPECT_TRUE(dir.Caches(1, 40));
}

TEST(DirectoryTest, CapacityIsPerClient) {
  Directory dir(2, kClients, kPages);
  dir.Note(1, 10);
  dir.Note(1, 20);
  dir.Note(2, 10);
  dir.Note(2, 30);
  dir.Note(1, 40);  // evicts client 1's page 10 only
  EXPECT_FALSE(dir.Caches(1, 10));
  EXPECT_TRUE(dir.Caches(2, 10));
}

TEST(DirectoryTest, RepeatedNoteIsIdempotent) {
  Directory dir(2, kClients, kPages);
  dir.Note(1, 10);
  dir.Note(1, 10);
  dir.Note(1, 10);
  dir.Note(1, 20);
  EXPECT_TRUE(dir.Caches(1, 10));  // repeats did not consume capacity
  EXPECT_TRUE(dir.Caches(1, 20));
}

TEST(DirectoryTest, RoundTripsKeepPageCountAndPassTheAudit) {
  // Random Note/Drop/DropClient/Clear round trips against a model of the
  // reverse index (without the per-client capacity, which is large here).
  // page_count() must count the pages some client caches, every query
  // must agree with the model, and the audit must pass throughout.
  for (std::uint32_t seed = 1; seed <= 10; ++seed) {
    std::mt19937 rng(seed);
    Directory dir(/*per_client_capacity=*/1000, kClients, kPages);
    std::map<db::PageId, std::set<int>> model;
    for (int step = 0; step < 2000; ++step) {
      const int client = static_cast<int>(rng() % kClients);
      const auto page = static_cast<db::PageId>(rng() % 48);
      const std::uint32_t op = rng() % 100;
      if (op < 55) {
        dir.Note(client, page);
        model[page].insert(client);
      } else if (op < 95) {
        dir.Drop(client, page);
        if (model.count(page) > 0 && model[page].erase(client) > 0 &&
            model[page].empty()) {
          model.erase(page);
        }
      } else if (op < 99) {
        dir.DropClient(client);
        for (auto it = model.begin(); it != model.end();) {
          it->second.erase(client);
          it = it->second.empty() ? model.erase(it) : std::next(it);
        }
      } else {
        dir.Clear();
        model.clear();
      }
      ASSERT_EQ(dir.page_count(), model.size()) << "seed " << seed;
      const auto probe = static_cast<db::PageId>(rng() % 48);
      std::vector<int> clients = ClientsCaching(dir, probe, /*except=*/-1);
      std::sort(clients.begin(), clients.end());
      const std::set<int>& expected =
          model.count(probe) > 0 ? model[probe] : std::set<int>();
      ASSERT_EQ(clients, std::vector<int>(expected.begin(), expected.end()))
          << "seed " << seed << " page " << probe;
      if (step % 50 == 0) {
        dir.AuditStructure();
      }
    }
    dir.AuditStructure();
  }
}

TEST(DirectoryTest, ARefilledPageReportsClientsInAFreshSetsOrder) {
  // Emptying a page's client set replaces it with a fresh set, so a page
  // refilled after draining iterates in the order a never-used set would:
  // the order notification sends follow. Many clients grow the drained
  // set's bucket array, so a merely cleared set would iterate differently.
  constexpr int kManyClients = 64;
  Directory dir(1000, kManyClients, kPages);
  for (int client = 0; client < kManyClients; ++client) {
    dir.Note(client, 7);
  }
  for (int client = 0; client < kManyClients; ++client) {
    dir.Drop(client, 7);
  }
  EXPECT_EQ(dir.page_count(), 0u);
  const std::vector<int> refill = {40, 3, 17, 29, 14};
  std::unordered_set<int> fresh;
  for (int client : refill) {
    dir.Note(client, 7);
    fresh.insert(client);
  }
  EXPECT_EQ(ClientsCaching(dir, 7, /*except=*/-1),
            std::vector<int>(fresh.begin(), fresh.end()));
  dir.AuditStructure();
}

}  // namespace
}  // namespace ccsim::server
