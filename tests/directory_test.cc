// Unit tests for the server's caching directory (notification targeting).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "server/directory.h"

namespace ccsim::server {

/// Reaches past the directory's API to corrupt its reverse index the way a
/// bug would: without logging the change.
class DirectoryTestPeer {
 public:
  static util::PooledSet<int>& ClientsOf(Directory& dir, db::PageId page) {
    return dir.by_page_[static_cast<std::size_t>(page)];
  }
};

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
  Directory dir(10, kClients, kPages, /*audited=*/true);
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
  Directory dir(10, kClients, kPages, /*audited=*/true);
  dir.Note(1, 100);
  dir.Note(2, 100);
  EXPECT_EQ(ClientsCaching(dir, 100, /*except=*/1),
            (std::vector<int>{2}));
}

TEST(DirectoryTest, DropRemoves) {
  Directory dir(10, kClients, kPages, /*audited=*/true);
  dir.Note(1, 100);
  dir.Drop(1, 100);
  EXPECT_FALSE(dir.Caches(1, 100));
  EXPECT_TRUE(ClientsCaching(dir, 100, -1).empty());
  EXPECT_EQ(dir.page_count(), 0u);
}

TEST(DirectoryTest, DropUnknownIsNoop) {
  Directory dir(10, kClients, kPages, /*audited=*/true);
  dir.Drop(1, 100);
  dir.Note(1, 100);
  dir.Drop(2, 100);  // other client
  EXPECT_TRUE(dir.Caches(1, 100));
}

TEST(DirectoryTest, PerClientCapacityEvictsLru) {
  Directory dir(/*per_client_capacity=*/3, kClients, kPages,
                /*audited=*/true);
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
  Directory dir(2, kClients, kPages, /*audited=*/true);
  dir.Note(1, 10);
  dir.Note(1, 20);
  dir.Note(2, 10);
  dir.Note(2, 30);
  dir.Note(1, 40);  // evicts client 1's page 10 only
  EXPECT_FALSE(dir.Caches(1, 10));
  EXPECT_TRUE(dir.Caches(2, 10));
}

TEST(DirectoryTest, RepeatedNoteIsIdempotent) {
  Directory dir(2, kClients, kPages, /*audited=*/true);
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
    Directory dir(/*per_client_capacity=*/1000, kClients, kPages,
                  /*audited=*/true);
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
  Directory dir(1000, kManyClients, kPages, /*audited=*/true);
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

// ---------------------------------------------------------------------------
// Negative controls: the incremental audit catches what the full walk did
// ---------------------------------------------------------------------------

/// kPages pages over kClients clients, every page cached by clients 0 and 1.
void FillTwoClients(Directory& dir) {
  for (db::PageId page = 0; page < kPages; ++page) {
    dir.Note(0, page);
    dir.Note(1, page);
  }
}

TEST(DirectoryDeathTest, UntouchedCorruptionIsCaughtWithinTheSliceCount) {
  // Page 5 loses client 1 from its reverse set behind the change log's
  // back, just after the rotating slice passed it. No later change touches
  // the page, and the counters still agree, so only the slice can find it:
  // the audits pass until the slice comes round again, kAuditSlices audits
  // later, and that audit dies.
  static_assert(kPages % Directory::kAuditSlices == 0);
  Directory dir(kPages, kClients, kPages, /*audited=*/true);
  FillTwoClients(dir);
  dir.AuditStructure();  // the slice covered pages [0, kPages / K)
  DirectoryTestPeer::ClientsOf(dir, 5).erase(1);
  for (std::size_t audit = 1; audit < Directory::kAuditSlices; ++audit) {
    dir.Note(2, static_cast<db::PageId>(100 + audit));  // unrelated work
    dir.AuditStructure();
  }
  EXPECT_DEATH(dir.AuditStructure(),
               "directory entry \\(client 1, page 5\\) missing from the "
               "reverse index");
}

TEST(DirectoryDeathTest, CorruptionOnAChangedPageIsCaughtAtTheNextAudit) {
  // Page 200 loses client 0 behind the log's back; then client 3 is noted
  // on it, a legitimate change. The slice is far from page 200, so the
  // next audit finds the corruption by checking the changed page.
  Directory dir(kPages, kClients, kPages, /*audited=*/true);
  FillTwoClients(dir);
  dir.AuditStructure();
  DirectoryTestPeer::ClientsOf(dir, 200).erase(0);
  dir.Note(3, 200);
  EXPECT_DEATH(dir.AuditStructure(),
               "directory entry \\(client 0, page 200\\) missing from the "
               "reverse index");
}

TEST(DirectoryDeathTest, ADrainedSetReusedInsteadOfReplacedIsCaught) {
  // Page 150's set is drained by legitimate drops, then swapped for a set
  // that was filled and clear()ed, which keeps its buckets, as a
  // DropInternal that cleared instead of replacing would leave it. The
  // drops logged the page, so the next audit checks it.
  Directory dir(kPages, kClients, kPages, /*audited=*/true);
  FillTwoClients(dir);
  dir.AuditStructure();
  dir.Drop(0, 150);
  dir.Drop(1, 150);
  util::PooledSet<int> drained;
  for (int client = 0; client < 64; ++client) {
    drained.insert(client);
  }
  drained.clear();
  DirectoryTestPeer::ClientsOf(dir, 150) = std::move(drained);
  EXPECT_DEATH(dir.AuditStructure(),
               "emptied reverse-index entry for page 150 was not replaced");
}

}  // namespace
}  // namespace ccsim::server
