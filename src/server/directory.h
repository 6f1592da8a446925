#ifndef CCSIM_SERVER_DIRECTORY_H_
#define CCSIM_SERVER_DIRECTORY_H_

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "db/database.h"
#include "util/lru.h"

namespace ccsim::server {

/// Tracks which clients were sent copies of which pages — the server-side
/// memory that notification needs ("the server [must] remember which
/// objects have been cached by which clients", paper §6) and that callback
/// locking uses for bookkeeping.
///
/// Entries are added whenever page data is shipped to a client and removed
/// when the server learns of an eviction (explicit or piggybacked
/// notices). Clients that drop clean pages silently leave stale entries —
/// those cause wasted notifications, exactly as the paper models (§2.5) —
/// but the server knows each client's cache capacity, so it keeps at most
/// `per_client_capacity` entries per client in LRU order (its best
/// approximation of the real cache contents).
class Directory {
 public:
  explicit Directory(int per_client_capacity = 1 << 20)
      : per_client_capacity_(per_client_capacity) {}

  Directory(const Directory&) = delete;
  Directory& operator=(const Directory&) = delete;

  /// Records that `client` was sent a copy of `page`.
  void Note(int client, db::PageId page) {
    LruTable<db::PageId, Empty>& pages = per_client_[client];
    if (!pages.TouchOrInsert(page, Empty{}).second) {
      return;
    }
    // The new page is the most recently used entry, so it is never the
    // victim while the capacity is at least one.
    while (static_cast<int>(pages.size()) > per_client_capacity_) {
      const auto* victim = pages.VictimCandidate();
      DropInternal(client, pages, victim->key);
    }
    by_page_[page].insert(client);
  }

  /// Forgets `page` for `client` (eviction notice processed).
  void Drop(int client, db::PageId page) {
    auto it = per_client_.find(client);
    if (it == per_client_.end()) {
      return;
    }
    DropInternal(client, it->second, page);
  }

  bool Caches(int client, db::PageId page) const {
    auto it = by_page_.find(page);
    return it != by_page_.end() && it->second.count(client) > 0;
  }

  /// Clients believed to cache `page`, excluding `except`.
  std::vector<int> ClientsCaching(db::PageId page, int except) const {
    std::vector<int> out;
    auto it = by_page_.find(page);
    if (it == by_page_.end()) {
      return out;
    }
    out.reserve(it->second.size());
    for (int client : it->second) {
      if (client != except) {
        out.push_back(client);
      }
    }
    return out;
  }

  /// Forgets everything `client` caches (the client crashed; its previous
  /// life's cache is gone).
  void DropClient(int client) {
    auto it = per_client_.find(client);
    if (it == per_client_.end()) {
      return;
    }
    std::vector<db::PageId> pages;
    it->second.ForEach(
        [&](const LruTable<db::PageId, Empty>::Entry& e) {
          pages.push_back(e.key);
        });
    for (db::PageId page : pages) {
      DropInternal(client, it->second, page);
    }
    per_client_.erase(client);
  }

  /// Forgets everything (the server crashed; the directory was volatile).
  void Clear() {
    per_client_.clear();
    by_page_.clear();
  }

  std::size_t page_count() const { return by_page_.size(); }

  /// Consistency-oracle audit: the per-client LRU view and the by-page
  /// reverse index must mirror each other exactly, and no client may exceed
  /// its capacity bound. Fatal on violation.
  void AuditStructure() const {
    std::size_t forward_entries = 0;
    for (const auto& [client, pages] : per_client_) {
      CCSIM_CHECK_MSG(static_cast<int>(pages.size()) <= per_client_capacity_,
                      "directory for client %d exceeds its capacity bound",
                      client);
      const int client_id = client;
      pages.ForEach([&](const LruTable<db::PageId, Empty>::Entry& e) {
        ++forward_entries;
        auto it = by_page_.find(e.key);
        CCSIM_CHECK_MSG(it != by_page_.end() &&
                        it->second.count(client_id) > 0,
                        "directory entry (client %d, page %d) missing from "
                        "the reverse index", client_id, e.key);
      });
    }
    std::size_t reverse_entries = 0;
    for (const auto& [page, clients] : by_page_) {
      CCSIM_CHECK_MSG(!clients.empty(),
                      "empty reverse-index entry for page %d", page);
      reverse_entries += clients.size();
    }
    CCSIM_CHECK_MSG(forward_entries == reverse_entries,
                    "directory indexes disagree: %zu forward vs %zu reverse",
                    forward_entries, reverse_entries);
  }

 private:
  struct Empty {};

  void DropInternal(int client, LruTable<db::PageId, Empty>& pages,
                    db::PageId page) {
    if (!pages.Erase(page)) {
      return;
    }
    auto it = by_page_.find(page);
    if (it != by_page_.end()) {
      it->second.erase(client);
      if (it->second.empty()) {
        by_page_.erase(it);
      }
    }
  }

  int per_client_capacity_;
  std::unordered_map<int, LruTable<db::PageId, Empty>> per_client_;
  std::unordered_map<db::PageId, std::unordered_set<int>> by_page_;
};

}  // namespace ccsim::server

#endif  // CCSIM_SERVER_DIRECTORY_H_
