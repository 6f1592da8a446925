#ifndef CCSIM_SERVER_DIRECTORY_H_
#define CCSIM_SERVER_DIRECTORY_H_

#include <cstdint>
#include <vector>

#include "db/database.h"
#include "util/block_pool.h"
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
  /// A directory for clients [0, num_clients) over pages [0, total_pages).
  /// The reverse index reserves room for every page and reaches a page's
  /// set when the page is first noted, so construction touches no set.
  Directory(int per_client_capacity, int num_clients,
            std::int64_t total_pages)
      : per_client_capacity_(per_client_capacity),
        per_client_(static_cast<std::size_t>(num_clients)) {
    by_page_.reserve(static_cast<std::size_t>(total_pages));
  }

  Directory(const Directory&) = delete;
  Directory& operator=(const Directory&) = delete;

  /// Records that `client` was sent a copy of `page`.
  void Note(int client, db::PageId page) {
    PageLru& pages = ViewOf(client);
    if (!pages.TouchOrInsert(page, Empty{}).second) {
      return;
    }
    // The new page is the most recently used entry, so it is never the
    // victim while the capacity is at least one.
    while (static_cast<int>(pages.size()) > per_client_capacity_) {
      const auto* victim = pages.VictimCandidate();
      DropInternal(client, pages, victim->key);
    }
    const auto index = static_cast<std::size_t>(page);
    if (index >= by_page_.size()) {
      by_page_.resize(index + 1);  // fresh sets; moved sets keep their order
    }
    ClientSet& clients = by_page_[index];
    if (clients.empty()) {
      ++page_count_;
    }
    clients.insert(client);
  }

  /// Forgets `page` for `client` (eviction notice processed).
  void Drop(int client, db::PageId page) {
    DropInternal(client, ViewOf(client), page);
  }

  bool Caches(int client, db::PageId page) const {
    const ClientSet* clients = ClientsOf(page);
    return clients != nullptr && clients->count(client) > 0;
  }

  /// Appends to `out` the clients believed to cache `page`, excluding
  /// `except`, in the per-page set's iteration order.
  void ClientsCaching(db::PageId page, int except,
                      std::vector<int>* out) const {
    const ClientSet* clients = ClientsOf(page);
    if (clients == nullptr) {
      return;
    }
    for (int client : *clients) {
      if (client != except) {
        out->push_back(client);
      }
    }
  }

  /// Forgets everything `client` caches (the client crashed; its previous
  /// life's cache is gone).
  void DropClient(int client) {
    PageLru& pages = ViewOf(client);
    std::vector<db::PageId> keys;
    pages.ForEach([&](const PageLru::Entry& e) { keys.push_back(e.key); });
    for (db::PageId page : keys) {
      DropInternal(client, pages, page);
    }
  }

  /// Forgets everything (the server crashed; the directory was volatile).
  void Clear() {
    for (PageLru& pages : per_client_) {
      pages.Clear();
    }
    for (ClientSet& clients : by_page_) {
      if (!clients.empty()) {
        clients = ClientSet();
      }
    }
    page_count_ = 0;
  }

  /// Pages at least one client is believed to cache.
  std::size_t page_count() const { return page_count_; }

  /// Consistency-oracle audit: the per-client LRU view and the by-page
  /// reverse index must mirror each other exactly, page_count() must count
  /// the non-empty per-page sets, no client may exceed its capacity bound,
  /// and an emptied per-page set must have been replaced by a fresh one
  /// (a drained set keeps its buckets, which would change the order
  /// ClientsCaching reports once it refills). Fatal on violation.
  ///
  /// Agreement is checked without hashing: the forward views are marked
  /// in a page-by-client bitmap, every (page, client) of the reverse index
  /// must be marked, and both sides must hold as many entries. Neither
  /// side holds duplicates, so together these mean they hold the same
  /// entries.
  void AuditStructure() const {
    const std::size_t words = (per_client_.size() + 63) / 64;
    std::vector<std::uint64_t> forward(by_page_.size() * words);
    std::size_t forward_entries = 0;
    for (std::size_t client = 0; client < per_client_.size(); ++client) {
      const PageLru& pages = per_client_[client];
      CCSIM_CHECK_MSG(static_cast<int>(pages.size()) <= per_client_capacity_,
                      "directory for client %zu exceeds its capacity bound",
                      client);
      pages.ForEach([&](const PageLru::Entry& e) {
        const auto page = static_cast<std::size_t>(e.key);
        CCSIM_CHECK_MSG(page < by_page_.size(),
                        "directory entry (client %zu, page %d) outside the "
                        "database", client, e.key);
        forward[page * words + client / 64] |= std::uint64_t{1}
                                               << (client % 64);
        ++forward_entries;
      });
    }
    const std::size_t fresh_buckets = ClientSet().bucket_count();
    std::size_t reverse_entries = 0;
    std::size_t cached_pages = 0;
    for (std::size_t page = 0; page < by_page_.size(); ++page) {
      const ClientSet& clients = by_page_[page];
      if (clients.empty()) {
        CCSIM_CHECK_MSG(clients.bucket_count() == fresh_buckets,
                        "emptied reverse-index entry for page %zu was not "
                        "replaced by a fresh set", page);
        continue;
      }
      for (int client : clients) {
        const auto c = static_cast<std::size_t>(client);
        CCSIM_CHECK_MSG(
            c < per_client_.size() &&
                (forward[page * words + c / 64] >> (c % 64) & 1) != 0,
            "reverse-index entry (client %d, page %zu) missing from the "
            "client's view", client, page);
      }
      reverse_entries += clients.size();
      ++cached_pages;
    }
    CCSIM_CHECK_MSG(forward_entries == reverse_entries,
                    "directory indexes disagree: %zu forward vs %zu reverse",
                    forward_entries, reverse_entries);
    CCSIM_CHECK_MSG(cached_pages == page_count_,
                    "directory counts %zu cached pages but %zu per-page "
                    "sets are non-empty", page_count_, cached_pages);
  }

 private:
  struct Empty {};
  using PageLru = LruTable<db::PageId, Empty>;
  /// Hashed on purpose: ClientsCaching hands its iteration order to
  /// no-wait-notify's propagation sends.
  using ClientSet = util::PooledSet<int>;

  PageLru& ViewOf(int client) {
    CCSIM_CHECK_MSG(static_cast<std::size_t>(client) < per_client_.size(),
                    "client %d outside the directory's %zu clients", client,
                    per_client_.size());
    return per_client_[static_cast<std::size_t>(client)];
  }

  const ClientSet* ClientsOf(db::PageId page) const {
    const auto index = static_cast<std::size_t>(page);
    return index < by_page_.size() ? &by_page_[index] : nullptr;
  }

  void DropInternal(int client, PageLru& pages, db::PageId page) {
    if (!pages.Erase(page)) {
      return;
    }
    ClientSet& clients = by_page_[static_cast<std::size_t>(page)];
    clients.erase(client);
    if (clients.empty()) {
      // A fresh set, not the drained one: see AuditStructure.
      clients = ClientSet();
      --page_count_;
    }
  }

  int per_client_capacity_;
  /// Indexed by client id.
  std::vector<PageLru> per_client_;
  /// Indexed by page id, up to the largest page noted so far; an empty set
  /// means no client caches the page.
  std::vector<ClientSet> by_page_;
  std::size_t page_count_ = 0;
};

}  // namespace ccsim::server

#endif  // CCSIM_SERVER_DIRECTORY_H_
