#ifndef CCSIM_SERVER_DIRECTORY_H_
#define CCSIM_SERVER_DIRECTORY_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "db/database.h"
#include "util/block_pool.h"
#include "util/lru.h"

namespace ccsim::server {

/// Tracks which clients were sent copies of which pages: the server-side
/// memory that notification needs ("the server [must] remember which
/// objects have been cached by which clients", paper §6). No-wait locking
/// with notification owns the one instance (proto::NoWaitServer); no other
/// protocol reads it, so no other builds it.
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
  /// Every page is checked in full at least once every this many audits
  /// (AuditStructure's rotating slice).
  static constexpr std::size_t kAuditSlices = 16;

  /// A directory for clients [0, num_clients) over pages [0, total_pages).
  /// The reverse index reserves room for every page and reaches a page's
  /// set when the page is first noted, so construction touches no set.
  /// An `audited` directory logs the pages whose membership changes, for
  /// AuditStructure; an unaudited one keeps no log and must not be
  /// audited.
  Directory(int per_client_capacity, int num_clients,
            std::int64_t total_pages, bool audited)
      : per_client_capacity_(per_client_capacity),
        per_client_(static_cast<std::size_t>(num_clients)),
        total_pages_(static_cast<std::size_t>(total_pages)),
        audited_(audited) {
    by_page_.reserve(total_pages_);
    if (audited_) {
      logged_.resize(total_pages_);
    }
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
    LogChange(index, clients.size());
    if (clients.empty()) {
      ++page_count_;
    }
    if (clients.insert(client).second) {
      ++reverse_entries_;
    }
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
    for (std::size_t page = 0; page < by_page_.size(); ++page) {
      ClientSet& clients = by_page_[page];
      if (!clients.empty()) {
        LogChange(page, clients.size());
        clients = ClientSet();
      }
    }
    page_count_ = 0;
    reverse_entries_ = 0;
  }

  /// Pages at least one client is believed to cache.
  std::size_t page_count() const { return page_count_; }

  /// Consistency-oracle audit: the per-client LRU views and the by-page
  /// reverse index must mirror each other exactly, page_count() must count
  /// the non-empty per-page sets, no client may exceed its capacity bound,
  /// and an emptied per-page set must have been replaced by a fresh one
  /// (a drained set keeps its buckets, which would change the order
  /// ClientsCaching reports once it refills). Fatal on violation.
  ///
  /// The audit costs O(work since the last audit), not O(entries held):
  ///  - every page whose membership changed since the last audit is
  ///    checked in full (CheckPage);
  ///  - the totals are checked from counters in O(clients): the views hold
  ///    as many entries as the reverse index, and the reverse index and
  ///    page_count() moved by exactly what the changed pages' sets moved;
  ///  - a rotating slice of 1/kAuditSlices of all pages is checked in
  ///    full, so an entry corrupted behind the log's back is caught within
  ///    kAuditSlices audits.
  void AuditStructure() {
    CCSIM_CHECK_MSG(audited_, "directory audited without a change log");
    std::size_t forward_entries = 0;
    for (std::size_t client = 0; client < per_client_.size(); ++client) {
      const PageLru& pages = per_client_[client];
      CCSIM_CHECK_MSG(static_cast<int>(pages.size()) <= per_client_capacity_,
                      "directory for client %zu exceeds its capacity bound",
                      client);
      forward_entries += pages.size();
    }
    audit_visits_ += per_client_.size();
    CCSIM_CHECK_MSG(forward_entries == reverse_entries_,
                    "directory indexes disagree: %zu forward vs %zu reverse",
                    forward_entries, reverse_entries_);
    const std::size_t fresh_buckets = ClientSet().bucket_count();
    std::size_t entries = audited_entries_;
    std::size_t pages = audited_pages_;
    for (const Change& change : changes_) {
      const std::size_t now = SetSize(change.page);
      entries = entries + now - change.clients_before;
      pages = pages + (now > 0 ? 1 : 0) - (change.clients_before > 0 ? 1 : 0);
      CheckPage(change.page, fresh_buckets);
      logged_[change.page] = false;
    }
    changes_.clear();
    CCSIM_CHECK_MSG(entries == reverse_entries_,
                    "reverse index holds %zu entries but counts %zu",
                    entries, reverse_entries_);
    CCSIM_CHECK_MSG(pages == page_count_,
                    "directory counts %zu cached pages but %zu per-page "
                    "sets are non-empty", page_count_, pages);
    audited_entries_ = reverse_entries_;
    audited_pages_ = page_count_;
    const std::size_t total = std::max(total_pages_, by_page_.size());
    const std::size_t slice = (total + kAuditSlices - 1) / kAuditSlices;
    for (std::size_t i = 0; i < slice; ++i) {
      CheckPage(slice_cursor_, fresh_buckets);
      slice_cursor_ = slice_cursor_ + 1 < total ? slice_cursor_ + 1 : 0;
    }
  }

  /// Directory entries the audits have visited so far: one per client
  /// view consulted and one per reverse-index entry walked.
  std::uint64_t audit_visits() const { return audit_visits_; }

 private:
  friend class DirectoryTestPeer;

  struct Empty {};
  using PageLru = LruTable<db::PageId, Empty>;
  /// Hashed on purpose: ClientsCaching hands its iteration order to
  /// no-wait-notify's propagation sends.
  using ClientSet = util::PooledSet<int>;
  /// A page whose per-page set changed since the last audit, with the
  /// set's size before its first change.
  struct Change {
    std::size_t page;
    std::size_t clients_before;
  };

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

  std::size_t SetSize(std::size_t page) const {
    return page < by_page_.size() ? by_page_[page].size() : 0;
  }

  void LogChange(std::size_t page, std::size_t clients_before) {
    if (!audited_) {
      return;
    }
    if (page >= logged_.size()) {
      logged_.resize(page + 1);
    }
    if (!logged_[page]) {
      logged_[page] = true;
      changes_.push_back(Change{page, clients_before});
    }
  }

  void DropInternal(int client, PageLru& pages, db::PageId page) {
    if (!pages.Erase(page)) {
      return;
    }
    const auto index = static_cast<std::size_t>(page);
    ClientSet& clients = by_page_[index];
    LogChange(index, clients.size());
    if (clients.erase(client) > 0) {
      --reverse_entries_;
    }
    if (clients.empty()) {
      // A fresh set, not the drained one: see AuditStructure.
      clients = ClientSet();
      --page_count_;
    }
  }

  /// Checks one page both ways: every client in its per-page set has the
  /// page in its view, and the views holding the page are as many as the
  /// set's clients (neither side holds duplicates, so together these mean
  /// they hold the same clients). An empty set must be a fresh one.
  void CheckPage(std::size_t page, std::size_t fresh_buckets) {
    const auto key = static_cast<db::PageId>(page);
    std::size_t set_size = 0;
    if (page < by_page_.size()) {
      const ClientSet& clients = by_page_[page];
      CCSIM_CHECK_MSG(!clients.empty() ||
                          clients.bucket_count() == fresh_buckets,
                      "emptied reverse-index entry for page %zu was not "
                      "replaced by a fresh set", page);
      for (int client : clients) {
        const auto c = static_cast<std::size_t>(client);
        CCSIM_CHECK_MSG(c < per_client_.size() && per_client_[c].Contains(key),
                        "reverse-index entry (client %d, page %zu) missing "
                        "from the client's view", client, page);
      }
      set_size = clients.size();
    }
    std::size_t holders = 0;
    for (const PageLru& pages : per_client_) {
      holders += pages.Contains(key) ? 1 : 0;
    }
    audit_visits_ += set_size + per_client_.size();
    if (holders == set_size) {
      return;
    }
    // The reverse entries all have views, so some view lacks its entry.
    for (int client = 0; client < static_cast<int>(per_client_.size());
         ++client) {
      CCSIM_CHECK_MSG(!ViewOf(client).Contains(key) || Caches(client, key),
                      "directory entry (client %d, page %zu) missing from "
                      "the reverse index", client, page);
    }
    CCSIM_UNREACHABLE();
  }

  int per_client_capacity_;
  /// Indexed by client id.
  std::vector<PageLru> per_client_;
  /// Indexed by page id, up to the largest page noted so far; an empty set
  /// means no client caches the page.
  std::vector<ClientSet> by_page_;
  std::size_t page_count_ = 0;
  /// Entries in the per-page sets, summed.
  std::size_t reverse_entries_ = 0;
  std::size_t total_pages_;

  // --- audit state (untouched unless audited_) ---
  bool audited_;
  /// Pages changed since the last audit, each once (logged_ marks them).
  std::vector<Change> changes_;
  std::vector<bool> logged_;
  /// reverse_entries_ and page_count_ as the last audit confirmed them.
  std::size_t audited_entries_ = 0;
  std::size_t audited_pages_ = 0;
  /// Next page of the rotating slice.
  std::size_t slice_cursor_ = 0;
  std::uint64_t audit_visits_ = 0;
};

}  // namespace ccsim::server

#endif  // CCSIM_SERVER_DIRECTORY_H_
