#ifndef CCSIM_LOCK_LOCK_MANAGER_H_
#define CCSIM_LOCK_LOCK_MANAGER_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <vector>

#include "db/database.h"
#include "sim/event.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "util/block_pool.h"
#include "util/small_vector.h"

namespace ccsim::lock {

/// Lock owner identity. Two kinds of owners share the space:
///  - active transactions (unique uids below kRetainedOwnerBase), and
///  - per-client *retained* owners used by callback locking, encoded as
///    kRetainedOwnerBase + client_id. Retained locks survive transaction
///    boundaries and are released when the server calls them back.
using OwnerId = std::uint64_t;

inline constexpr OwnerId kRetainedOwnerBase = 1ULL << 62;

/// Returns the retained-owner id for a client.
constexpr OwnerId RetainedOwner(int client_id) {
  return kRetainedOwnerBase + static_cast<OwnerId>(client_id);
}
constexpr bool IsRetainedOwner(OwnerId owner) {
  return owner >= kRetainedOwnerBase;
}
constexpr int RetainedClient(OwnerId owner) {
  return static_cast<int>(owner - kRetainedOwnerBase);
}

enum class LockMode { kShared, kExclusive };

/// Result of a blocking lock acquisition.
enum class LockOutcome {
  kGranted,
  /// Granting would close a waits-for cycle; the requester is the victim.
  kDeadlock,
  /// The waiter was cancelled (its transaction was aborted server-side).
  kAborted,
};

/// Page-granularity two-mode lock manager with FCFS wait queues, lock
/// upgrades, waits-for-graph deadlock detection, and retained-lock owners
/// (paper §3.3.4). Single-threaded within the simulation; "blocking" means
/// suspending the calling coroutine.
class LockManager {
 public:
  /// The table reserves room for pages [0, total_pages) — the server
  /// passes the layout's page count — and reaches each page's entry when
  /// the page is first locked, so construction touches no entry; unit
  /// tests and replays that have no layout let it grow.
  explicit LockManager(sim::Simulator* simulator,
                       std::int64_t total_pages = 0)
      : simulator_(simulator) {
    table_.reserve(static_cast<std::size_t>(total_pages));
  }
  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;
  ~LockManager();

  /// Acquires `mode` on `page` for `owner`, suspending while incompatible
  /// locks are held. Re-entrant: holding S and asking for X upgrades (sole
  /// holders upgrade immediately; otherwise the upgrade waits at the front
  /// of the queue). Deadlock resolution aborts the *requester* (returns
  /// kDeadlock without enqueuing). A grant or deadlock decided at once is
  /// a Ready task.
  sim::Task<LockOutcome> Acquire(OwnerId owner, db::PageId page,
                                 LockMode mode);

  /// Releases one lock; wakes eligible waiters. No-op if not held.
  void Release(OwnerId owner, db::PageId page);

  /// Releases every lock held by `owner`.
  void ReleaseAll(OwnerId owner);

  /// Cancels all pending waits of `owner` (each returns kAborted) and
  /// releases its held locks. Used when the server aborts a transaction
  /// that may have requests queued (no-wait locking).
  void CancelOwner(OwnerId owner);

  /// Server-crash modeling: drops the whole lock table. Every held lock
  /// vanishes and every queued waiter resumes with kAborted (its
  /// transaction died with the server's volatile state).
  void Reset();

  /// True if `owner` has any request queued (used to keep the idle-reaper
  /// from victimizing a transaction that is merely stuck in a lock queue).
  bool IsWaiting(OwnerId owner) const {
    return waiting_on_.find(owner) != waiting_on_.end();
  }

  /// Atomically transfers a held lock to another owner (same mode), without
  /// going through the queue. Used by callback locking to convert a
  /// transaction lock into a retained client lock at commit, and back.
  /// Fatal if `from` does not hold the lock.
  void TransferLock(OwnerId from, OwnerId to, db::PageId page);

  /// Downgrades a held exclusive lock to shared; wakes eligible waiters.
  void Downgrade(OwnerId owner, db::PageId page);

  /// True if `owner` holds `page` with at least `mode` strength.
  bool Holds(OwnerId owner, db::PageId page, LockMode mode) const;

  /// Current holders of `page` (empty if unlocked), copied: the caller
  /// may await while it walks them. Inline capacity covers the usual few
  /// sharers.
  struct HolderInfo {
    OwnerId owner;
    LockMode mode;
  };
  using HolderList = util::SmallVector<HolderInfo, 8>;
  HolderList HoldersOf(db::PageId page) const;

  /// True if any request is queued on `page`.
  bool HasWaiters(db::PageId page) const {
    const Entry* entry = FindEntry(page);
    return entry != nullptr && !entry->waiters.empty();
  }

  /// Page-id list for the owner-wide operations; inline capacity covers a
  /// transaction's locks (Table 5: 4-12 objects, plus upgrades' pages).
  using PageIdList = util::SmallVector<db::PageId, 32>;

  /// Pages currently held by `owner`, in the held set's iteration order
  /// (used for commit-time lock disposition in callback locking).
  PageIdList PagesHeldBy(OwnerId owner) const {
    auto it = held_by_.find(owner);
    if (it == held_by_.end()) {
      return {};
    }
    return PageIdList(it->second.begin(), it->second.end());
  }

  /// Number of (owner, page) locks currently held.
  std::size_t held_count() const { return held_count_; }
  /// Number of waiting requests.
  std::size_t waiter_count() const { return waiter_count_; }
  /// Deadlocks detected so far.
  std::uint64_t deadlocks_detected() const { return deadlocks_detected_; }

  /// Prints the lock table (holders and waiters per page) for debugging.
  void DebugDump(std::FILE* out) const;

  /// Installs the waits-for proxy for retained owners: given a retained
  /// owner, returns the transaction that must finish before the retained
  /// lock can be released (the owning client's current transaction), or 0
  /// if the lock will be released promptly. Used in deadlock detection.
  void set_retained_proxy(std::function<OwnerId(OwnerId)> proxy) {
    retained_proxy_ = std::move(proxy);
  }

 private:
  struct Holder {
    OwnerId owner;
    LockMode mode;
  };
  struct Waiter {
    OwnerId owner;
    LockMode mode;
    bool is_upgrade;
    sim::OneShot<LockOutcome>* slot;  // owned by the awaiting coroutine
  };
  struct Entry {
    std::vector<Holder> holders;
    /// FIFO: upgrades are inserted ahead of plain waiters, grants pop the
    /// front. A vector, because queues stay short and a deque allocates a
    /// map and a chunk for every entry, even one nobody waits on.
    std::vector<Waiter> waiters;
  };

  static bool Compatible(LockMode a, LockMode b) {
    return a == LockMode::kShared && b == LockMode::kShared;
  }

  /// Queues `owner`'s request and waits for its outcome.
  sim::Task<LockOutcome> WaitForGrant(OwnerId owner, db::PageId page,
                                      LockMode mode, bool is_upgrade);
  void EraseWait(OwnerId owner, db::PageId page, const Entry& entry);
  /// The page's entry, locked or not; grows the table to reach it.
  Entry& EntryOf(db::PageId page);
  /// The page's entry, or nullptr when nobody holds or waits for it.
  Entry* FindEntry(db::PageId page);
  const Entry* FindEntry(db::PageId page) const;
  Holder* FindHolder(Entry& entry, OwnerId owner);

  /// Grants queued waiters that have become eligible; wakes them.
  void GrantEligible(db::PageId page);
  bool CanGrant(const Entry& entry, const Waiter& waiter) const;

  /// Owners still to visit in a waits-for search.
  using OwnerList = util::SmallVector<OwnerId, 16>;

  /// True if adding owner's wait on `page` would create a waits-for cycle
  /// back to `owner`.
  bool WouldDeadlock(OwnerId owner, db::PageId page, LockMode mode) const;
  void CollectBlockers(const Entry& entry, OwnerId requester, LockMode mode,
                       bool is_upgrade,
                       OwnerList* blockers) const;

  /// Page-id sets per owner. Hashed, and keyed by sparse transaction
  /// uids: ReleaseAll, CancelOwner and PagesHeldBy hand a set's iteration
  /// order to the grants and lock transfers they cause.
  using OwnerPages = util::PooledMap<OwnerId, util::PooledSet<db::PageId>>;

  sim::Simulator* simulator_;
  /// Indexed by page id, up to the largest page locked so far. An entry
  /// with neither holders nor waiters is an unlocked page; its vectors
  /// keep their capacity for the next locker.
  std::vector<Entry> table_;
  /// pages an owner is currently waiting on (no-wait locking can have
  /// several of one transaction's requests queued concurrently).
  OwnerPages waiting_on_;
  /// reverse index: pages held per owner, for ReleaseAll.
  OwnerPages held_by_;
  std::function<OwnerId(OwnerId)> retained_proxy_;
  std::size_t held_count_ = 0;
  std::size_t waiter_count_ = 0;
  std::uint64_t deadlocks_detected_ = 0;
};

}  // namespace ccsim::lock

#endif  // CCSIM_LOCK_LOCK_MANAGER_H_
