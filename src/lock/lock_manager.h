#ifndef CCSIM_LOCK_LOCK_MANAGER_H_
#define CCSIM_LOCK_LOCK_MANAGER_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "db/database.h"
#include "sim/event.h"
#include "sim/simulator.h"
#include "sim/task.h"

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
  explicit LockManager(sim::Simulator* simulator) : simulator_(simulator) {}
  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;
  ~LockManager();

  /// Acquires `mode` on `page` for `owner`, suspending while incompatible
  /// locks are held. Re-entrant: holding S and asking for X upgrades (sole
  /// holders upgrade immediately; otherwise the upgrade waits at the front
  /// of the queue). Deadlock resolution aborts the *requester* (returns
  /// kDeadlock without enqueuing).
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

  /// Current holders of `page` (empty if unlocked).
  struct HolderInfo {
    OwnerId owner;
    LockMode mode;
  };
  std::vector<HolderInfo> HoldersOf(db::PageId page) const;

  /// True if any request is queued on `page`.
  bool HasWaiters(db::PageId page) const {
    const Entry* entry = FindEntry(page);
    return entry != nullptr && !entry->waiters.empty();
  }

  /// Pages currently held by `owner` (used for commit-time lock
  /// disposition in callback locking).
  std::vector<db::PageId> PagesHeldBy(OwnerId owner) const {
    auto it = held_by_.find(owner);
    if (it == held_by_.end()) {
      return {};
    }
    return std::vector<db::PageId>(it->second.begin(), it->second.end());
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

  void EraseWait(OwnerId owner, db::PageId page, const Entry& entry);
  Entry* FindEntry(db::PageId page);
  const Entry* FindEntry(db::PageId page) const;
  Holder* FindHolder(Entry& entry, OwnerId owner);

  /// Grants queued waiters that have become eligible; wakes them.
  void GrantEligible(db::PageId page);
  bool CanGrant(const Entry& entry, const Waiter& waiter) const;

  /// True if adding owner's wait on `page` would create a waits-for cycle
  /// back to `owner`.
  bool WouldDeadlock(OwnerId owner, db::PageId page, LockMode mode) const;
  void CollectBlockers(const Entry& entry, OwnerId requester, LockMode mode,
                       bool is_upgrade,
                       std::vector<OwnerId>* blockers) const;

  sim::Simulator* simulator_;
  std::unordered_map<db::PageId, Entry> table_;
  /// pages an owner is currently waiting on (no-wait locking can have
  /// several of one transaction's requests queued concurrently).
  std::unordered_map<OwnerId, std::unordered_set<db::PageId>> waiting_on_;
  /// reverse index: pages held per owner, for ReleaseAll.
  std::unordered_map<OwnerId, std::unordered_set<db::PageId>> held_by_;
  std::function<OwnerId(OwnerId)> retained_proxy_;
  std::size_t held_count_ = 0;
  std::size_t waiter_count_ = 0;
  std::uint64_t deadlocks_detected_ = 0;
};

}  // namespace ccsim::lock

#endif  // CCSIM_LOCK_LOCK_MANAGER_H_
