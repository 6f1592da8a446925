#include "lock/lock_manager.h"

#include <algorithm>
#include <utility>

#include "util/macros.h"

namespace ccsim::lock {

LockManager::~LockManager() = default;

void LockManager::EraseWait(OwnerId owner, db::PageId page,
                            const Entry& entry) {
  // One owner can have several records queued on the same page (a no-wait
  // transaction's asynchronous S and X requests); only drop the
  // waiting-on marker when none remain.
  for (const Waiter& w : entry.waiters) {
    if (w.owner == owner) {
      return;
    }
  }
  auto it = waiting_on_.find(owner);
  if (it == waiting_on_.end()) {
    return;
  }
  it->second.erase(page);
  if (it->second.empty()) {
    waiting_on_.erase(it);
  }
}

LockManager::Entry& LockManager::EntryOf(db::PageId page) {
  CCSIM_CHECK_MSG(page >= 0, "lock on page %d", page);
  const auto index = static_cast<std::size_t>(page);
  if (index >= table_.size()) {
    // Within the reserved page count this moves nothing; past it, nothing
    // refers into the table across this call (Acquire takes its entry
    // reference only afterwards), so moving the entries is safe.
    table_.resize(index + 1);
  }
  return table_[index];
}

LockManager::Entry* LockManager::FindEntry(db::PageId page) {
  return const_cast<Entry*>(std::as_const(*this).FindEntry(page));
}

const LockManager::Entry* LockManager::FindEntry(db::PageId page) const {
  const auto index = static_cast<std::size_t>(page);
  if (index >= table_.size()) {
    return nullptr;
  }
  const Entry& entry = table_[index];
  return entry.holders.empty() && entry.waiters.empty() ? nullptr : &entry;
}

LockManager::Holder* LockManager::FindHolder(Entry& entry, OwnerId owner) {
  for (Holder& h : entry.holders) {
    if (h.owner == owner) {
      return &h;
    }
  }
  return nullptr;
}

bool LockManager::Holds(OwnerId owner, db::PageId page, LockMode mode) const {
  const Entry* entry = FindEntry(page);
  if (entry == nullptr) {
    return false;
  }
  for (const Holder& h : entry->holders) {
    if (h.owner == owner) {
      return mode == LockMode::kShared || h.mode == LockMode::kExclusive;
    }
  }
  return false;
}

LockManager::HolderList LockManager::HoldersOf(db::PageId page) const {
  HolderList out;
  const Entry* entry = FindEntry(page);
  if (entry == nullptr) {
    return out;
  }
  for (const Holder& h : entry->holders) {
    out.push_back(HolderInfo{h.owner, h.mode});
  }
  return out;
}

void LockManager::CollectBlockers(const Entry& entry, OwnerId requester,
                                  LockMode mode, bool is_upgrade,
                                  OwnerList* blockers) const {
  for (const Holder& h : entry.holders) {
    if (h.owner == requester) {
      continue;
    }
    if (!Compatible(h.mode, mode)) {
      blockers->push_back(h.owner);
    }
  }
  for (const Waiter& w : entry.waiters) {
    if (w.owner == requester) {
      // Existing waiter: only those *ahead* of it block (FCFS).
      break;
    }
    if (is_upgrade && !w.is_upgrade) {
      // A new upgrade enters ahead of plain waiters; they do not block it.
      continue;
    }
    blockers->push_back(w.owner);
  }
}

bool LockManager::WouldDeadlock(OwnerId owner, db::PageId page,
                                LockMode mode) const {
  const Entry* entry = FindEntry(page);
  if (entry == nullptr) {
    return false;
  }
  const bool is_upgrade = [&] {
    for (const Holder& h : entry->holders) {
      if (h.owner == owner) {
        return true;
      }
    }
    return false;
  }();

  OwnerList stack;
  CollectBlockers(*entry, owner, mode, is_upgrade, &stack);
  util::PooledSet<OwnerId> visited;
  while (!stack.empty()) {
    OwnerId blocker = stack.back();
    stack.pop_back();
    if (IsRetainedOwner(blocker)) {
      // A retained lock is released as soon as the owning client's current
      // transaction (if it uses the page) finishes; the waits-for successor
      // is that transaction.
      blocker = retained_proxy_ ? retained_proxy_(blocker) : 0;
      if (blocker == 0) {
        continue;
      }
    }
    if (blocker == owner) {
      return true;
    }
    if (!visited.insert(blocker).second) {
      continue;
    }
    auto wait_it = waiting_on_.find(blocker);
    if (wait_it == waiting_on_.end()) {
      continue;  // not waiting: a running transaction, no outgoing edges
    }
    for (db::PageId blocked_page : wait_it->second) {
      const Entry* blocked_entry = FindEntry(blocked_page);
      if (blocked_entry == nullptr) {
        continue;
      }
      // Collect blockers for every queued request of this owner (there can
      // be both an S and an X record on the page).
      for (const Waiter& w : blocked_entry->waiters) {
        if (w.owner == blocker) {
          CollectBlockers(*blocked_entry, blocker, w.mode, w.is_upgrade,
                          &stack);
        }
      }
    }
  }
  return false;
}

sim::Task<LockOutcome> LockManager::Acquire(OwnerId owner, db::PageId page,
                                            LockMode mode) {
  using Outcome = sim::Task<LockOutcome>;
  Entry& entry = EntryOf(page);
  Holder* mine = FindHolder(entry, owner);
  if (mine != nullptr) {
    if (mode == LockMode::kShared || mine->mode == LockMode::kExclusive) {
      return Outcome::Ready(LockOutcome::kGranted);  // already strong enough
    }
    // Upgrade S -> X: immediate when sole holder.
    if (entry.holders.size() == 1) {
      mine->mode = LockMode::kExclusive;
      return Outcome::Ready(LockOutcome::kGranted);
    }
  } else {
    // Fresh request: grant only if compatible with holders and nobody
    // queued (strict FCFS — no jumping ahead of waiters).
    const bool holders_ok = std::all_of(
        entry.holders.begin(), entry.holders.end(),
        [&](const Holder& h) { return Compatible(h.mode, mode); });
    if (holders_ok && entry.waiters.empty()) {
      entry.holders.push_back(Holder{owner, mode});
      held_by_[owner].insert(page);
      ++held_count_;
      return Outcome::Ready(LockOutcome::kGranted);
    }
  }
  if (WouldDeadlock(owner, page, mode)) {
    ++deadlocks_detected_;
    return Outcome::Ready(LockOutcome::kDeadlock);
  }
  return WaitForGrant(owner, page, mode, /*is_upgrade=*/mine != nullptr);
}

sim::Task<LockOutcome> LockManager::WaitForGrant(OwnerId owner,
                                                 db::PageId page,
                                                 LockMode mode,
                                                 bool is_upgrade) {
  Entry& entry = EntryOf(page);
  // Upgrades queue ahead of plain waiters, behind earlier upgrades.
  auto pos = entry.waiters.end();
  if (is_upgrade) {
    pos = entry.waiters.begin();
    while (pos != entry.waiters.end() && pos->is_upgrade) {
      ++pos;
    }
  }
  sim::OneShot<LockOutcome> slot(simulator_);
  entry.waiters.insert(pos, Waiter{owner, mode, is_upgrade, &slot});
  ++waiter_count_;
  waiting_on_[owner].insert(page);
  const LockOutcome outcome = co_await slot.Wait();
  co_return outcome;
}

bool LockManager::CanGrant(const Entry& entry, const Waiter& waiter) const {
  // A waiter whose owner already holds the lock (it was granted after this
  // request queued — no-wait transactions issue several requests
  // concurrently) is an implicit upgrade/no-op.
  const Holder* own = nullptr;
  for (const Holder& h : entry.holders) {
    if (h.owner == waiter.owner) {
      own = &h;
      break;
    }
  }
  if (waiter.is_upgrade || own != nullptr) {
    if (own != nullptr && (waiter.mode == LockMode::kShared ||
                           own->mode == LockMode::kExclusive)) {
      return true;  // already strong enough
    }
    // Upgrade: grantable when the owner is the only remaining holder.
    return entry.holders.size() == 1 &&
           entry.holders.front().owner == waiter.owner;
  }
  return std::all_of(
      entry.holders.begin(), entry.holders.end(),
      [&](const Holder& h) { return Compatible(h.mode, waiter.mode); });
}

void LockManager::GrantEligible(db::PageId page) {
  Entry* found = FindEntry(page);
  if (found == nullptr) {
    return;
  }
  Entry& entry = *found;
  while (!entry.waiters.empty() && CanGrant(entry, entry.waiters.front())) {
    const Waiter w = entry.waiters.front();
    entry.waiters.erase(entry.waiters.begin());
    --waiter_count_;
    EraseWait(w.owner, page, entry);
    Holder* mine = FindHolder(entry, w.owner);
    if (mine != nullptr) {
      // Upgrade (explicit or implicit): strengthen the held mode in place.
      if (w.mode == LockMode::kExclusive) {
        mine->mode = LockMode::kExclusive;
      }
    } else {
      CCSIM_CHECK(!w.is_upgrade);
      entry.holders.push_back(Holder{w.owner, w.mode});
      held_by_[w.owner].insert(page);
      ++held_count_;
    }
    w.slot->Set(LockOutcome::kGranted);
  }
}

void LockManager::Release(OwnerId owner, db::PageId page) {
  Entry* entry = FindEntry(page);
  if (entry == nullptr) {
    return;
  }
  auto it = std::find_if(entry->holders.begin(), entry->holders.end(),
                         [&](const Holder& h) { return h.owner == owner; });
  if (it == entry->holders.end()) {
    return;
  }
  entry->holders.erase(it);
  --held_count_;
  auto held_it = held_by_.find(owner);
  if (held_it != held_by_.end()) {
    held_it->second.erase(page);
    if (held_it->second.empty()) {
      held_by_.erase(held_it);
    }
  }
  GrantEligible(page);
}

void LockManager::ReleaseAll(OwnerId owner) {
  auto it = held_by_.find(owner);
  if (it == held_by_.end()) {
    return;
  }
  const PageIdList pages(it->second.begin(), it->second.end());
  for (db::PageId page : pages) {
    Release(owner, page);
  }
}

void LockManager::CancelOwner(OwnerId owner) {
  auto wait_it = waiting_on_.find(owner);
  if (wait_it != waiting_on_.end()) {
    const PageIdList pages(wait_it->second.begin(), wait_it->second.end());
    waiting_on_.erase(wait_it);
    for (db::PageId page : pages) {
      Entry* entry = FindEntry(page);
      CCSIM_CHECK(entry != nullptr);
      // Cancel *every* queued record of this owner on the page (a no-wait
      // transaction can have both an S and an X request queued here).
      bool cancelled_any = false;
      for (auto w = entry->waiters.begin(); w != entry->waiters.end();) {
        if (w->owner != owner) {
          ++w;
          continue;
        }
        sim::OneShot<LockOutcome>* slot = w->slot;
        w = entry->waiters.erase(w);
        --waiter_count_;
        cancelled_any = true;
        slot->Set(LockOutcome::kAborted);
      }
      CCSIM_CHECK(cancelled_any);
      GrantEligible(page);  // their removal may unblock others
    }
  }
  ReleaseAll(owner);
}

void LockManager::Reset() {
  // Collect the slots first, in ascending page order: waking a waiter
  // mutates nothing here (Set only schedules a resume), but iterating a
  // table we are also clearing would.
  std::vector<sim::OneShot<LockOutcome>*> slots;
  for (Entry& entry : table_) {
    for (const Waiter& w : entry.waiters) {
      slots.push_back(w.slot);
    }
    entry.holders.clear();
    entry.waiters.clear();
  }
  waiting_on_.clear();
  held_by_.clear();
  held_count_ = 0;
  waiter_count_ = 0;
  for (sim::OneShot<LockOutcome>* slot : slots) {
    slot->Set(LockOutcome::kAborted);
  }
}

void LockManager::TransferLock(OwnerId from, OwnerId to, db::PageId page) {
  Entry* entry = FindEntry(page);
  CCSIM_CHECK_MSG(entry != nullptr, "TransferLock on unlocked page");
  Holder* source = FindHolder(*entry, from);
  CCSIM_CHECK_MSG(source != nullptr, "TransferLock: source not a holder");
  Holder* target = FindHolder(*entry, to);
  if (target != nullptr) {
    // Merge: keep the stronger mode under the target owner.
    if (source->mode == LockMode::kExclusive) {
      target->mode = LockMode::kExclusive;
    }
    entry->holders.erase(entry->holders.begin() +
                         (source - entry->holders.data()));
    --held_count_;
  } else {
    source->owner = to;
    held_by_[to].insert(page);
  }
  auto held_it = held_by_.find(from);
  if (held_it != held_by_.end()) {
    held_it->second.erase(page);
    if (held_it->second.empty()) {
      held_by_.erase(held_it);
    }
  }
  if (target != nullptr) {
    GrantEligible(page);
  }
}

void LockManager::Downgrade(OwnerId owner, db::PageId page) {
  Entry* entry = FindEntry(page);
  CCSIM_CHECK(entry != nullptr);
  Holder* mine = FindHolder(*entry, owner);
  CCSIM_CHECK(mine != nullptr);
  mine->mode = LockMode::kShared;
  GrantEligible(page);
}

void LockManager::DebugDump(std::FILE* out) const {
  for (std::size_t page = 0; page < table_.size(); ++page) {
    const Entry& entry = table_[page];
    if (entry.waiters.empty()) {
      continue;
    }
    std::fprintf(out, "page %zu holders:", page);
    for (const Holder& h : entry.holders) {
      std::fprintf(out, " %llu%s", (unsigned long long)h.owner,
                   h.mode == LockMode::kExclusive ? "X" : "S");
    }
    std::fprintf(out, " waiters:");
    for (const Waiter& w : entry.waiters) {
      std::fprintf(out, " %llu%s%s", (unsigned long long)w.owner,
                   w.mode == LockMode::kExclusive ? "X" : "S",
                   w.is_upgrade ? "(up)" : "");
    }
    std::fprintf(out, "\n");
  }
}

}  // namespace ccsim::lock
