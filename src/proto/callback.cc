#include "proto/callback.h"

#include <utility>

#include "check/checker.h"
#include "util/macros.h"

namespace ccsim::proto {

// --- client ---

bool CallbackClient::ReadLocally(db::PageId page,
                                 client::CachedPage& entry) {
  if (!entry.retained) {
    return false;
  }
  if (entry.lease_until != 0 && c_.simulator().Now() > entry.lease_until) {
    // Recovery mode: the lease ran out, so a lost callback may have let the
    // server force-release this lock behind our back. Stop trusting it and
    // re-validate with the server like an ordinary cached copy.
    c_.metrics().Count(runner::Counter::lease_expirations);
    entry.retained = false;
    entry.retained_x = false;
    entry.lease_until = 0;
    return false;
  }
  // The whole point of callback locking: a retained lock guarantees
  // validity, so the read needs no server contact at all.
  if (check::Checker* checker = c_.metrics().checker()) {
    checker->OnTrustedLocalRead(c_.id(), page, entry.version,
                                /*retained_lock=*/true, entry.lease_until,
                                c_.simulator().Now(),
                                /*fault_free=*/!c_.resilient());
  }
  entry.lock = (retain_write_locks_ && entry.retained_x)
                   ? client::PageLock::kExclusive
                   : client::PageLock::kShared;
  c_.cache().RecordHit();
  c_.cache().Pin(page);
  return true;
}

sim::Task<bool> CallbackClient::Commit() {
  // Reads served purely from retained locks never contacted the server;
  // report them so the commit-time serializability oracle covers them.
  auto request = std::make_unique<net::Message>();
  c_.cache().ForEachTouched(
      [&](db::PageId page, const client::CachedPage& entry) {
        if (entry.lock != client::PageLock::kNone) {
          request->read_set.push_back(page);
          request->read_versions.push_back(entry.version);
        }
      });
  const net::MessagePtr reply =
      co_await CommitThroughServer(std::move(request));
  if (reply->aborted) {
    co_return false;
  }
  // The server converted this transaction's locks into retained locks,
  // except the pages it released to queued waiters.
  const std::int64_t lease_until =
      c_.lease_ticks() > 0 ? c_.simulator().Now() + c_.lease_ticks() : 0;
  c_.cache().ForEachTouched(
      [&](db::PageId /*page*/, client::CachedPage& entry) {
        if (entry.lock != client::PageLock::kNone) {
          entry.retained = true;
          entry.retained_x = retain_write_locks_ &&
                             entry.lock == client::PageLock::kExclusive;
          entry.lease_until = lease_until;
        }
      });
  for (db::PageId page : reply->released_pages) {
    client::CachedPage* entry = c_.cache().Find(page);
    if (entry != nullptr) {
      entry->retained = false;
      entry->retained_x = false;
      entry->lease_until = 0;
    }
  }
  co_return true;
}

sim::Task<void> CallbackClient::OnAttemptEnd(bool committed) {
  if (!committed) {
    // The server released every lock the aborted transaction held,
    // including absorbed retained locks: those pages are no longer
    // protected.
    c_.cache().ForEachTouched(
        [](db::PageId /*page*/, client::CachedPage& entry) {
          if (entry.lock != client::PageLock::kNone && entry.retained) {
            entry.retained = false;
            entry.retained_x = false;
          }
        });
  }
  // Deferred callbacks: the transaction is over, relinquish now.
  auto release = std::make_unique<net::Message>();
  release->type = net::MsgType::kCallbackRelease;
  release->xact = 0;
  for (db::PageId page : deferred_callbacks_) {
    release->pages.push_back(page);
    client::CachedPage* entry = c_.cache().Find(page);
    if (entry != nullptr) {
      entry->retained = false;
    }
  }
  deferred_callbacks_.clear();
  co_await TwoPhaseClient::OnAttemptEnd(committed);
  if (!release->pages.empty()) {
    co_await c_.SendAsync(std::move(release));
  }
}

sim::Task<void> CallbackClient::HandleEvictions(
    client::ClientCache::EvictedList& victims) {
  client::ClientCache::EvictedList rest;
  for (client::ClientCache::Evicted& victim : victims) {
    if (!victim.info.dirty && victim.info.retained &&
        !explicit_evict_notices_) {
      // Piggyback the notice on the next message to the server instead of
      // paying a dedicated message (the explicit-notice ablation keeps the
      // dedicated kEvictNotice message).
      pending_evict_notices_.push_back(victim.page);
      continue;
    }
    rest.push_back(victim);
  }
  if (!rest.empty()) {
    co_await ClientProtocol::HandleEvictions(rest);
  }
}

sim::Task<void> CallbackClient::HandleAsync(net::Message& msg) {
  if (msg.type != net::MsgType::kCallbackRequest) {
    co_await ClientProtocol::HandleAsync(msg);
    co_return;
  }
  auto release = std::make_unique<net::Message>();
  release->type = net::MsgType::kCallbackRelease;
  release->xact = 0;
  for (db::PageId page : msg.pages) {
    client::CachedPage* entry = c_.cache().Find(page);
    const bool in_use = entry != nullptr && c_.cache().IsPinned(page) &&
                        c_.current_xact() != 0;
    if (in_use) {
      // Used by the current transaction: release at transaction end
      // (paper §2.3).
      deferred_callbacks_.insert(page);
      continue;
    }
    if (entry != nullptr) {
      entry->retained = false;  // the page itself stays cached, unlocked
      entry->retained_x = false;
    }
    release->pages.push_back(page);
  }
  if (!release->pages.empty()) {
    co_await c_.SendAsync(std::move(release));
  }
}

// --- server ---

CallbackServer::CallbackServer(server::Server* server,
                               bool retain_write_locks)
    : TwoPhaseServer(server), retain_write_locks_(retain_write_locks) {
  if (s_.resilient()) {
    lease_ticks_ = sim::MillisToTicks(s_.config().fault.lease_ms);
  }
  // Deadlock detection must see through retained locks: a retained lock in
  // use by the owning client's current transaction is released only when
  // that transaction finishes.
  server::Server* srv = server;
  s_.locks().set_retained_proxy([srv](lock::OwnerId owner) {
    return srv->ActiveXactOfClient(lock::RetainedClient(owner));
  });
}

void CallbackServer::BeforeAcquire(const server::XactState& state,
                                   db::PageId page, lock::LockMode mode) {
  // If the requesting client's own retained owner holds the page, move the
  // lock to the transaction so it does not conflict with itself.
  const lock::OwnerId retained = lock::RetainedOwner(state.client);
  if (s_.locks().Holds(retained, page, lock::LockMode::kShared)) {
    s_.locks().TransferLock(retained, state.uid, page);
  }
  // Ask other clients retaining the page to give their locks back while we
  // wait; a shared request conflicts only with retained exclusive locks.
  // The callback sender is spawned so it runs *after* the Acquire that
  // follows has put us in the wait queue: any commit that would re-retain
  // the lock then sees a waiter and releases instead (no retained holder
  // can appear behind the sender's back).
  if (mode == lock::LockMode::kExclusive || retain_write_locks_) {
    s_.simulator().Spawn(RequestCallbacks(state.client, page, mode));
  }
}

sim::Process CallbackServer::RequestCallbacks(int requester_client,
                                              db::PageId page,
                                              lock::LockMode mode) {
  for (const lock::LockManager::HolderInfo& holder :
       s_.locks().HoldersOf(page)) {
    if (!lock::IsRetainedOwner(holder.owner)) {
      continue;  // a transaction: it will finish on its own
    }
    if (holder.mode == lock::LockMode::kShared &&
        mode == lock::LockMode::kShared) {
      continue;  // compatible: no need to call the lock back
    }
    const int client = lock::RetainedClient(holder.owner);
    if (client == requester_client) {
      continue;  // own retained lock is absorbed, not called back
    }
    if (!outstanding_callbacks_.insert({page, client}).second) {
      continue;  // already asked
    }
    auto callback = std::make_unique<net::Message>();
    callback->type = net::MsgType::kCallbackRequest;
    callback->dst = client;
    callback->pages.push_back(page);
    if (lease_ticks_ > 0) {
      // Recovery mode: the callback request or its release may be lost, or
      // the retainer may be dead. After 1.5 leases (past the point where
      // the client stops trusting the copy) revoke the lock unilaterally so
      // the waiter is not wedged forever.
      s_.simulator().ScheduleAfter(lease_ticks_ + lease_ticks_ / 2, [this,
                                                                     page,
                                                                     client] {
        if (s_.down()) {
          return;
        }
        if (outstanding_callbacks_.count({page, client}) != 0) {
          s_.metrics().Count(runner::Counter::lease_expirations);
          const db::PageId one[] = {page};
          HandleRetainedRelease(client, one);
        }
      });
    }
    co_await s_.Send(std::move(callback));
  }
}

void CallbackServer::HandleRetainedRelease(
    int client, std::span<const db::PageId> pages) {
  for (db::PageId page : pages) {
    s_.locks().Release(lock::RetainedOwner(client), page);
    outstanding_callbacks_.erase({page, client});
  }
}

void CallbackServer::OnMessage(const net::Message& msg) {
  if (!msg.evicted_pages.empty() && msg.src != net::kServerNode) {
    HandleRetainedRelease(msg.src, msg.evicted_pages);
  }
  if (msg.type == net::MsgType::kEvictNotice ||
      msg.type == net::MsgType::kCallbackRelease) {
    // A clean page with a retained lock left a client cache, or the client
    // keeps the page and gives up only the lock.
    HandleRetainedRelease(msg.src, msg.pages);
  }
}

void CallbackServer::DisposeLocks(const server::XactState& state,
                                  net::Message* reply) {
  // The transaction's locks become retained locks of the client. Only read
  // locks are retained (write locks are downgraded) unless the
  // retain-write-locks ablation is on. Pages another transaction is
  // already queued on are released outright — retaining them would stall
  // the waiter forever, since its callback round already happened.
  const lock::OwnerId retained = lock::RetainedOwner(state.client);
  for (db::PageId page : s_.locks().PagesHeldBy(state.uid)) {
    if (s_.locks().HasWaiters(page)) {
      s_.locks().Release(state.uid, page);
      reply->released_pages.push_back(page);
      continue;
    }
    if (!retain_write_locks_ &&
        s_.locks().Holds(state.uid, page, lock::LockMode::kExclusive)) {
      s_.locks().Downgrade(state.uid, page);
    }
    s_.locks().TransferLock(state.uid, retained, page);
  }
}

void CallbackServer::OnCrash() {
  // The lock table was wiped with the rest of volatile state; there is
  // nothing left to call back.
  outstanding_callbacks_.clear();
}

void CallbackServer::OnClientReset(int client) {
  // The client's retained locks were just bulk-released (its cache is
  // gone); drop the pending callbacks so the lease force-release timers
  // become no-ops.
  for (auto it = outstanding_callbacks_.begin();
       it != outstanding_callbacks_.end();) {
    if (it->second == client) {
      it = outstanding_callbacks_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace ccsim::proto
