#ifndef CCSIM_PROTO_CALLBACK_H_
#define CCSIM_PROTO_CALLBACK_H_

#include <set>
#include <utility>

#include "proto/two_phase.h"
#include "util/block_pool.h"

namespace ccsim::proto {

/// Callback locking (paper §2.3), the Andrew File System idea applied to a
/// page-server DBMS: clients keep ("retain") read locks on cached pages
/// after commit, so re-accessing those pages requires no server contact at
/// all. When another client needs an exclusive lock, the server *calls
/// back* the retained locks; a client relinquishes immediately unless its
/// current transaction uses the page, in which case the release happens at
/// transaction end.
///
/// Per the paper only read locks are retained (write locks are downgraded
/// to retained read locks at commit); `retain_write_locks` is the ablation
/// that retains write locks too.
///
/// Callback locking is 2PL whose locks outlive the transaction, so both
/// halves subclass the 2PL ones and add only the retained-lock hooks.
class CallbackClient : public TwoPhaseClient {
 public:
  CallbackClient(client::Client* client, bool retain_write_locks,
                 bool explicit_evict_notices)
      : TwoPhaseClient(client, config::CachingMode::kInterTransaction),
        retain_write_locks_(retain_write_locks),
        explicit_evict_notices_(explicit_evict_notices) {}

  sim::Task<void> OnAttemptEnd(bool committed) override;
  sim::Task<void> HandleAsync(net::Message& msg) override;
  sim::Task<void> HandleEvictions(
      client::ClientCache::EvictedList& victims) override;

 protected:
  /// A retained lock whose lease holds serves the read locally.
  bool ReadLocally(db::PageId page, client::CachedPage& entry) override;
  sim::Task<bool> Commit() override;

  /// Drains the piggyback queue of retained-lock eviction notices.
  std::vector<db::PageId> TakeEvictNotices() override {
    std::vector<db::PageId> out;
    out.swap(pending_evict_notices_);
    return out;
  }

 private:
  bool retain_write_locks_;
  bool explicit_evict_notices_;
  /// Called-back pages in use by the current transaction; released (with a
  /// kCallbackRelease message) when the transaction ends.
  util::PooledSet<db::PageId> deferred_callbacks_;
  /// Evicted retained locks awaiting piggybacking on the next message.
  std::vector<db::PageId> pending_evict_notices_;
};

/// Server half of callback locking: 2PL plus retained lock owners per
/// client, lock absorption (retained -> transaction on first transactional
/// touch), callback requests to conflicting retainers, and commit-time
/// downgrade of transaction locks into retained locks.
class CallbackServer : public TwoPhaseServer {
 public:
  CallbackServer(server::Server* server, bool retain_write_locks);

  void OnCrash() override;
  void OnClientReset(int client) override;

 protected:
  /// Releases the retained locks a client gave up: eviction notices
  /// (dedicated or piggybacked) and callback releases.
  void OnMessage(const net::Message& msg) override;

  /// Absorbs the requester's own retained lock and calls back the
  /// conflicting retained locks of other clients.
  void BeforeAcquire(const server::XactState& state, db::PageId page,
                     lock::LockMode mode) override;

  /// Turns the committed transaction's locks into retained locks of its
  /// client, except those another transaction waits for.
  void DisposeLocks(const server::XactState& state,
                    net::Message* reply) override;

 private:
  void HandleRetainedRelease(int client, std::span<const db::PageId> pages);

  /// Spawned after the requesting transaction has *enqueued* its lock wait:
  /// sends callback requests to every other client retaining the page with
  /// a mode incompatible with `mode` (deduplicated while outstanding).
  /// Running after the enqueue closes the race where a commit re-retains
  /// the lock between the callback decision and the wait.
  sim::Process RequestCallbacks(int requester_client, db::PageId page,
                                lock::LockMode mode);

  bool retain_write_locks_;
  /// Recovery mode: retained-lock lease length (0 = leases off). A callback
  /// unanswered past the lease is force-released server-side.
  sim::Ticks lease_ticks_ = 0;
  /// (page, client) pairs with an outstanding callback request.
  std::set<std::pair<db::PageId, int>, std::less<>,
           util::PoolAllocator<std::pair<db::PageId, int>>>
      outstanding_callbacks_;
};

}  // namespace ccsim::proto

#endif  // CCSIM_PROTO_CALLBACK_H_
