#ifndef CCSIM_PROTO_TWO_PHASE_H_
#define CCSIM_PROTO_TWO_PHASE_H_

#include "config/params.h"
#include "proto/protocol.h"

namespace ccsim::proto {

/// Two-phase locking with caching (paper §2.1).
///
/// Check-on-access: a transaction touching a cached-but-unlocked page asks
/// the server for the lock and piggybacks the cached version number; the
/// server validates it while granting, shipping a fresh copy only when
/// stale. Intra-transaction mode simply clears the cache at every
/// transaction start, so every page is fetched (and locked) from the
/// server.
class TwoPhaseClient : public ClientProtocol {
 public:
  TwoPhaseClient(client::Client* client, config::CachingMode mode)
      : ClientProtocol(client),
        intra_(mode == config::CachingMode::kIntraTransaction) {}

  void OnAttemptStart() override {
    if (intra_) {
      c_.cache().Clear();
    }
  }

 protected:
  sim::Task<bool> ReadObject(const workload::Step& step) override;
  /// One round trip upgrades every written page not yet held exclusively,
  /// then the pages are updated in place.
  sim::Task<bool> UpdateObject(const workload::Step& step) override;

  /// Serves a read of a cached page this transaction has not locked
  /// without contacting the server; true when it did (and counted the hit
  /// and pinned the page). 2PL always checks with the server.
  virtual bool ReadLocally(db::PageId /*page*/,
                           client::CachedPage& /*entry*/) {
    return false;
  }

 private:
  bool intra_;
};

/// Server half of two-phase locking: S/X page locks held to commit,
/// deadlock victims aborted, in-place updates with WAL.
class TwoPhaseServer : public ServerProtocol {
 public:
  explicit TwoPhaseServer(server::Server* server) : ServerProtocol(server) {}

  /// Runs OnMessage, then returns the message type's handler.
  sim::Task<void> Handle(const net::Message& msg) override;

 protected:
  /// Bookkeeping every message gets before dispatch; none under 2PL.
  virtual void OnMessage(const net::Message& /*msg*/) {}

  /// Runs just before a read or upgrade requests its lock on `page`.
  virtual void BeforeAcquire(const server::XactState& /*state*/,
                             db::PageId /*page*/, lock::LockMode /*mode*/) {}

  /// Lock disposition after a commit's versions are installed and its log
  /// record forced; 2PL releases every lock.
  virtual void DisposeLocks(const server::XactState& state,
                            net::Message* reply);

 private:
  /// Locks the pages of a read or upgrade `request` in `mode`, in order,
  /// and returns the attempt's state. On a refusal the attempt is aborted
  /// (unless it already was), the request is answered with an aborted
  /// reply of its reply type, and the result is nullptr.
  sim::Task<server::XactState*> LockOrAbort(const net::Message& request,
                                            lock::LockMode mode);

  sim::Task<void> HandleRead(const net::Message& msg);
  sim::Task<void> HandleUpgrade(const net::Message& msg);
  sim::Task<void> HandleCommit(const net::Message& msg);
  sim::Task<void> HandleDirtyEvict(const net::Message& msg);
};

}  // namespace ccsim::proto

#endif  // CCSIM_PROTO_TWO_PHASE_H_
