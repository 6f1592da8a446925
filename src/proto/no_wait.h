#ifndef CCSIM_PROTO_NO_WAIT_H_
#define CCSIM_PROTO_NO_WAIT_H_

#include <cstdint>
#include <memory>

#include "config/params.h"
#include "proto/protocol.h"
#include "server/directory.h"
#include "util/block_pool.h"

namespace ccsim::proto {

/// No-wait ("optimistic") locking (paper §2.4, Gerson's algorithm from
/// Statice): the client assumes cached pages are valid and keeps executing;
/// lock/validate requests go to the server asynchronously and the server
/// answers only negatively (an abort notice). Cache misses still fetch
/// synchronously. A transaction can commit only after the server has
/// resolved all of its outstanding requests.
class NoWaitClient : public ClientProtocol {
 public:
  explicit NoWaitClient(client::Client* client) : ClientProtocol(client) {}

  sim::Task<void> OnAttemptEnd(bool committed) override;

 protected:
  sim::Task<bool> ReadObject(const workload::Step& step) override;
  sim::Task<bool> UpdateObject(const workload::Step& step) override;
  sim::Task<bool> Commit() override;

 private:
  /// Recovery mode: version of every page at the moment this attempt first
  /// used it. The fire-and-forget lock/validate request may be lost, so the
  /// commit carries these for a server-side backward validation.
  util::PooledMap<db::PageId, std::uint64_t> read_set_;
};

/// Server half of no-wait locking. With `notify` (paper §2.5), committed
/// updates are propagated to every client the caching directory believes
/// caches the page, reducing stale-read aborts; `notify_invalidate` is the
/// ablation that sends invalidations instead of new copies, and
/// `notify_broadcast` the one that sends to every other client and so
/// keeps no directory.
class NoWaitServer : public ServerProtocol {
 public:
  NoWaitServer(server::Server* server, bool notify, bool notify_invalidate,
               bool notify_broadcast);

  sim::Task<void> Handle(const net::Message& msg) override;

  /// The directory is volatile: a server crash loses it, and a client's
  /// restart empties that client's cache.
  void OnCrash() override;
  void OnClientReset(int client) override;
  void OnClientCopy(int client, db::PageId page) override;
  void AuditStructure() override;

 private:
  sim::Task<void> HandleNoWaitLock(const net::Message& msg);
  sim::Task<void> HandleRead(const net::Message& msg);
  sim::Task<void> HandleCommit(const net::Message& msg);
  sim::Task<void> HandleDirtyEvict(const net::Message& msg);

  /// Aborts the transaction server-side and sends the asynchronous abort
  /// notice (with the stale pages collected so far). No-op when already
  /// aborted.
  sim::Task<void> AbortWithNotice(server::XactState& state);

  /// Propagates the committed updates in `state.updated` to caching
  /// clients.
  sim::Task<void> PropagateUpdates(const server::XactState& state,
                                   const net::Message& commit_reply);

  bool notify_;
  bool notify_invalidate_;
  bool notify_broadcast_;
  /// Which clients were sent copies of which pages; null unless the
  /// propagation targets come from it.
  std::unique_ptr<server::Directory> directory_;
};

}  // namespace ccsim::proto

#endif  // CCSIM_PROTO_NO_WAIT_H_
