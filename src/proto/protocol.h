#ifndef CCSIM_PROTO_PROTOCOL_H_
#define CCSIM_PROTO_PROTOCOL_H_

#include <vector>

#include "client/client.h"
#include "net/message.h"
#include "server/server.h"
#include "sim/process.h"
#include "sim/task.h"
#include "workload/workload.h"

namespace ccsim::proto {

/// Client half of a cache consistency algorithm: the algorithm-dependent
/// client transaction manager of paper §3.3.3. One instance per client.
///
/// The base class drives the transaction loop of paper Figure 3
/// (ReadObject, UserDelay, UpdateObject, UserDelay, ... Commit) and
/// provides the default eviction side effects; subclasses implement the
/// per-operation protocol.
class ClientProtocol {
 public:
  explicit ClientProtocol(client::Client* client) : c_(*client) {}
  virtual ~ClientProtocol() = default;

  ClientProtocol(const ClientProtocol&) = delete;
  ClientProtocol& operator=(const ClientProtocol&) = delete;

  /// Executes one attempt of the transaction; true = committed.
  sim::Task<bool> RunAttempt(const workload::TransactionSpec& spec);

  /// Called when a fresh attempt begins (uid already assigned).
  virtual void OnAttemptStart() {}

  /// Post-attempt cleanup. The default drops locally updated (dirty) pages
  /// on abort (their uncommitted contents are invalid under in-place
  /// update), drops pages the server reported stale, and clears
  /// per-transaction cache state.
  virtual sim::Task<void> OnAttemptEnd(bool committed);

  /// Handles an asynchronous (non-reply) server message. The default
  /// understands kAbortNotice and kUpdatePropagation; algorithm-specific
  /// messages are handled in overrides.
  /// Both handlers take references: every call site owns the argument and
  /// co_awaits the handler to completion.
  virtual sim::Task<void> HandleAsync(net::Message& msg);

  /// Eviction side effects for pages pushed out of the client cache: dirty
  /// pages are shipped to the server; retained locks are surrendered with
  /// an eviction notice (callback locking).
  virtual sim::Task<void> HandleEvictions(
      client::ClientCache::EvictedList& victims);

 protected:
  virtual sim::Task<bool> ReadObject(const workload::Step& step) = 0;
  virtual sim::Task<bool> UpdateObject(const workload::Step& step) = 0;
  /// The default sends a bare commit request; protocols that ship more
  /// with it override and call CommitThroughServer themselves.
  virtual sim::Task<bool> Commit();

  /// Eviction notices to piggyback on the next request (callback
  /// locking's retained locks); none by default.
  virtual std::vector<db::PageId> TakeEvictNotices() { return {}; }

  /// A read's server round trip: asks the server to validate the cached
  /// pages `check` (at `versions`) and to fetch `fetch`, installs every
  /// page the reply ships, and counts each checked page a hit unless the
  /// reply refreshed it. False when the server aborted the attempt.
  sim::Task<bool> ReadThroughServer(const net::PageList& check,
                                    const net::MsgList<std::uint64_t>& versions,
                                    const net::PageList& fetch);

  /// The commit round trip of every protocol. `request` carries the
  /// protocol's own fields (read sets); this adds the type, the attempt,
  /// the dirty pages and any eviction notices. An aborted reply is noted;
  /// a successful one stamps its installed versions on the cached pages
  /// and marks them clean. Returns the reply.
  sim::Task<net::MessagePtr> CommitThroughServer(net::MessagePtr request);

  client::Client& c_;
};

/// Server half of a cache consistency algorithm: the algorithm-dependent
/// server transaction manager of paper §3.3.4. One instance per server.
class ServerProtocol {
 public:
  explicit ServerProtocol(server::Server* server) : s_(*server) {}
  virtual ~ServerProtocol() = default;

  ServerProtocol(const ServerProtocol&) = delete;
  ServerProtocol& operator=(const ServerProtocol&) = delete;

  /// Handles one dispatched message. The server runs each call in a process
  /// of its own, so handlers for different messages interleave (and block
  /// independently on locks, disks, and the CPU); that process owns `msg`
  /// and keeps its transaction's state alive until the handler returns.
  virtual sim::Task<void> Handle(const net::Message& msg) = 0;

  /// Recovery mode: the server crashed; algorithm-private volatile state
  /// (outstanding callbacks, pending invalidations, ...) is gone.
  virtual void OnCrash() {}

  /// Recovery mode: a client crash-restarted (or was garbage-collected);
  /// drop algorithm-private state keyed to its previous life.
  virtual void OnClientReset(int /*client*/) {}

  /// The server sent `client` a copy of `page`, or confirmed the one it
  /// caches, in answer to a read.
  virtual void OnClientCopy(int /*client*/, db::PageId /*page*/) {}

  /// Consistency-oracle epoch audit of algorithm-private structures. Fatal
  /// on violation.
  virtual void AuditStructure() {}

 protected:
  server::Server& s_;
};

}  // namespace ccsim::proto

#endif  // CCSIM_PROTO_PROTOCOL_H_
