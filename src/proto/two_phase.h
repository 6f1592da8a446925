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
  sim::Task<bool> Commit(const workload::TransactionSpec& spec) override;

 private:
  bool intra_;
};

/// Server half of two-phase locking: S/X page locks held to commit,
/// deadlock victims aborted, in-place updates with WAL.
class TwoPhaseServer : public ServerProtocol {
 public:
  explicit TwoPhaseServer(server::Server* server) : ServerProtocol(server) {}

  sim::Process Handle(net::Message msg) override;

 private:
  sim::Task<void> HandleRead(net::Message msg);
  sim::Task<void> HandleUpgrade(net::Message msg);
  sim::Task<void> HandleCommit(net::Message msg);
  sim::Task<void> HandleDirtyEvict(net::Message msg);
};

}  // namespace ccsim::proto

#endif  // CCSIM_PROTO_TWO_PHASE_H_
