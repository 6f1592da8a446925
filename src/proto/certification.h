#ifndef CCSIM_PROTO_CERTIFICATION_H_
#define CCSIM_PROTO_CERTIFICATION_H_


#include "config/params.h"
#include "proto/protocol.h"
#include "util/block_pool.h"

namespace ccsim::proto {

/// Certification — optimistic concurrency control with deferred updates
/// (paper §2.2). Reads never block: the first access of a cached page per
/// transaction checks its version with the server (check-on-access);
/// updates stay in a client-side private buffer. At commit the server
/// performs backward validation (every read version must still be current)
/// and merges the updates into the database, or aborts the transaction.
class CertificationClient : public ClientProtocol {
 public:
  CertificationClient(client::Client* client, config::CachingMode mode)
      : ClientProtocol(client),
        intra_(mode == config::CachingMode::kIntraTransaction) {}

  void OnAttemptStart() override {
    read_set_.clear();
    if (intra_) {
      c_.cache().Clear();
    }
  }

  sim::Task<void> OnAttemptEnd(bool committed) override;

 protected:
  sim::Task<bool> ReadObject(const workload::Step& step) override;
  sim::Task<bool> UpdateObject(const workload::Step& step) override;
  sim::Task<bool> Commit() override;

 private:
  bool intra_;
  /// (page -> version read), shipped with the commit for validation.
  util::PooledMap<db::PageId, std::uint64_t> read_set_;
};

/// Server half of certification: version checks on access, commit-time
/// validation, deferred-update merge. No locks are ever taken.
class CertificationServer : public ServerProtocol {
 public:
  /// `skip_validation` (AlgorithmParams::test_skip_validation) disables
  /// backward validation — the deliberately broken variant used to prove
  /// the consistency oracle detects non-serializable histories.
  explicit CertificationServer(server::Server* server,
                               bool skip_validation = false)
      : ServerProtocol(server), skip_validation_(skip_validation) {}

  sim::Task<void> Handle(const net::Message& msg) override;

 private:
  sim::Task<void> HandleRead(const net::Message& msg);
  sim::Task<void> HandleCommit(const net::Message& msg);

  const bool skip_validation_;
};

}  // namespace ccsim::proto

#endif  // CCSIM_PROTO_CERTIFICATION_H_
