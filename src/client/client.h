#ifndef CCSIM_CLIENT_CLIENT_H_
#define CCSIM_CLIENT_CLIENT_H_

#include <coroutine>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "client/client_cache.h"
#include "config/params.h"
#include "db/database.h"
#include "net/network.h"
#include "runner/metrics.h"
#include "sim/event.h"
#include "sim/process.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "util/block_pool.h"
#include "workload/workload.h"

namespace ccsim::proto {
class ClientProtocol;
}  // namespace ccsim::proto

namespace ccsim::client {

/// A client workstation (paper §3.3.3): one application, CPU(s), a page
/// cache, a transaction generator, and the algorithm-specific client
/// transaction manager (a proto::ClientProtocol).
///
/// Two processes run per client: the transaction driver (generates and
/// executes transactions, restarting aborted ones) and the message
/// dispatcher (routes RPC replies to waiting coroutines and hands
/// asynchronous server messages to the protocol; asynchronous messages are
/// *not* processed during user think delays — the paper's implementation
/// detail that shapes the interactive experiment).
class Client {
 public:
  Client(sim::Simulator* simulator, int id,
         const config::ExperimentConfig& config,
         const db::DatabaseLayout* layout, net::Network* network,
         runner::Metrics* metrics, sim::Pcg32 object_rng,
         sim::Pcg32 delay_rng, sim::Pcg32 jitter_rng);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Must be called before Start().
  void set_protocol(std::unique_ptr<proto::ClientProtocol> protocol);

  /// Spawns the driver and dispatcher processes.
  void Start();

  // --- surface used by protocol implementations ---

  sim::Simulator& simulator() { return *simulator_; }
  int id() const { return id_; }
  sim::Resource& cpu() { return cpu_; }
  ClientCache& cache() { return cache_; }
  const config::ExperimentConfig& config() const { return config_; }
  runner::Metrics& metrics() { return *metrics_; }
  workload::WorkloadGenerator& generator() { return generator_; }
  sim::Mailbox<net::MessagePtr>& inbox() { return inbox_; }

  /// Uid of the current transaction attempt (0 between transactions).
  std::uint64_t current_xact() const { return current_xact_; }

  /// True once the server (or a reply) aborted the current attempt.
  bool abort_flag() const { return abort_flag_; }
  /// Marks the current attempt aborted; `stale_pages` are dropped from the
  /// cache at attempt end. Ignored for non-current uids.
  void NoteAbort(std::uint64_t xact, std::span<const db::PageId> stale);
  /// Why the current attempt aborted (recorded once per failed attempt).
  runner::AbortKind last_abort_kind() const { return last_abort_kind_; }
  void set_last_abort_kind(runner::AbortKind kind) {
    last_abort_kind_ = kind;
  }
  /// Pages reported stale by the server for the current attempt; drained by
  /// the protocol's OnAttemptEnd.
  std::vector<db::PageId> TakePendingStale() {
    std::vector<db::PageId> out;
    out.swap(pending_stale_);
    return out;
  }

  /// Sends a request and waits for the matching reply. Charges send-side
  /// CPU; the reply is routed by the dispatcher. In recovery mode the wait
  /// is bounded: on timeout the request is retransmitted with exponential
  /// backoff, and when retries are exhausted (or this client crashes) a
  /// synthetic aborted reply is returned and the attempt is marked aborted.
  sim::Task<net::MessagePtr> Rpc(net::MessagePtr msg);

  /// Fire-and-forget send (charges send-side CPU). Stamps the message
  /// now; the returned send runs when awaited. A crashed workstation's
  /// send does nothing.
  net::Network::SendOp SendAsync(net::MessagePtr msg);

  /// Charges ClientProcPage for `pages` pages on the client CPU; a zero
  /// charge completes at once.
  sim::Resource::UseOp ChargePageProcessing(int pages) {
    return cpu_.Charge(client_proc_page_ticks_ * pages);
  }

  /// Inserts a page into the cache, pinned for the current transaction, and
  /// runs the protocol's eviction actions for any victims. With no victims
  /// it is a Ready task.
  sim::Task<void> InstallPage(db::PageId page, CachedPage info);

  /// Think delays (exponential; asynchronous messages are deferred while
  /// delaying and drained afterwards). The delay is drawn now.
  sim::Task<void> UpdateDelay() {
    return UserDelay(generator_.SampleUpdateDelay(), /*defer_async=*/true);
  }
  sim::Task<void> InternalDelay() {
    return UserDelay(generator_.SampleInternalDelay(), /*defer_async=*/true);
  }

  /// Ticks per page of client processing.
  sim::Ticks page_processing_cost() const { return client_proc_page_ticks_; }

  // --- failure recovery (fault-injection runs only) ---

  /// True when the recovery layer (timeouts, retries, dedup, leases) is on.
  bool resilient() const { return resilient_; }
  /// True while this workstation is crashed (between Crash and Recover).
  bool crashed() const { return crashed_; }
  /// Kills the workstation: pending RPCs fail, queued messages are lost,
  /// and the current attempt is marked aborted. The page cache is wiped at
  /// the driver's next attempt boundary (volatile state does not survive),
  /// where the driver also waits for Recover().
  void Crash();
  /// Restarts the workstation under a new incarnation; the server GCs the
  /// previous life's state when it sees the higher incarnation number.
  void Recover();
  /// Records a page updated by the current attempt (recovery mode ships the
  /// full updated-set with the commit so a lost dirty eviction is detected).
  void NoteUpdated(db::PageId page) {
    if (resilient_) {
      updated_this_xact_.insert(page);
    }
  }
  /// Lease duration on asynchronously-maintained cache state (0 = off).
  sim::Ticks lease_ticks() const { return lease_ticks_; }

  // Debug/diagnostic accessors.
  std::size_t pending_rpcs() const { return pending_.size(); }
  net::MsgType last_rpc_type() const { return last_rpc_type_; }
  sim::Ticks last_rpc_at() const { return last_rpc_at_; }
  std::size_t deferred_messages() const { return deferred_.size(); }
  bool in_user_delay() const { return in_user_delay_; }

 private:
  friend class ClientTestPeer;

  /// Rendezvous for one in-flight RPC. Unlike a OneShot, a slot can be
  /// woken more than once across retransmissions: the waiting coroutine
  /// re-arms it (bumping `wait_epoch`) before every bounded wait, and a
  /// timer from a previous epoch that fires late is ignored.
  struct RpcSlot {
    net::MessagePtr reply;
    /// The workstation crashed while this RPC was outstanding.
    bool failed = false;
    /// A resume for the current epoch has already been scheduled.
    bool woken = false;
    std::uint64_t wait_epoch = 0;
    std::coroutine_handle<> waiter = nullptr;
  };

  /// Awaits a reply, a crash, or (when `timeout` > 0) a timer expiry.
  struct ReplyWaiter {
    Client* client;
    RpcSlot* slot;
    std::uint64_t request_id;
    sim::Ticks timeout;
    bool await_ready() const noexcept {
      return slot->reply != nullptr || slot->failed;
    }
    void await_suspend(std::coroutine_handle<> handle) {
      slot->waiter = handle;
      slot->woken = false;
      if (timeout > 0) {
        client->ArmRpcTimeout(request_id, slot->wait_epoch, timeout);
      }
    }
    void await_resume() noexcept { slot->waiter = nullptr; }
  };

  sim::Process Driver();
  sim::Process Dispatcher();
  /// Randomizes a retransmission timeout by +/- retry_jitter/2 so a fleet
  /// of clients cut off by the same fault does not retry in lock-step.
  /// Draws a variate only when jitter is configured (determinism).
  sim::Ticks JitteredTimeout(sim::Ticks timeout);
  void ArmRpcTimeout(std::uint64_t request_id, std::uint64_t epoch,
                     sim::Ticks timeout);
  /// Wakes `slot` (at most once per epoch) by scheduling its waiter now.
  void WakeSlot(RpcSlot* slot);
  /// Models the loss of volatile state after Crash(): wipes the page cache
  /// and per-transaction bookkeeping, then waits for Recover(). Runs at the
  /// driver's attempt boundary so no coroutine is mid-walk over the cache.
  sim::Task<void> FinishCrashRecovery();
  /// Runs the protocol's eviction actions for `victims`, which this frame
  /// owns.
  sim::Task<void> HandleEvictions(ClientCache::EvictedList victims);
  /// Waits `delay`; with `defer_async`, asynchronous server messages are
  /// queued during the wait (the paper's in-transaction think times). Idle
  /// waits (external think, restart delay) process messages immediately.
  /// Messages deferred before are handled after the wait. A zero delay
  /// with nothing deferred is a Ready task.
  sim::Task<void> UserDelay(sim::Ticks delay, bool defer_async);
  /// UserDelay's path for a nonzero delay.
  sim::Task<void> DelayThenDrain(sim::Ticks delay, bool defer_async);
  /// Handles the deferred messages; enter only when there are some.
  sim::Task<void> DrainDeferred();
  std::uint64_t NewXactUid();

  sim::Simulator* simulator_;
  int id_;
  const config::ExperimentConfig& config_;
  net::Network* network_;
  runner::Metrics* metrics_;
  sim::Resource cpu_;
  ClientCache cache_;
  workload::WorkloadGenerator generator_;
  sim::Mailbox<net::MessagePtr> inbox_;
  std::unique_ptr<proto::ClientProtocol> protocol_;

  sim::Ticks client_proc_page_ticks_ = 0;
  std::uint64_t xact_seq_ = 0;
  std::uint64_t current_xact_ = 0;
  bool abort_flag_ = false;
  runner::AbortKind last_abort_kind_ = runner::AbortKind::kDeadlock;
  std::vector<db::PageId> pending_stale_;

  net::MsgType last_rpc_type_{};
  sim::Ticks last_rpc_at_ = 0;
  std::uint64_t next_request_id_ = 1;
  util::PooledMap<std::uint64_t, RpcSlot*> pending_;

  bool in_user_delay_ = false;
  std::deque<net::MessagePtr> deferred_;

  // --- recovery-mode state (inert when resilient_ is false) ---
  bool resilient_ = false;
  sim::Ticks rpc_timeout_ticks_ = 0;
  sim::Ticks rpc_timeout_cap_ticks_ = 0;
  /// Per-attempt retransmission budget shared by all of an attempt's RPCs
  /// (0 = off): once spent, the next timeout aborts the attempt instead of
  /// retransmitting — a partitioned client stops hammering the link.
  int retry_budget_ = 0;
  int retry_tokens_ = 0;
  double retry_jitter_ = 0.0;
  sim::Pcg32 jitter_rng_;
  sim::Ticks lease_ticks_ = 0;
  bool crashed_ = false;
  /// Crash happened; the cache wipe is still owed at the attempt boundary.
  bool crash_dirty_ = false;
  std::uint32_t incarnation_ = 1;
  std::uint64_t next_seq_ = 1;
  std::unique_ptr<sim::Event> recovered_;
  util::PooledSet<db::PageId> updated_this_xact_;
  /// Asynchronous sequence numbers already processed.
  net::SeenSeqWindow seen_seqs_;
};

}  // namespace ccsim::client

#endif  // CCSIM_CLIENT_CLIENT_H_
