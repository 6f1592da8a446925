#include "client/client.h"

#include <algorithm>
#include <utility>

#include "check/checker.h"
#include "proto/protocol.h"
#include "util/macros.h"

namespace ccsim::client {

namespace {
/// Client ids occupy the low bits of transaction uids.
constexpr std::uint64_t kUidClientBits = 10;
}  // namespace

Client::Client(sim::Simulator* simulator, int id,
               const config::ExperimentConfig& config,
               const db::DatabaseLayout* layout, net::Network* network,
               runner::Metrics* metrics, sim::Pcg32 object_rng,
               sim::Pcg32 delay_rng, sim::Pcg32 jitter_rng)
    : simulator_(simulator), id_(id), config_(config), network_(network),
      metrics_(metrics),
      cpu_(simulator, "client" + std::to_string(id) + ".cpu",
           config.system.num_client_cpus),
      cache_(config.system.client_cache_pages),
      generator_(config.EffectiveMix(), layout, object_rng, delay_rng),
      inbox_(simulator), jitter_rng_(jitter_rng) {
  CCSIM_CHECK(id >= 0 && id < (1 << kUidClientBits) - 1);
  resilient_ = config.fault.recovery_enabled;
  if (resilient_) {
    rpc_timeout_ticks_ = sim::MillisToTicks(config.fault.rpc_timeout_ms);
    rpc_timeout_cap_ticks_ =
        sim::MillisToTicks(config.fault.rpc_timeout_cap_ms);
    lease_ticks_ = sim::MillisToTicks(config.fault.lease_ms);
    retry_budget_ = config.fault.retry_budget;
    retry_jitter_ = config.fault.retry_jitter;
    recovered_ = std::make_unique<sim::Event>(simulator);
  }
  client_proc_page_ticks_ = sim::CpuDemand(
      config.system.client_proc_page_instr, config.system.client_mips);
  const sim::Ticks msg_cost =
      sim::CpuDemand(config.system.msg_cost_instr, config.system.client_mips);
  network_->RegisterEndpoint(id, net::Network::Endpoint{&inbox_, &cpu_,
                                                        msg_cost});
}

Client::~Client() = default;

void Client::set_protocol(std::unique_ptr<proto::ClientProtocol> protocol) {
  protocol_ = std::move(protocol);
}

void Client::Start() {
  CCSIM_CHECK_MSG(protocol_ != nullptr, "set_protocol before Start");
  simulator_->Spawn(Driver());
  simulator_->Spawn(Dispatcher());
}

std::uint64_t Client::NewXactUid() {
  ++xact_seq_;
  return (xact_seq_ << kUidClientBits) |
         static_cast<std::uint64_t>(id_ + 1);
}

void Client::NoteAbort(std::uint64_t xact, std::span<const db::PageId> stale) {
  if (xact == 0 || xact != current_xact_) {
    return;  // notice for an older attempt; already handled
  }
  if (!abort_flag_) {
    abort_flag_ = true;
    last_abort_kind_ = stale.empty() ? runner::AbortKind::kDeadlock
                                     : runner::AbortKind::kStaleRead;
  }
  pending_stale_.insert(pending_stale_.end(), stale.begin(), stale.end());
}

sim::Task<net::MessagePtr> Client::Rpc(net::MessagePtr msg) {
  last_rpc_type_ = msg->type;
  last_rpc_at_ = simulator_->Now();
  msg->src = id_;
  msg->dst = net::kServerNode;
  msg->request_id = next_request_id_++;
  if (resilient_) {
    msg->seq = next_seq_++;
    msg->incarnation = incarnation_;
    if (msg->type == net::MsgType::kCommitRequest) {
      // Ship the full updated-set: the server refuses to commit unless it
      // holds an image of every updated page, so a lost dirty eviction
      // surfaces as an abort rather than a lost update.
      msg->updated_set.assign(updated_this_xact_.begin(),
                              updated_this_xact_.end());
      std::sort(msg->updated_set.begin(), msg->updated_set.end());
    }
  }
  const std::uint64_t request_id = msg->request_id;
  const net::MsgType type = msg->type;
  const std::uint64_t xact = msg->xact;
  RpcSlot slot;
  pending_.emplace(request_id, &slot);
  sim::Ticks timeout = resilient_ ? rpc_timeout_ticks_ : 0;
  int retries_left = resilient_ ? config_.fault.max_rpc_retries : 0;
  bool gave_up = false;
  bool first_send = true;
  while (true) {
    if (crashed_) {
      break;
    }
    if (!first_send) {
      metrics_->Count(runner::Counter::rpc_retries);
    }
    first_send = false;
    // Only recovery mode retransmits, so only it keeps the request and
    // sends a copy; otherwise the request itself goes out.
    net::MessagePtr transmission =
        resilient_ ? std::make_unique<net::Message>(*msg) : std::move(msg);
    co_await network_->Send(std::move(transmission));
    // A reply to an earlier transmission (or a crash) may have landed while
    // the send held the CPU; ReplyWaiter's await_ready covers that.
    ++slot.wait_epoch;
    co_await ReplyWaiter{this, &slot, request_id, JitteredTimeout(timeout)};
    if (slot.reply != nullptr || slot.failed || crashed_) {
      break;
    }
    // Timer expired with nothing heard: back off and retransmit.
    if (retries_left == 0) {
      gave_up = true;
      break;
    }
    if (retry_budget_ > 0) {
      // The attempt-wide budget caps total retransmissions across all of
      // the attempt's RPCs; exhausting it aborts the attempt like an
      // ordinary give-up (the driver restarts the spec after a backoff).
      if (retry_tokens_ == 0) {
        metrics_->Count(runner::Counter::retry_budget_exhaustions);
        gave_up = true;
        break;
      }
      --retry_tokens_;
    }
    --retries_left;
    timeout = std::min(timeout * 2, rpc_timeout_cap_ticks_);
  }
  pending_.erase(request_id);
  if (slot.reply != nullptr) {
    co_return std::move(slot.reply);
  }
  // The reply will never come (crash) or we stopped waiting for it
  // (retransmissions exhausted). Abort the attempt locally and hand the
  // protocol a synthetic aborted reply so it unwinds normally.
  CCSIM_CHECK(resilient_);
  // The outcome of a commit request is unknown whenever at least one
  // transmission went out and no reply came back — that covers both
  // exhausted retransmissions *and* a crash cutting the wait short (the
  // server may have committed either way). Counting only the give-up case
  // used to under-report against metrics.h's documented contract; the
  // oracle reconciles each of these against the committed set at the end
  // of the run.
  if (type == net::MsgType::kCommitRequest && !first_send) {
    metrics_->Count(runner::Counter::unknown_outcomes);
    if (check::Checker* checker = metrics_->checker()) {
      checker->OnUnknownOutcome(xact);
    }
  }
  if (current_xact_ != 0 && xact == current_xact_ && !abort_flag_) {
    abort_flag_ = true;
    last_abort_kind_ =
        gave_up ? runner::AbortKind::kTimeout : runner::AbortKind::kCrash;
  }
  auto synth = std::make_unique<net::Message>();
  synth->type = net::ReplyTypeFor(type);
  synth->src = net::kServerNode;
  synth->dst = id_;
  synth->xact = xact;
  synth->request_id = request_id;
  synth->aborted = true;
  co_return synth;
}

sim::Ticks Client::JitteredTimeout(sim::Ticks timeout) {
  if (retry_jitter_ <= 0.0 || timeout <= 0) {
    return timeout;
  }
  const double scale =
      1.0 - retry_jitter_ / 2.0 + retry_jitter_ * jitter_rng_.NextDouble();
  const auto jittered =
      static_cast<sim::Ticks>(static_cast<double>(timeout) * scale);
  return std::max<sim::Ticks>(jittered, 1);
}

void Client::ArmRpcTimeout(std::uint64_t request_id, std::uint64_t epoch,
                           sim::Ticks timeout) {
  simulator_->ScheduleAfter(timeout, [this, request_id, epoch] {
    auto it = pending_.find(request_id);
    if (it == pending_.end()) {
      return;  // RPC already finished
    }
    RpcSlot* slot = it->second;
    if (slot->wait_epoch != epoch || slot->woken ||
        slot->waiter == nullptr) {
      return;  // stale timer from a previous transmission
    }
    metrics_->Count(runner::Counter::rpc_timeouts);
    WakeSlot(slot);
  });
}

void Client::WakeSlot(RpcSlot* slot) {
  if (slot->waiter != nullptr && !slot->woken) {
    slot->woken = true;
    simulator_->ScheduleResumeAt(simulator_->Now(), slot->waiter);
  }
}

net::Network::SendOp Client::SendAsync(net::MessagePtr msg) {
  if (crashed_) {
    return {};  // a dead workstation sends nothing
  }
  msg->src = id_;
  msg->dst = net::kServerNode;
  msg->request_id = 0;
  if (resilient_) {
    msg->seq = next_seq_++;
    msg->incarnation = incarnation_;
  }
  return network_->Send(std::move(msg));
}

void Client::Crash() {
  if (crashed_) {
    return;
  }
  crashed_ = true;
  crash_dirty_ = true;
  metrics_->Count(runner::Counter::client_crashes);
  if (current_xact_ != 0 && !abort_flag_) {
    abort_flag_ = true;
    last_abort_kind_ = runner::AbortKind::kCrash;
  }
  // Every outstanding RPC fails immediately: the waiting coroutines resume,
  // see `failed`, and unwind their attempts as crash aborts.
  for (auto& [request_id, slot] : pending_) {
    slot->failed = true;
    WakeSlot(slot);
  }
  // Messages queued but not yet processed died with the process.
  inbox_.Clear();
  deferred_.clear();
}

void Client::Recover() {
  CCSIM_CHECK(crashed_);
  crashed_ = false;
  ++incarnation_;
  recovered_->Signal();
}

sim::Task<void> Client::FinishCrashRecovery() {
  // Volatile state did not survive: wipe the page cache and everything the
  // previous life was tracking. Safe here — the driver sits at an attempt
  // boundary, so no coroutine is mid-walk over the cache.
  cache_.Clear();
  pending_stale_.clear();
  updated_this_xact_.clear();
  seen_seqs_.Clear();
  deferred_.clear();
  crash_dirty_ = false;
  while (crashed_) {
    co_await recovered_->Wait();
  }
}

sim::Task<void> Client::InstallPage(db::PageId page, CachedPage info) {
  ClientCache::EvictedList victims = cache_.Insert(page, info);
  cache_.Pin(page);
  if (victims.empty()) {
    return sim::Task<void>::Ready();
  }
  return HandleEvictions(std::move(victims));
}

sim::Task<void> Client::HandleEvictions(ClientCache::EvictedList victims) {
  co_await protocol_->HandleEvictions(victims);
}

sim::Task<void> Client::UserDelay(sim::Ticks delay, bool defer_async) {
  if (delay > 0) {
    return DelayThenDrain(delay, defer_async);
  }
  if (!deferred_.empty()) {
    return DrainDeferred();
  }
  return sim::Task<void>::Ready();
}

sim::Task<void> Client::DelayThenDrain(sim::Ticks delay, bool defer_async) {
  // Asynchronous server messages are not processed while the application
  // thinks inside a transaction (paper §5.5); the dispatcher defers them
  // until the delay ends.
  in_user_delay_ = defer_async;
  co_await simulator_->Delay(delay);
  in_user_delay_ = false;
  if (!deferred_.empty()) {
    co_await DrainDeferred();
  }
}

sim::Task<void> Client::DrainDeferred() {
  CCSIM_DCHECK(!deferred_.empty());
  while (!deferred_.empty()) {
    const net::MessagePtr msg = std::move(deferred_.front());
    deferred_.pop_front();
    co_await protocol_->HandleAsync(*msg);
  }
}

sim::Process Client::Driver() {
  // Stagger client start-up like an initial think time.
  co_await simulator_->Delay(generator_.SampleExternalDelay());
  workload::TransactionSpec spec;
  while (true) {
    generator_.NextTransaction(&spec);
    const sim::Ticks begin = simulator_->Now();
    int attempts = 0;
    while (true) {
      ++attempts;
      metrics_->Count(runner::Counter::attempts_started);
      if (crash_dirty_) {
        co_await FinishCrashRecovery();
      }
      current_xact_ = NewXactUid();
      abort_flag_ = false;
      pending_stale_.clear();
      updated_this_xact_.clear();
      retry_tokens_ = retry_budget_;
      protocol_->OnAttemptStart();
      const bool committed = co_await protocol_->RunAttempt(spec);
      co_await protocol_->OnAttemptEnd(committed);
      if (metrics_->checker() != nullptr && !crash_dirty_) {
        // Attempt-boundary coherence audit: the protocol must leave the
        // cache structurally clean (a crashed cache is exempt — its wipe
        // is still owed at the top of the next attempt).
        cache_.AuditEndOfAttempt(config_.algorithm.algorithm ==
                                 config::Algorithm::kCallbackLocking);
        metrics_->checker()->NoteClientAudit();
      }
      if (committed) {
        break;
      }
      metrics_->RecordAbort(last_abort_kind_);
      current_xact_ = 0;
      if (config_.algorithm.restart_delay) {
        co_await UserDelay(generator_.SampleRestartDelay(
                               metrics_->RunningMeanResponseTicks()),
                           /*defer_async=*/false);
      } else if (!deferred_.empty()) {
        co_await DrainDeferred();
      }
    }
    current_xact_ = 0;
    metrics_->RecordCommit(simulator_->Now() - begin, attempts,
                           generator_.current_type());
    co_await UserDelay(generator_.SampleExternalDelay(),
                       /*defer_async=*/false);
  }
}

sim::Process Client::Dispatcher() {
  while (true) {
    net::MessagePtr msg = co_await inbox_.Receive();
    if (crashed_) {
      continue;  // lost with the process
    }
    if (msg->request_id != 0) {
      auto it = pending_.find(msg->request_id);
      if (it == pending_.end()) {
        // Duplicate of a reply we already consumed, or a reply that raced
        // a timeout give-up. Only possible on a faulty network.
        CCSIM_CHECK_MSG(resilient_, "reply with no pending request");
        metrics_->Count(runner::Counter::duplicates_suppressed);
        continue;
      }
      RpcSlot* slot = it->second;
      if (slot->reply != nullptr) {
        metrics_->Count(runner::Counter::duplicates_suppressed);
        continue;
      }
      slot->reply = std::move(msg);
      WakeSlot(slot);
      continue;
    }
    if (resilient_ && msg->seq != 0 && !seen_seqs_.Note(msg->seq)) {
      metrics_->Count(runner::Counter::duplicates_suppressed);
      continue;
    }
    if (in_user_delay_) {
      deferred_.push_back(std::move(msg));
      continue;
    }
    co_await protocol_->HandleAsync(*msg);
  }
}

}  // namespace ccsim::client
