#include "server/server.h"

#include <algorithm>
#include <string>
#include <utility>

#include "check/checker.h"
#include "proto/protocol.h"
#include "util/macros.h"

namespace ccsim::server {

Server::Server(sim::Simulator* simulator,
               const config::ExperimentConfig& config,
               const db::DatabaseLayout* layout, net::Network* network,
               runner::Metrics* metrics, std::uint64_t seed)
    : simulator_(simulator), config_(config), layout_(layout),
      network_(network), metrics_(metrics),
      rng_(seed, /*stream=*/0x5e5fULL),
      cpu_(simulator, "server.cpu", config.system.num_server_cpus),
      locks_(simulator, layout->total_pages()),
      versions_(layout->total_pages()),
      inbox_(simulator),
      active_by_client_(static_cast<std::size_t>(config.system.num_clients)),
      last_finished_(static_cast<std::size_t>(config.system.num_clients)) {
  const storage::DiskTiming timing{
      sim::MillisToTicks(config.system.seek_low_ms),
      sim::MillisToTicks(config.system.seek_high_ms),
      sim::MillisToTicks(config.system.disk_transfer_ms)};
  for (int d = 0; d < config.system.num_data_disks; ++d) {
    data_disks_.push_back(std::make_unique<storage::Disk>(
        simulator, "data_disk" + std::to_string(d), timing,
        sim::Pcg32(seed, 0x100 + static_cast<std::uint64_t>(d))));
  }
  for (int d = 0; d < config.system.num_log_disks; ++d) {
    log_disks_.push_back(std::make_unique<storage::Disk>(
        simulator, "log_disk" + std::to_string(d), timing,
        sim::Pcg32(seed, 0x200 + static_cast<std::uint64_t>(d))));
  }
  server_proc_page_ticks_ = sim::CpuDemand(
      config.system.server_proc_page_instr, config.system.server_mips);
  const sim::Ticks init_disk_cost = sim::CpuDemand(
      config.system.init_disk_cost_instr, config.system.server_mips);

  resilient_ = config.fault.recovery_enabled;
  if (resilient_) {
    xact_idle_ticks_ = sim::MillisToTicks(config.fault.xact_idle_timeout_ms);
  }

  storage::BufferPool::Params pool_params;
  pool_params.capacity_pages = config.system.server_buffer_pages;
  pool_params.init_disk_cost = init_disk_cost;
  pool_params.allow_owner_usurp = resilient_;
  pool_ = std::make_unique<storage::BufferPool>(
      simulator, pool_params, layout, data_disks(), &cpu_);

  storage::LogManager::Params log_params;
  log_params.enabled = config.algorithm.enable_log_manager;
  log_params.init_disk_cost = init_disk_cost;
  log_ = std::make_unique<storage::LogManager>(log_params, layout,
                                               log_disks(), data_disks(),
                                               &cpu_);

  const sim::Ticks msg_cost =
      sim::CpuDemand(config.system.msg_cost_instr, config.system.server_mips);
  network_->RegisterEndpoint(
      net::kServerNode, net::Network::Endpoint{&inbox_, &cpu_, msg_cost});
}

Server::~Server() = default;

std::vector<storage::Disk*> Server::data_disks() {
  std::vector<storage::Disk*> out;
  out.reserve(data_disks_.size());
  for (auto& d : data_disks_) {
    out.push_back(d.get());
  }
  return out;
}

std::vector<storage::Disk*> Server::log_disks() {
  std::vector<storage::Disk*> out;
  out.reserve(log_disks_.size());
  for (auto& d : log_disks_) {
    out.push_back(d.get());
  }
  return out;
}

void Server::set_protocol(std::unique_ptr<proto::ServerProtocol> protocol) {
  protocol_ = std::move(protocol);
}

void Server::Start() {
  CCSIM_CHECK_MSG(protocol_ != nullptr, "set_protocol before Start");
  simulator_->Spawn(Dispatch());
  if (resilient_ && xact_idle_ticks_ > 0) {
    simulator_->Spawn(Reaper());
  }
}

sim::Task<void> Server::Send(net::MessagePtr msg) {
  msg->src = net::kServerNode;
  if (resilient_ && msg->request_id == 0) {
    // Asynchronous server messages carry a sequence number so a duplicated
    // callback/propagation/abort-notice is processed once at the client.
    msg->seq = next_seq_++;
  }
  co_await network_->Send(std::move(msg));
}

sim::Task<void> Server::ReplyAborted(const net::Message& request,
                                     net::MsgType type,
                                     std::vector<db::PageId> pages) {
  auto reply = std::make_unique<net::Message>();
  reply->type = type;
  reply->aborted = true;
  reply->pages = std::move(pages);
  return Reply(request, std::move(reply));
}

sim::Task<void> Server::AnswerRead(XactState& state,
                                   const net::Message& request,
                                   bool record_reads) {
  auto reply = std::make_unique<net::Message>();
  reply->type = net::MsgType::kReadReply;
  net::PageList to_read = request.fetch_pages;
  for (std::size_t i = 0; i < request.pages.size(); ++i) {
    const db::PageId page = request.pages[i];
    if (versions_.Get(page) != request.versions[i]) {
      to_read.push_back(page);
      continue;
    }
    if (record_reads) {
      state.read_versions[page] = request.versions[i];
    }
    protocol_->OnClientCopy(state.client, page);
  }
  co_await ReadPagesToClient(state, std::move(to_read), reply.get(),
                             record_reads);
  co_await Reply(request, std::move(reply));
}

sim::Task<bool> Server::RefuseDeadCommit(const XactState& state,
                                         const net::Message& request) {
  if (!state.aborted && !state.done) {
    co_return false;
  }
  CCSIM_CHECK(resilient_);
  co_await ReplyAborted(request, net::MsgType::kCommitReply);
  co_return true;
}

sim::Task<void> Server::RejectCommit(XactState& state,
                                     const net::Message& request) {
  std::vector<db::PageId> stale = std::move(state.stale_pages);
  if (!state.aborted && !state.done) {
    co_await AbortPipeline(state);
  } else {
    PurgeUncommitted(state.uid);
  }
  co_await ReplyAborted(request, net::MsgType::kCommitReply,
                        std::move(stale));
}

sim::Task<void> Server::Reply(const net::Message& request,
                              net::MessagePtr reply) {
  reply->src = net::kServerNode;
  reply->dst = request.src;
  reply->xact = request.xact;
  reply->request_id = request.request_id;
  if (resilient_ && request.request_id != 0 &&
      request.src != net::kServerNode) {
    // At-most-once bookkeeping: the request is no longer in progress, and
    // the reply is cached so a retransmit gets the same answer instead of
    // re-running the handler.
    constexpr std::size_t kReplyCacheSize = 8;
    ClientChannel& channel = channels_[request.src];
    channel.in_progress.erase(request.request_id);
    channel.replies.emplace_back(request.request_id,
                                 std::make_unique<net::Message>(*reply));
    if (channel.replies.size() > kReplyCacheSize) {
      channel.replies.pop_front();
    }
  }
  co_await network_->Send(std::move(reply));
}

sim::Process Server::ResendReply(net::MessagePtr reply) {
  co_await network_->Send(std::move(reply));
}

XactState* Server::FindXact(std::uint64_t uid) {
  auto it = xacts_.find(uid);
  return it == xacts_.end() ? nullptr : it->second.get();
}

std::uint64_t Server::ActiveXactOfClient(int client) const {
  return active_by_client_[ClientSlot(client)];
}

bool Server::IsStale(const net::Message& msg) const {
  if (msg.xact == 0 || msg.src == net::kServerNode) {
    return false;
  }
  return msg.xact <= last_finished_[ClientSlot(msg.src)];
}

bool Server::IsSynchronous(net::MsgType type) {
  switch (type) {
    case net::MsgType::kReadRequest:
    case net::MsgType::kUpgradeRequest:
    case net::MsgType::kCommitRequest:
      return true;
    default:
      return false;
  }
}

bool Server::IsTransactional(net::MsgType type) {
  switch (type) {
    case net::MsgType::kReadRequest:
    case net::MsgType::kUpgradeRequest:
    case net::MsgType::kCommitRequest:
    case net::MsgType::kNoWaitLock:
    case net::MsgType::kDirtyEvict:
      return true;
    default:
      return false;
  }
}

void Server::Admit(const net::Message& msg) {
  auto state = std::make_unique<XactState>(simulator_);
  state->uid = msg.xact;
  state->client = msg.src;
  active_.insert(msg.xact);
  active_by_client_[ClientSlot(msg.src)] = msg.xact;
  xacts_.emplace(msg.xact, std::move(state));
}

sim::Process Server::ReplyAbortedTo(net::MessagePtr request) {
  co_await ReplyAborted(*request, net::ReplyTypeFor(request->type));
}

bool Server::FilterDelivery(const net::Message& msg) {
  if (msg.src == net::kServerNode) {
    return true;
  }
  {
    ClientChannel& channel = channels_[msg.src];
    if (msg.incarnation != 0) {
      if (msg.incarnation < channel.incarnation) {
        return false;  // straggler from a life that already ended
      }
      if (msg.incarnation > channel.incarnation) {
        if (channel.incarnation != 0) {
          // First sign of a crash-restart: everything the previous life
          // owned (cached copies, retained locks, a live transaction) is
          // garbage now. Invalidates `channel`.
          GcCrashedClient(msg.src);
        }
        channels_[msg.src].incarnation = msg.incarnation;
      }
    }
  }
  ClientChannel& channel = channels_[msg.src];
  if (IsSynchronous(msg.type)) {
    if (channel.in_progress.count(msg.request_id) > 0) {
      metrics_->Count(runner::Counter::duplicates_suppressed);
      return false;  // retransmit of a request still being handled
    }
    for (const auto& [request_id, reply] : channel.replies) {
      if (request_id == msg.request_id) {
        metrics_->Count(runner::Counter::duplicates_suppressed);
        simulator_->Spawn(
            ResendReply(std::make_unique<net::Message>(*reply)));
        return false;  // retransmit of an answered request: same reply
      }
    }
    channel.in_progress.insert(msg.request_id);
    return true;
  }
  if (msg.seq != 0 && !channel.seen_seqs.Note(msg.seq)) {
    metrics_->Count(runner::Counter::duplicates_suppressed);
    return false;  // duplicated asynchronous message
  }
  return true;
}

sim::Process Server::Dispatch() {
  while (true) {
    net::MessagePtr msg = co_await inbox_.Receive();
    if (resilient_ && !FilterDelivery(*msg)) {
      continue;
    }
    if (IsStale(*msg)) {
      // A request from an attempt the server already finished (e.g. the
      // client was aborted asynchronously while this was in flight).
      if (IsSynchronous(msg->type)) {
        simulator_->Spawn(ReplyAbortedTo(std::move(msg)));
      }
      continue;
    }
    if (resilient_ && msg->xact != 0 && msg->src != net::kServerNode) {
      const std::uint64_t current = ActiveXactOfClient(msg->src);
      if (current != 0 && current < msg->xact) {
        // The client moved on to a newer attempt (it gave up on an RPC);
        // whatever the old one holds must not linger.
        simulator_->Spawn(GcAbortXact(current));
      }
    }
    if (IsTransactional(msg->type) && FindXact(msg->xact) == nullptr) {
      if (static_cast<int>(active_.size()) >= config_.system.mpl) {
        const int limit = config_.fault.server_queue_limit;
        if (limit > 0 && static_cast<int>(ready_.size()) >= limit) {
          // Backpressure: the bounded ready queue is full, so the request
          // is shed instead of queued without limit. A synchronous request
          // gets an immediate aborted reply (the client backs off and
          // retries the spec); anything else is dropped and resolves
          // through the client's timeout path.
          metrics_->Count(runner::Counter::shed_requests);
          if (IsSynchronous(msg->type)) {
            simulator_->Spawn(ReplyAbortedTo(std::move(msg)));
          }
          continue;
        }
        // MPL reached: the new transaction waits in the ready queue.
        ready_.push_back(std::move(msg));
        if (ready_.size() > ready_high_water_) {
          ready_high_water_ = ready_.size();
        }
        continue;
      }
      Admit(*msg);
    }
    if (resilient_) {
      if (XactState* state = FindXact(msg->xact)) {
        state->last_activity = simulator_->Now();
      }
    }
    SpawnHandler(std::move(msg));
  }
}

void Server::SpawnHandler(net::MessagePtr msg) {
  XactState* state = FindXact(msg->xact);
  if (state != nullptr) {
    ++state->handlers;
  }
  simulator_->Spawn(RunHandler(std::move(msg), state));
}

sim::Process Server::RunHandler(net::MessagePtr msg, XactState* state) {
  co_await protocol_->Handle(*msg);
  if (state != nullptr) {
    --state->handlers;
    Reclaim(*state);
  }
}

void Server::Reclaim(const XactState& state) {
  if (state.done && state.handlers == 0) {
    xacts_.erase(state.uid);
  }
}

std::size_t Server::ClientSlot(int client) const {
  CCSIM_CHECK_MSG(client >= 0 && client < config_.system.num_clients,
                  "client %d outside [0, %d)", client,
                  config_.system.num_clients);
  return static_cast<std::size_t>(client);
}

void Server::PumpReady() {
  if (ready_.empty()) {
    return;
  }
  std::deque<net::MessagePtr> keep;
  while (!ready_.empty()) {
    net::MessagePtr msg = std::move(ready_.front());
    ready_.pop_front();
    if (IsStale(*msg)) {
      if (IsSynchronous(msg->type)) {
        simulator_->Spawn(ReplyAbortedTo(std::move(msg)));
      }
      continue;
    }
    if (FindXact(msg->xact) != nullptr) {
      SpawnHandler(std::move(msg));
      continue;
    }
    if (static_cast<int>(active_.size()) < config_.system.mpl) {
      Admit(*msg);
      SpawnHandler(std::move(msg));
      continue;
    }
    keep.push_back(std::move(msg));
  }
  ready_.swap(keep);
}

sim::Task<void> Server::ReadPagesToClient(XactState& state,
                                          net::PageList pages,
                                          net::Message* reply,
                                          bool record_reads) {
  for (std::size_t i = 0; i < pages.size(); ++i) {
    const db::PageId page = pages[i];
    const bool sequential =
        i > 0 && pages[i] == pages[i - 1] + 1 && DrawClustered();
    co_await pool_->FetchPage(page, sequential);
    if (server_proc_page_ticks_ > 0) {
      co_await cpu_.Use(server_proc_page_ticks_);
    }
    const std::uint64_t version = versions_.Get(page);
    reply->data_pages.push_back(page);
    reply->data_versions.push_back(version);
    if (record_reads) {
      state.read_versions[page] = version;
    }
    protocol_->OnClientCopy(state.client, page);
  }
}

sim::Task<void> Server::InstallClientUpdates(
    XactState& state, std::span<const db::PageId> pages,
    std::uint64_t pool_owner, bool charge_cpu) {
  for (db::PageId page : pages) {
    if (charge_cpu && server_proc_page_ticks_ > 0) {
      co_await cpu_.Use(server_proc_page_ticks_);
    }
    co_await pool_->InstallPage(page, pool_owner);
    state.updated.insert(page);
  }
}

void Server::BumpVersionsAndRecord(XactState& state, net::Message* reply) {
  // This is the commit point: from here on, garbage collection must leave
  // the transaction alone even though done is not yet set.
  state.committing = true;
  check::Checker* checker = metrics_->checker();
  // Every version this transaction read must still be current at commit.
  // This holds for every correct algorithm in the study (locks are held /
  // validation just passed); a violation is a protocol implementation bug.
  // With the oracle attached the check is demoted to provenance: the
  // serialization graph decides whether the history actually broke, so a
  // deliberately broken protocol variant commits and is convicted by the
  // cycle it forms rather than by this point assertion.
  for (const auto& [page, version] : state.read_versions) {
    const std::uint64_t current = versions_.Get(page);
    if (current == version) {
      continue;
    }
    if (checker != nullptr) {
      checker->NoteStaleCommitRead(state.client, state.uid, page, version,
                                   current);
    } else {
      CCSIM_CHECK_MSG(false, "commit read-currency violated on page %d",
                      page);
    }
  }
  if (checker != nullptr) {
    // Reusable scratch, not per-commit vectors: the checker applies the
    // sets before OnCommit returns, so nothing here outlives this call.
    commit_reads_scratch_.clear();
    commit_writes_scratch_.clear();
    commit_reads_scratch_.assign(state.read_versions.begin(),
                                 state.read_versions.end());
  }
  for (db::PageId page : state.updated) {
    const std::uint64_t new_version = versions_.Bump(page);
    reply->pages.push_back(page);
    reply->versions.push_back(new_version);
    if (checker != nullptr) {
      commit_writes_scratch_.emplace_back(page, new_version);
    }
  }
  if (checker != nullptr) {
    // The version bumps above and this LSN stamping are one atomic step
    // (no awaits), so per-page LSNs are monotone iff commits install
    // versions in chain order.
    log_->AppendCommitRecord(commit_writes_scratch_);
    checker->OnCommit(state.client, state.uid, simulator_->Now(),
                      commit_reads_scratch_, commit_writes_scratch_);
  }
}

sim::Task<void> Server::CommitTail(XactState& state) {
  state.committing = true;
  pool_->CommitTransaction(state.uid);
  co_await log_->ForceCommit(static_cast<int>(state.updated.size()));
  MarkDone(state);
}

sim::Task<void> Server::FinalizeCommit(XactState& state,
                                       net::Message* reply) {
  BumpVersionsAndRecord(state, reply);
  co_await CommitTail(state);
}

sim::Task<void> Server::AbortPipeline(XactState& state) {
  CCSIM_CHECK(!state.done);
  state.aborted = true;
  if (check::Checker* checker = metrics_->checker()) {
    checker->OnAbortObserved(state.client, state.uid);
  }
  locks_.CancelOwner(state.uid);
  const std::vector<db::PageId> flushed = pool_->AbortTransaction(state.uid);
  co_await log_->ProcessAbort(flushed);
  MarkDone(state);
}

void Server::MarkDone(XactState& state) {
  CCSIM_CHECK(!state.done);
  state.done = true;
  active_.erase(state.uid);
  std::uint64_t& active = active_by_client_[ClientSlot(state.client)];
  if (active == state.uid) {
    active = 0;
  }
  std::uint64_t& last = last_finished_[ClientSlot(state.client)];
  last = std::max(last, state.uid);
  PumpReady();
}

bool Server::ValidateCommitForRecovery(XactState& state,
                                       const net::Message& request) {
  if (!resilient_) {
    return true;
  }
  if (state.aborted || state.done) {
    return false;  // GC or a crash already killed this transaction
  }
  bool ok = true;
  for (std::size_t i = 0; i < request.read_set.size(); ++i) {
    if (versions_.Get(request.read_set[i]) != request.read_versions[i]) {
      state.stale_pages.push_back(request.read_set[i]);
      ok = false;
    }
  }
  if (!ok) {
    return false;  // a read premise no longer holds (e.g. a lease expired)
  }
  for (db::PageId page : request.updated_set) {
    if (state.updated.count(page) == 0) {
      return false;  // an updated page's image never arrived (lost evict)
    }
  }
  // The (re)validated reads join the serializability oracle; the caller
  // commits without another co_await, so currency cannot decay in between.
  for (std::size_t i = 0; i < request.read_set.size(); ++i) {
    state.read_versions[request.read_set[i]] = request.read_versions[i];
  }
  return true;
}

sim::Process Server::GcAbortXact(std::uint64_t uid) {
  XactState* state = FindXact(uid);
  if (state == nullptr || state->done || state->aborted ||
      state->committing) {
    co_return;  // already finished, finishing, or past the commit point
  }
  metrics_->Count(runner::Counter::gc_xacts);
  const int client = state->client;
  co_await AbortPipeline(*state);
  Reclaim(*state);
  auto notice = std::make_unique<net::Message>();
  notice->type = net::MsgType::kAbortNotice;
  notice->dst = client;
  notice->xact = uid;
  co_await Send(std::move(notice));
}

void Server::GcCrashedClient(int client) {
  metrics_->Count(runner::Counter::gc_xacts);
  locks_.ReleaseAll(lock::RetainedOwner(client));
  protocol_->OnClientReset(client);
  const std::uint64_t current = ActiveXactOfClient(client);
  if (current != 0) {
    simulator_->Spawn(GcAbortXact(current));
  }
  channels_.erase(client);
}

sim::Process Server::Reaper() {
  while (true) {
    co_await simulator_->Delay(xact_idle_ticks_ / 2);
    if (down_) {
      continue;
    }
    std::vector<std::uint64_t> victims;
    for (std::uint64_t uid : active_) {
      const XactState* state = FindXact(uid);
      if (state == nullptr || state->done || state->aborted ||
          state->committing) {
        continue;
      }
      if (simulator_->Now() - state->last_activity < xact_idle_ticks_) {
        continue;
      }
      // Quiet but legitimately parked transactions are not idle: a lock
      // queue or an unresolved asynchronous request will make progress.
      if (locks_.IsWaiting(uid) || state->pending_async > 0) {
        continue;
      }
      victims.push_back(uid);
    }
    for (std::uint64_t uid : victims) {
      simulator_->Spawn(GcAbortXact(uid));
    }
  }
}

void Server::Crash() {
  if (down_) {
    return;
  }
  down_ = true;
  crash_began_ = simulator_->Now();
  metrics_->Count(runner::Counter::server_crashes);
  // Every active transaction dies with the server's volatile state. The
  // client-side abort arrives implicitly: its RPCs time out. Advancing
  // last_finished_ makes any straggler/retransmit of these attempts stale.
  for (std::uint64_t uid : active_) {
    XactState* state = FindXact(uid);
    if (state == nullptr) {
      continue;
    }
    if (!state->done && !state->committing) {
      state->aborted = true;
      if (check::Checker* checker = metrics_->checker()) {
        checker->OnAbortObserved(state->client, uid);
      }
    }
    std::uint64_t& last = last_finished_[ClientSlot(state->client)];
    last = std::max(last, uid);
  }
  active_.clear();
  std::fill(active_by_client_.begin(), active_by_client_.end(), 0);
  ready_.clear();
  channels_.clear();
  inbox_.Clear();
  locks_.Reset();
  redo_pages_at_crash_ = pool_->CrashReset();
  log_->OnCrash();
  protocol_->OnCrash();
}

sim::Task<void> Server::Recover() {
  CCSIM_CHECK(down_);
  co_await log_->ReplayRecovery(redo_pages_at_crash_);
  redo_pages_at_crash_ = 0;
  down_ = false;
  metrics_->Count(runner::Counter::recovery_ticks,
                  static_cast<std::uint64_t>(simulator_->Now() -
                                             crash_began_));
  if (check::Checker* checker = metrics_->checker()) {
    checker->AuditPostRecovery(active_.size(), locks_.held_count(),
                               pool_->UncommittedFrameCount());
  }
}

}  // namespace ccsim::server
