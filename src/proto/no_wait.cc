#include "proto/no_wait.h"

#include <unordered_map>
#include <utility>

#include "check/checker.h"
#include "util/macros.h"

namespace ccsim::proto {

// --- client ---

sim::Task<bool> NoWaitClient::ReadObject(const workload::Step& step) {
  std::vector<db::PageId> async_pages;
  std::vector<std::uint64_t> async_versions;
  std::vector<db::PageId> fetch;
  for (db::PageId page : step.read_pages) {
    client::CachedPage* entry = c_.cache().Touch(page);
    if (entry == nullptr) {
      c_.cache().RecordMiss();
      fetch.push_back(page);
      continue;
    }
    if (entry->lease_until != 0 && !entry->requested_this_xact &&
        c_.simulator().Now() > entry->lease_until) {
      // Recovery mode: a propagated copy past its lease is no longer worth
      // an optimistic gamble; fetch it synchronously like a miss.
      c_.metrics().Count(runner::Counter::lease_expirations);
      c_.cache().RecordMiss();
      entry->lease_until = 0;
      fetch.push_back(page);
      continue;
    }
    c_.cache().RecordHit();
    c_.cache().Pin(page);
    if (!entry->requested_this_xact) {
      if (check::Checker* checker = c_.metrics().checker()) {
        // An optimistic use, not a validity guarantee (the async lock may
        // come back stale) — the oracle only audits the lease discipline.
        checker->OnTrustedLocalRead(c_.id(), page, entry->version,
                                    /*retained_lock=*/false,
                                    entry->lease_until, c_.simulator().Now(),
                                    /*fault_free=*/!c_.resilient());
      }
      // Optimistically use the cached copy; ask the server to lock and
      // validate it in the background.
      async_pages.push_back(page);
      async_versions.push_back(entry->version);
      entry->requested_this_xact = true;
      entry->lock = client::PageLock::kShared;
      if (c_.resilient()) {
        read_set_[page] = entry->version;
      }
    }
  }
  if (!async_pages.empty()) {
    auto request = std::make_unique<net::Message>();
    request->type = net::MsgType::kNoWaitLock;
    request->xact = c_.current_xact();
    request->mode = lock::LockMode::kShared;
    request->pages = std::move(async_pages);
    request->versions = std::move(async_versions);
    co_await c_.SendAsync(std::move(request));
  }
  if (!fetch.empty()) {
    auto request = std::make_unique<net::Message>();
    request->type = net::MsgType::kReadRequest;
    request->xact = c_.current_xact();
    request->mode = lock::LockMode::kShared;
    request->fetch_pages = fetch;
    const net::MessagePtr reply = co_await c_.Rpc(std::move(request));
    if (reply->aborted) {
      c_.NoteAbort(c_.current_xact(), reply->pages);
      co_return false;
    }
    for (std::size_t i = 0; i < reply->data_pages.size(); ++i) {
      const db::PageId page = reply->data_pages[i];
      client::CachedPage* entry = c_.cache().Find(page);
      if (entry == nullptr) {
        client::CachedPage info;
        info.version = reply->data_versions[i];
        info.requested_this_xact = true;
        info.lock = client::PageLock::kShared;
        co_await c_.InstallPage(page, info);
      } else {
        entry->version = reply->data_versions[i];
        entry->requested_this_xact = true;
        entry->lock = client::PageLock::kShared;
        entry->lease_until = 0;
        c_.cache().Pin(page);
      }
      if (c_.resilient()) {
        read_set_[page] = reply->data_versions[i];
      }
    }
  }
  co_await c_.ChargePageProcessing(static_cast<int>(step.read_pages.size()));
  co_return !c_.abort_flag();
}

sim::Task<bool> NoWaitClient::UpdateObject(const workload::Step& step) {
  std::vector<db::PageId> upgrade;
  for (db::PageId page : step.write_pages) {
    client::CachedPage& entry = c_.cache().MarkDirty(page);
    c_.NoteUpdated(page);
    if (entry.lock != client::PageLock::kExclusive) {
      entry.lock = client::PageLock::kExclusive;
      upgrade.push_back(page);
    }
  }
  if (!upgrade.empty()) {
    // Fire-and-forget upgrade: the server aborts us on deadlock.
    auto request = std::make_unique<net::Message>();
    request->type = net::MsgType::kNoWaitLock;
    request->xact = c_.current_xact();
    request->mode = lock::LockMode::kExclusive;
    request->pages = std::move(upgrade);
    co_await c_.SendAsync(std::move(request));
  }
  co_await c_.ChargePageProcessing(static_cast<int>(step.write_pages.size()));
  co_return !c_.abort_flag();
}

sim::Task<bool> NoWaitClient::Commit() {
  auto request = std::make_unique<net::Message>();
  if (c_.resilient()) {
    // A fire-and-forget lock request may have been dropped, leaving a read
    // neither locked nor validated; the commit-time backward validation
    // over this read set is the safety net.
    for (const auto& [page, version] : read_set_) {
      request->read_set.push_back(page);
      request->read_versions.push_back(version);
    }
  }
  const net::MessagePtr reply =
      co_await CommitThroughServer(std::move(request));
  co_return !reply->aborted;
}

sim::Task<void> NoWaitClient::OnAttemptEnd(bool committed) {
  read_set_.clear();
  co_await ClientProtocol::OnAttemptEnd(committed);
}

// --- server ---

sim::Task<void> NoWaitServer::Handle(const net::Message& msg) {
  switch (msg.type) {
    case net::MsgType::kNoWaitLock:
      co_await HandleNoWaitLock(msg);
      break;
    case net::MsgType::kReadRequest:
      co_await HandleRead(msg);
      break;
    case net::MsgType::kCommitRequest:
      co_await HandleCommit(msg);
      break;
    case net::MsgType::kDirtyEvict:
      co_await HandleDirtyEvict(msg);
      break;
    default:
      break;
  }
}

sim::Task<void> NoWaitServer::AbortWithNotice(server::XactState& state) {
  if (state.aborted) {
    co_return;
  }
  const std::vector<db::PageId> stale = state.stale_pages;
  co_await s_.AbortPipeline(state);
  auto notice = std::make_unique<net::Message>();
  notice->type = net::MsgType::kAbortNotice;
  notice->dst = state.client;
  notice->xact = state.uid;
  notice->pages = stale;
  co_await s_.Send(std::move(notice));
}

sim::Task<void> NoWaitServer::HandleNoWaitLock(const net::Message& msg) {
  server::XactState* state = s_.FindXact(msg.xact);
  CCSIM_CHECK(state != nullptr);
  ++state->pending_async;
  for (std::size_t i = 0; i < msg.pages.size(); ++i) {
    if (state->aborted || state->committing) {
      break;
    }
    const db::PageId page = msg.pages[i];
    const lock::LockOutcome outcome =
        co_await s_.locks().Acquire(state->uid, page, msg.mode);
    if (outcome == lock::LockOutcome::kAborted) {
      break;  // another handler aborted us; it sent the notice
    }
    if (state->committing) {
      // A faulty wire can deliver a lock request after its commit request.
      // Past the commit point the request is moot: aborting would finish
      // the transaction twice, and a lock granted after the commit released
      // the transaction's locks would outlive it.
      if (outcome == lock::LockOutcome::kGranted && state->done) {
        s_.locks().Release(state->uid, page);
      }
      break;
    }
    if (outcome == lock::LockOutcome::kDeadlock) {
      co_await AbortWithNotice(*state);
      break;
    }
    if (msg.mode == lock::LockMode::kShared) {
      // Lock granted: now check that the cached copy the client is already
      // using was current.
      const std::uint64_t current = s_.versions().Get(page);
      if (current != msg.versions[i]) {
        state->stale_pages.push_back(page);
        co_await AbortWithNotice(*state);
        break;
      }
      state->read_versions[page] = current;
    }
  }
  --state->pending_async;
  if (state->pending_async == 0) {
    state->async_resolved->Signal();
  }
}

sim::Task<void> NoWaitServer::HandleRead(const net::Message& msg) {
  server::XactState* state = s_.FindXact(msg.xact);
  CCSIM_CHECK(state != nullptr);
  for (db::PageId page : msg.fetch_pages) {
    if (state->aborted) {
      break;
    }
    const lock::LockOutcome outcome =
        co_await s_.locks().Acquire(state->uid, page, msg.mode);
    if (outcome == lock::LockOutcome::kDeadlock) {
      co_await AbortWithNotice(*state);
      break;
    }
    if (outcome == lock::LockOutcome::kAborted) {
      break;
    }
  }
  if (state->aborted) {
    co_await s_.ReplyAborted(msg, net::MsgType::kReadReply,
                             state->stale_pages);
    co_return;
  }
  co_await s_.AnswerRead(*state, msg, /*record_reads=*/true);
}

sim::Task<void> NoWaitServer::HandleCommit(const net::Message& msg) {
  server::XactState* state = s_.FindXact(msg.xact);
  CCSIM_CHECK(state != nullptr);
  // The client may commit only after every outstanding request has been
  // resolved (paper §2.4: "the client must receive a response from the
  // server before it can commit").
  while (state->pending_async > 0 && !state->aborted) {
    co_await state->async_resolved->Wait();
  }
  if (state->aborted) {
    // The asynchronous notice is (or will be) on its way; answer the commit
    // too so the client does not hang on the RPC.
    co_await s_.ReplyAborted(msg, net::MsgType::kCommitReply,
                             state->stale_pages);
    co_return;
  }
  co_await s_.InstallClientUpdates(*state, msg.data_pages, state->uid,
                                   /*charge_cpu=*/true);
  // Apply dirty evictions that arrived before their X grants.
  if (!state->deferred.empty()) {
    const std::vector<db::PageId> deferred(state->deferred.begin(),
                                           state->deferred.end());
    co_await s_.InstallClientUpdates(*state, deferred, state->uid,
                                     /*charge_cpu=*/false);
  }
  auto reply = std::make_unique<net::Message>();
  reply->type = net::MsgType::kCommitReply;
  if (!s_.ValidateCommitForRecovery(*state, msg)) {
    // Recovery mode: a lost lock request left a read unvalidated and it
    // went stale, or a dirty eviction never arrived.
    co_await s_.RejectCommit(*state, msg);
    co_return;
  }
  co_await s_.FinalizeCommit(*state, reply.get());
  s_.locks().ReleaseAll(state->uid);
  // The reply leaves with its handle; notification still needs the
  // installed versions it lists.
  const net::MessagePtr installed =
      notify_ ? std::make_unique<net::Message>(*reply) : nullptr;
  co_await s_.Reply(msg, std::move(reply));
  if (notify_) {
    co_await PropagateUpdates(*state, *installed);
  }
}

sim::Task<void> NoWaitServer::HandleDirtyEvict(const net::Message& msg) {
  server::XactState* state = s_.FindXact(msg.xact);
  if (state == nullptr || state->aborted || state->done) {
    co_return;
  }
  // Install in place only when the X lock is already granted; otherwise
  // another transaction may still own the page — stage the image until
  // commit.
  for (db::PageId page : msg.data_pages) {
    if (s_.locks().Holds(state->uid, page, lock::LockMode::kExclusive)) {
      const std::vector<db::PageId> one(1, page);
      co_await s_.InstallClientUpdates(*state, one, state->uid,
                                       /*charge_cpu=*/true);
    } else {
      state->deferred.insert(page);
      if (s_.page_processing_cost() > 0) {
        co_await s_.cpu().Use(s_.page_processing_cost());
      }
    }
  }
}

sim::Task<void> NoWaitServer::PropagateUpdates(
    const server::XactState& state, const net::Message& commit_reply) {
  // Group the committed pages by caching client so each client gets one
  // message (paper §2.5: the server sends the updated copies).
  std::unordered_map<int, net::MessagePtr> per_client;
  for (std::size_t i = 0; i < commit_reply.pages.size(); ++i) {
    const db::PageId page = commit_reply.pages[i];
    const std::uint64_t version = commit_reply.versions[i];
    std::vector<int> targets;
    if (notify_broadcast_) {
      // Broadcast variant (paper §6): no directory, every other client.
      for (int client = 0; client < s_.config().system.num_clients;
           ++client) {
        if (client != state.client) {
          targets.push_back(client);
        }
      }
    } else {
      targets = s_.directory().ClientsCaching(page, state.client);
    }
    for (int client : targets) {
      net::MessagePtr& msg = per_client[client];
      if (msg == nullptr) {
        msg = std::make_unique<net::Message>();
        msg->type = net::MsgType::kUpdatePropagation;
        msg->dst = client;
        msg->invalidate = notify_invalidate_;
      }
      if (notify_invalidate_) {
        // Invalidations carry no page images (control message only).
        msg->pages.push_back(page);
        msg->versions.push_back(version);
      } else {
        msg->data_pages.push_back(page);
        msg->data_versions.push_back(version);
      }
    }
  }
  for (auto& [client, msg] : per_client) {
    if (notify_invalidate_) {
      // The client drops these pages; align the directory with that.
      for (db::PageId page : msg->pages) {
        s_.directory().Drop(client, page);
      }
    } else if (s_.page_processing_cost() > 0) {
      // Each propagated copy is an object sent to a client: ServerProcPage,
      // like any other page read (this is the server-CPU contention that
      // makes notification expensive in the paper's §5.1/§5.3 regimes).
      co_await s_.cpu().Use(s_.page_processing_cost() *
                            static_cast<sim::Ticks>(msg->data_pages.size()));
    }
    co_await s_.Send(std::move(msg));
  }
}

}  // namespace ccsim::proto
