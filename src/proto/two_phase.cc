#include "proto/two_phase.h"

#include <utility>

#include "util/macros.h"

namespace ccsim::proto {

sim::Task<bool> TwoPhaseClient::ReadObject(const workload::Step& step) {
  std::vector<db::PageId> check;
  std::vector<std::uint64_t> check_versions;
  std::vector<db::PageId> fetch;
  for (db::PageId page : step.read_pages) {
    client::CachedPage* entry = c_.cache().Touch(page);
    if (entry == nullptr) {
      c_.cache().RecordMiss();
      fetch.push_back(page);
      continue;
    }
    if (entry->lock != client::PageLock::kNone) {
      // Locked by the current transaction: guaranteed valid, no server
      // contact.
      c_.cache().RecordHit();
      c_.cache().Pin(page);
      continue;
    }
    if (ReadLocally(page, *entry)) {
      continue;
    }
    check.push_back(page);
    check_versions.push_back(entry->version);
    c_.cache().Pin(page);
  }

  if (!check.empty() || !fetch.empty()) {
    if (!co_await ReadThroughServer(check, check_versions, fetch)) {
      co_return false;
    }
    for (db::PageId page : step.read_pages) {
      client::CachedPage* entry = c_.cache().Find(page);
      CCSIM_CHECK(entry != nullptr);
      if (entry->lock == client::PageLock::kNone) {
        entry->lock = client::PageLock::kShared;
      }
      c_.cache().Pin(page);
    }
  }
  co_await c_.ChargePageProcessing(static_cast<int>(step.read_pages.size()));
  co_return !c_.abort_flag();
}

sim::Task<bool> TwoPhaseClient::UpdateObject(const workload::Step& step) {
  std::vector<db::PageId> upgrade;
  for (db::PageId page : step.write_pages) {
    client::CachedPage* entry = c_.cache().Find(page);
    CCSIM_CHECK(entry != nullptr);  // the preceding read pinned it
    if (entry->lock != client::PageLock::kExclusive) {
      upgrade.push_back(page);
    }
  }
  if (!upgrade.empty()) {
    auto request = std::make_unique<net::Message>();
    request->type = net::MsgType::kUpgradeRequest;
    request->xact = c_.current_xact();
    request->mode = lock::LockMode::kExclusive;
    request->pages = upgrade;
    request->evicted_pages = TakeEvictNotices();
    const net::MessagePtr reply = co_await c_.Rpc(std::move(request));
    if (reply->aborted) {
      c_.NoteAbort(c_.current_xact(), reply->pages);
      co_return false;
    }
    for (db::PageId page : upgrade) {
      c_.cache().Find(page)->lock = client::PageLock::kExclusive;
    }
  }
  for (db::PageId page : step.write_pages) {
    c_.cache().MarkDirty(page);
    c_.NoteUpdated(page);
  }
  co_await c_.ChargePageProcessing(static_cast<int>(step.write_pages.size()));
  co_return !c_.abort_flag();
}

sim::Task<void> TwoPhaseServer::Handle(const net::Message& msg) {
  OnMessage(msg);
  switch (msg.type) {
    case net::MsgType::kReadRequest:
      if (server::XactState* state = co_await LockOrAbort(
              msg, lock::LockMode::kShared, net::MsgType::kReadReply)) {
        // With the locks held, validate the cached versions; stale copies
        // are re-read and shipped fresh.
        co_await s_.AnswerRead(*state, msg, /*record_reads=*/true);
      }
      break;
    case net::MsgType::kUpgradeRequest:
      if (co_await LockOrAbort(msg, lock::LockMode::kExclusive,
                               net::MsgType::kUpgradeReply) != nullptr) {
        auto reply = std::make_unique<net::Message>();
        reply->type = net::MsgType::kUpgradeReply;
        co_await s_.Reply(msg, std::move(reply));
      }
      break;
    case net::MsgType::kCommitRequest:
      co_await HandleCommit(msg);
      break;
    case net::MsgType::kDirtyEvict:
      co_await HandleDirtyEvict(msg);
      break;
    default:
      break;  // other message types are OnMessage's
  }
}

sim::Task<server::XactState*> TwoPhaseServer::LockOrAbort(
    const net::Message& request, lock::LockMode mode,
    net::MsgType reply_type) {
  server::XactState* state = s_.FindXact(request.xact);
  CCSIM_CHECK(state != nullptr);
  const net::PageList* const lists[] = {&request.pages, &request.fetch_pages};
  for (const net::PageList* pages : lists) {
    for (db::PageId page : *pages) {
      BeforeAcquire(*state, page, mode);
      const lock::LockOutcome outcome =
          co_await s_.locks().Acquire(state->uid, page, mode);
      if (outcome != lock::LockOutcome::kGranted) {
        if (!state->aborted) {
          co_await s_.AbortPipeline(*state);
        }
        co_await s_.ReplyAborted(request, reply_type);
        co_return nullptr;
      }
    }
  }
  co_return state;
}

sim::Task<void> TwoPhaseServer::HandleCommit(const net::Message& msg) {
  server::XactState* state = s_.FindXact(msg.xact);
  CCSIM_CHECK(state != nullptr);
  if (co_await s_.RefuseDeadCommit(*state, msg)) {
    co_return;
  }
  // Reads the client served under retained locks (callback locking) never
  // reached the server; they join the oracle read set here.
  for (std::size_t i = 0; i < msg.read_set.size(); ++i) {
    state->read_versions[msg.read_set[i]] = msg.read_versions[i];
  }
  co_await s_.InstallClientUpdates(*state, msg.data_pages, state->uid,
                                   /*charge_cpu=*/true);
  auto reply = std::make_unique<net::Message>();
  reply->type = net::MsgType::kCommitReply;
  if (!s_.ValidateCommitForRecovery(*state, msg)) {
    // Recovery mode: a dirty eviction never arrived, or (callback locking)
    // a lease force-release let a rival update a page read locally.
    co_await s_.RejectCommit(*state, msg);
    co_return;
  }
  co_await s_.FinalizeCommit(*state, reply.get());
  DisposeLocks(*state, reply.get());
  co_await s_.Reply(msg, std::move(reply));
}

void TwoPhaseServer::DisposeLocks(const server::XactState& state,
                                  net::Message* /*reply*/) {
  s_.locks().ReleaseAll(state.uid);
}

sim::Task<void> TwoPhaseServer::HandleDirtyEvict(const net::Message& msg) {
  server::XactState* state = s_.FindXact(msg.xact);
  if (state == nullptr || state->aborted || state->done) {
    co_return;  // attempt already finished; the data is moot
  }
  // The client holds the X lock (updates follow upgrades), so the page can
  // be installed in place as uncommitted data.
  co_await s_.InstallClientUpdates(*state, msg.data_pages, state->uid,
                                   /*charge_cpu=*/true);
}

}  // namespace ccsim::proto
