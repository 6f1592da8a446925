#include "proto/two_phase.h"

#include <algorithm>
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

sim::Task<bool> TwoPhaseClient::Commit(const workload::TransactionSpec& spec) {
  (void)spec;
  net::Message request;
  request.type = net::MsgType::kCommitRequest;
  request.xact = c_.current_xact();
  request.data_pages = c_.cache().DirtyPages();
  net::Message reply = co_await c_.Rpc(std::move(request));
  if (reply.aborted) {
    c_.NoteAbort(c_.current_xact(), reply.pages);
    co_return false;
  }
  ApplyCommitReply(reply);
  co_return true;
}

sim::Process TwoPhaseServer::Handle(net::Message msg) {
  switch (msg.type) {
    case net::MsgType::kReadRequest:
      co_await HandleRead(std::move(msg));
      break;
    case net::MsgType::kUpgradeRequest:
      co_await HandleUpgrade(std::move(msg));
      break;
    case net::MsgType::kCommitRequest:
      co_await HandleCommit(std::move(msg));
      break;
    case net::MsgType::kDirtyEvict:
      co_await HandleDirtyEvict(std::move(msg));
      break;
    default:
      break;  // no other message types under 2PL
  }
}

sim::Task<void> TwoPhaseServer::HandleRead(net::Message msg) {
  server::XactState* state = s_.FindXact(msg.xact);
  CCSIM_CHECK(state != nullptr);
  std::vector<db::PageId> all_pages(msg.pages.begin(), msg.pages.end());
  all_pages.insert(all_pages.end(), msg.fetch_pages.begin(),
                   msg.fetch_pages.end());
  for (db::PageId page : all_pages) {
    const lock::LockOutcome outcome =
        co_await s_.locks().Acquire(state->uid, page, msg.mode);
    if (outcome != lock::LockOutcome::kGranted) {
      if (!state->aborted) {
        co_await s_.AbortPipeline(*state);
      }
      co_await s_.ReplyAborted(msg, net::MsgType::kReadReply);
      co_return;
    }
  }
  // With the locks held, validate the cached versions; stale copies are
  // re-read and shipped fresh.
  co_await s_.AnswerRead(*state, msg, /*record_reads=*/true);
}

sim::Task<void> TwoPhaseServer::HandleUpgrade(net::Message msg) {
  server::XactState* state = s_.FindXact(msg.xact);
  CCSIM_CHECK(state != nullptr);
  for (db::PageId page : msg.pages) {
    const lock::LockOutcome outcome = co_await s_.locks().Acquire(
        state->uid, page, lock::LockMode::kExclusive);
    if (outcome != lock::LockOutcome::kGranted) {
      if (!state->aborted) {
        co_await s_.AbortPipeline(*state);
      }
      co_await s_.ReplyAborted(msg, net::MsgType::kUpgradeReply);
      co_return;
    }
  }
  net::Message reply;
  reply.type = net::MsgType::kUpgradeReply;
  co_await s_.Reply(msg, std::move(reply));
}

sim::Task<void> TwoPhaseServer::HandleCommit(net::Message msg) {
  server::XactState* state = s_.FindXact(msg.xact);
  CCSIM_CHECK(state != nullptr);
  if (state->aborted || state->done) {
    // Only reachable with fault injection: the transaction was aborted
    // (GC, crash) while this commit was queued or in flight.
    CCSIM_CHECK(s_.resilient());
    co_await s_.ReplyAborted(msg, net::MsgType::kCommitReply);
    co_return;
  }
  co_await s_.InstallClientUpdates(*state, msg.data_pages, state->uid,
                                   /*charge_cpu=*/true);
  net::Message reply;
  reply.type = net::MsgType::kCommitReply;
  if (!s_.ValidateCommitForRecovery(*state, msg)) {
    co_await s_.RejectCommit(*state, msg);
    co_return;
  }
  co_await s_.FinalizeCommit(*state, &reply);
  s_.locks().ReleaseAll(state->uid);
  co_await s_.Reply(msg, std::move(reply));
}

sim::Task<void> TwoPhaseServer::HandleDirtyEvict(net::Message msg) {
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
