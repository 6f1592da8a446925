#include "proto/certification.h"

#include <algorithm>
#include <utility>

#include "storage/buffer_pool.h"
#include "util/macros.h"

namespace ccsim::proto {

sim::Task<bool> CertificationClient::ReadObject(const workload::Step& step) {
  net::PageList check;
  net::MsgList<std::uint64_t> check_versions;
  net::PageList fetch;
  for (db::PageId page : step.read_pages) {
    client::CachedPage* entry = c_.cache().Touch(page);
    if (entry == nullptr) {
      c_.cache().RecordMiss();
      fetch.push_back(page);
      continue;
    }
    if (entry->checked_this_xact) {
      c_.cache().RecordHit();
      c_.cache().Pin(page);
      read_set_.emplace(page, entry->version);
      continue;
    }
    check.push_back(page);
    check_versions.push_back(entry->version);
    c_.cache().Pin(page);
  }

  if (!check.empty() || !fetch.empty()) {
    // An abort is only possible when the attempt is already dead
    // server-side.
    if (!co_await ReadThroughServer(check, check_versions, fetch)) {
      co_return false;
    }
    for (db::PageId page : step.read_pages) {
      client::CachedPage* entry = c_.cache().Find(page);
      CCSIM_CHECK(entry != nullptr);
      entry->checked_this_xact = true;
      read_set_[page] = entry->version;
      c_.cache().Pin(page);
    }
  }
  co_await c_.ChargePageProcessing(static_cast<int>(step.read_pages.size()));
  co_return !c_.abort_flag();
}

sim::Task<bool> CertificationClient::UpdateObject(const workload::Step& step) {
  // Deferred updates: purely local until commit.
  for (db::PageId page : step.write_pages) {
    c_.cache().MarkDirty(page);
    c_.NoteUpdated(page);
  }
  co_await c_.ChargePageProcessing(static_cast<int>(step.write_pages.size()));
  co_return !c_.abort_flag();
}

sim::Task<bool> CertificationClient::Commit() {
  auto request = std::make_unique<net::Message>();
  for (const auto& [page, version] : read_set_) {
    request->read_set.push_back(page);
    request->read_versions.push_back(version);
  }
  const net::MessagePtr reply =
      co_await CommitThroughServer(std::move(request));
  if (reply->aborted) {
    c_.set_last_abort_kind(runner::AbortKind::kCertification);
    co_return false;
  }
  co_return true;
}

sim::Task<void> CertificationClient::OnAttemptEnd(bool committed) {
  if (!committed) {
    // Deferred updates lived in a private buffer; the cached pages still
    // hold their committed images and stay valid at their versions, so
    // they are kept (clean) rather than dropped.
    c_.cache().ForEachTouched(
        [](db::PageId /*page*/, client::CachedPage& entry) {
          entry.dirty = false;
        });
  }
  read_set_.clear();
  co_await ClientProtocol::OnAttemptEnd(committed);
}

sim::Task<void> CertificationServer::Handle(const net::Message& msg) {
  switch (msg.type) {
    case net::MsgType::kReadRequest:
      co_await HandleRead(msg);
      break;
    case net::MsgType::kCommitRequest:
      co_await HandleCommit(msg);
      break;
    case net::MsgType::kDirtyEvict: {
      // An updated page left the client cache early: stage it in the
      // transaction's private buffer at the server until certification.
      server::XactState* state = s_.FindXact(msg.xact);
      if (state != nullptr && !state->done) {
        for (db::PageId page : msg.data_pages) {
          state->deferred.insert(page);
        }
      }
      break;
    }
    default:
      break;
  }
}

sim::Task<void> CertificationServer::HandleRead(const net::Message& msg) {
  server::XactState* state = s_.FindXact(msg.xact);
  CCSIM_CHECK(state != nullptr);
  // Certification records its read set at commit time, not here.
  co_await s_.AnswerRead(*state, msg, /*record_reads=*/false);
}

sim::Task<void> CertificationServer::HandleCommit(const net::Message& msg) {
  server::XactState* state = s_.FindXact(msg.xact);
  CCSIM_CHECK(state != nullptr);
  if (co_await s_.RefuseDeadCommit(*state, msg)) {
    co_return;
  }
  // Backward validation: all read versions must still be current.
  // skip_validation_ (test only) commits blind — the broken variant the
  // consistency oracle is expected to convict with a cycle.
  std::vector<db::PageId> stale;
  if (!skip_validation_) {
    for (std::size_t i = 0; i < msg.read_set.size(); ++i) {
      if (s_.versions().Get(msg.read_set[i]) != msg.read_versions[i]) {
        stale.push_back(msg.read_set[i]);
      }
    }
  }
  if (!stale.empty()) {
    state->stale_pages = stale;
    co_await s_.AbortPipeline(*state);
    co_await s_.ReplyAborted(msg, net::MsgType::kCommitReply,
                             std::move(stale));
    co_return;
  }
  // Certified. Validation + version installation happen synchronously so
  // rival commits validate against the new versions.
  for (std::size_t i = 0; i < msg.read_set.size(); ++i) {
    state->read_versions[msg.read_set[i]] = msg.read_versions[i];
  }
  std::vector<db::PageId> updates(msg.data_pages.begin(),
                                  msg.data_pages.end());
  for (db::PageId page : state->deferred) {
    if (std::find(updates.begin(), updates.end(), page) == updates.end()) {
      updates.push_back(page);
    }
  }
  for (db::PageId page : updates) {
    state->updated.insert(page);
  }
  auto reply = std::make_unique<net::Message>();
  reply->type = net::MsgType::kCommitReply;
  if (!s_.ValidateCommitForRecovery(*state, msg)) {
    // Recovery mode: a dirty eviction never arrived (updated-set gap), so
    // committing would lose that update. (Reads were just re-validated
    // above, so only the coverage check can fail here.)
    co_await s_.RejectCommit(*state, msg);
    co_return;
  }
  s_.BumpVersionsAndRecord(*state, reply.get());
  // Merge the deferred updates into the database (the "update queue" of
  // paper Figure 4); they are committed data now.
  co_await s_.InstallClientUpdates(*state, updates,
                                   storage::BufferPool::kCommitted,
                                   /*charge_cpu=*/true);
  co_await s_.CommitTail(*state);
  co_await s_.Reply(msg, std::move(reply));
}

}  // namespace ccsim::proto
