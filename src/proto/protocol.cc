#include "proto/protocol.h"

#include <algorithm>
#include <utility>

#include "util/macros.h"

namespace ccsim::proto {

sim::Task<bool> ClientProtocol::RunAttempt(
    const workload::TransactionSpec& spec) {
  // The transaction loop of paper Figure 3.
  for (const workload::Step& step : spec.steps) {
    if (c_.abort_flag()) {
      co_return false;
    }
    if (!co_await ReadObject(step)) {
      co_return false;
    }
    co_await c_.UpdateDelay();
    if (c_.abort_flag()) {
      co_return false;
    }
    if (!step.write_pages.empty()) {
      if (!co_await UpdateObject(step)) {
        co_return false;
      }
    }
    co_await c_.InternalDelay();
  }
  if (c_.abort_flag()) {
    co_return false;
  }
  co_return co_await Commit();
}

sim::Task<bool> ClientProtocol::ReadThroughServer(
    const net::PageList& check, const net::MsgList<std::uint64_t>& versions,
    const net::PageList& fetch) {
  auto request = std::make_unique<net::Message>();
  request->type = net::MsgType::kReadRequest;
  request->xact = c_.current_xact();
  request->mode = lock::LockMode::kShared;
  request->pages = check;
  request->versions = versions;
  request->fetch_pages = fetch;
  request->evicted_pages = TakeEvictNotices();
  const net::MessagePtr reply = co_await c_.Rpc(std::move(request));
  if (reply->aborted) {
    c_.NoteAbort(c_.current_xact(), reply->pages);
    co_return false;
  }
  for (std::size_t i = 0; i < reply->data_pages.size(); ++i) {
    const db::PageId page = reply->data_pages[i];
    client::CachedPage* entry = c_.cache().Find(page);
    if (entry != nullptr) {
      entry->version = reply->data_versions[i];  // stale copy refreshed
    } else {
      client::CachedPage info;
      info.version = reply->data_versions[i];
      co_await c_.InstallPage(page, info);
    }
  }
  // Checked pages that came back with data were stale: count as misses.
  for (db::PageId page : check) {
    const bool refreshed =
        std::find(reply->data_pages.begin(), reply->data_pages.end(),
                  page) != reply->data_pages.end();
    if (refreshed) {
      c_.cache().RecordMiss();
    } else {
      c_.cache().RecordHit();
    }
  }
  co_return true;
}

sim::Task<bool> ClientProtocol::Commit() {
  // A named request, not `{}`: GCC 12 destroys a temporary argument of a
  // co_awaited coroutine call before the callee is done with it.
  auto request = std::make_unique<net::Message>();
  const net::MessagePtr reply =
      co_await CommitThroughServer(std::move(request));
  co_return !reply->aborted;
}

sim::Task<net::MessagePtr> ClientProtocol::CommitThroughServer(
    net::MessagePtr request) {
  request->type = net::MsgType::kCommitRequest;
  request->xact = c_.current_xact();
  request->data_pages = c_.cache().DirtyPages();
  request->evicted_pages = TakeEvictNotices();
  net::MessagePtr reply = co_await c_.Rpc(std::move(request));
  if (reply->aborted) {
    c_.NoteAbort(c_.current_xact(), reply->pages);
    co_return reply;
  }
  for (std::size_t i = 0; i < reply->pages.size(); ++i) {
    client::CachedPage* entry = c_.cache().Find(reply->pages[i]);
    if (entry != nullptr) {
      entry->version = reply->versions[i];
      entry->dirty = false;
    }
  }
  co_return reply;
}

sim::Task<void> ClientProtocol::OnAttemptEnd(bool committed) {
  if (!committed) {
    // In-place protocols: locally updated pages hold uncommitted data that
    // was rolled back at the server; the cached copies are garbage.
    for (db::PageId page : c_.cache().DirtyPages()) {
      c_.cache().Erase(page);
    }
  }
  for (db::PageId page : c_.TakePendingStale()) {
    c_.cache().Erase(page);
  }
  c_.cache().EndTransaction();
  return sim::Task<void>::Ready();
}

sim::Task<void> ClientProtocol::HandleAsync(net::Message& msg) {
  switch (msg.type) {
    case net::MsgType::kAbortNotice: {
      c_.NoteAbort(msg.xact, msg.pages);
      // Stale copies are stale no matter which attempt the notice names;
      // drop the ones not in use so later attempts do not re-trip on them.
      for (db::PageId page : msg.pages) {
        const client::CachedPage* entry = c_.cache().Find(page);
        if (entry != nullptr && !entry->dirty && !c_.cache().IsPinned(page)) {
          c_.cache().Erase(page);
        }
      }
      break;
    }
    case net::MsgType::kUpdatePropagation: {
      if (msg.invalidate) {
        // Ablation variant: drop the stale copies instead of refreshing.
        for (db::PageId page : msg.pages) {
          const client::CachedPage* entry = c_.cache().Find(page);
          if (entry != nullptr && !entry->dirty &&
              !c_.cache().IsPinned(page)) {
            c_.cache().Erase(page);
          }
        }
        break;
      }
      for (std::size_t i = 0; i < msg.data_pages.size(); ++i) {
        const db::PageId page = msg.data_pages[i];
        client::CachedPage* entry = c_.cache().Find(page);
        if (entry == nullptr || entry->dirty) {
          // Not cached (wasted propagation) or locally updated (that
          // transaction is doomed anyway); ignore.
          continue;
        }
        entry->version = msg.data_versions[i];
        if (c_.lease_ticks() > 0) {
          // Recovery mode: a pushed copy is trusted for one lease only. The
          // directory tracking this copy is volatile server state, so after
          // a crash the refresh/invalidation that keeps it honest may never
          // come again.
          entry->lease_until = c_.simulator().Now() + c_.lease_ticks();
        }
      }
      // Cost note: receiving the packets already charged MsgCost per page
      // on this client's CPU. ClientProcPage is charged only for the
      // transaction's own reads/updates (paper §3.4: "after the access
      // permission is granted"), not for background installs.
      break;
    }
    default:
      break;  // algorithm-specific messages handled in overrides
  }
  return sim::Task<void>::Ready();
}

sim::Task<void> ClientProtocol::HandleEvictions(
    client::ClientCache::EvictedList& victims) {
  for (const client::ClientCache::Evicted& victim : victims) {
    if (victim.info.dirty) {
      // Updated pages leave the cache mid-transaction: ship to the server
      // (paper §2: "updates are sent to the server either when an updated
      // object is swapped out of the client cache or at commit time").
      auto msg = std::make_unique<net::Message>();
      msg->type = net::MsgType::kDirtyEvict;
      msg->xact = c_.current_xact();
      msg->data_pages.push_back(victim.page);
      msg->data_versions.push_back(victim.info.version);
      co_await c_.SendAsync(std::move(msg));
    } else if (victim.info.retained) {
      // Callback locking: the server must learn that the retained lock is
      // gone (paper §3.3.3).
      auto msg = std::make_unique<net::Message>();
      msg->type = net::MsgType::kEvictNotice;
      msg->xact = 0;
      msg->pages.push_back(victim.page);
      co_await c_.SendAsync(std::move(msg));
    }
  }
}

}  // namespace ccsim::proto
