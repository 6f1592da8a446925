#ifndef CCSIM_NET_MESSAGE_H_
#define CCSIM_NET_MESSAGE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>

#include "db/database.h"
#include "lock/lock_manager.h"
#include "util/block_pool.h"
#include "util/macros.h"
#include "util/small_vector.h"

namespace ccsim::net {

/// The server's node id; clients are 0..NClients-1.
inline constexpr int kServerNode = -1;

/// Wire message types of the five consistency protocols.
enum class MsgType {
  // Client -> server, synchronous (a reply always comes back):
  /// Fetch uncached pages and/or validate+lock cached pages.
  kReadRequest,
  /// Upgrade pages the transaction already holds shared to exclusive.
  kUpgradeRequest,
  /// Commit: carries dirty page images; for certification also the read
  /// set with the versions read.
  kCommitRequest,

  // Client -> server, asynchronous (no reply unless negative):
  /// No-wait lock/validate request; the server answers only with an abort.
  kNoWaitLock,
  /// A dirty page evicted from the client cache mid-transaction.
  kDirtyEvict,
  /// A clean page with a retained lock was evicted (callback locking).
  kEvictNotice,
  /// The client releases a called-back retained lock.
  kCallbackRelease,

  // Server -> client:
  kReadReply,
  kUpgradeReply,
  kCommitReply,
  /// Asks the client to relinquish retained locks (callback locking).
  kCallbackRequest,
  /// The server aborted the client's transaction (no-wait locking).
  kAbortNotice,
  /// Committed updates propagated to caching clients (notification).
  kUpdatePropagation,
};

/// The reply type a synchronous request (read, upgrade, commit) expects;
/// an aborted reply of this type answers a request that will not be
/// served.
inline MsgType ReplyTypeFor(MsgType request) {
  switch (request) {
    case MsgType::kReadRequest:
      return MsgType::kReadReply;
    case MsgType::kUpgradeRequest:
      return MsgType::kUpgradeReply;
    case MsgType::kCommitRequest:
      return MsgType::kCommitReply;
    default:
      CCSIM_UNREACHABLE();  // asynchronous requests get no reply
  }
}

/// Inline capacity of message page lists: transactions touch 4-12 pages
/// (Table 5), so 12 covers read/write sets and the common fetch, ack, and
/// eviction lists without heap traffic; outliers spill transparently.
template <typename T>
using MsgList = util::SmallVector<T, 12>;

using PageList = MsgList<db::PageId>;
using VersionList = MsgList<std::uint64_t>;

/// A protocol message. Control information is assumed to fit one packet;
/// each page image carried in `data_pages` adds one packet
/// (PageSize == PacketSize in all paper configurations).
struct Message {
  MsgType type{};
  int src = kServerNode;
  int dst = kServerNode;
  /// Transaction uid (attempt-specific; every restart gets a fresh uid).
  std::uint64_t xact = 0;
  /// Correlates replies with synchronous requests (0 = asynchronous).
  std::uint64_t request_id = 0;
  /// Per-sender sequence number for duplicate suppression of asynchronous
  /// messages on a lossy network (0 = not stamped; fault-free runs never
  /// stamp, so the recovery layer is invisible to them).
  std::uint64_t seq = 0;
  /// Sender incarnation (clients only; bumped on crash-restart so the
  /// server can garbage-collect state owned by the previous life).
  std::uint32_t incarnation = 0;
  lock::LockMode mode = lock::LockMode::kShared;
  /// In replies: the transaction was aborted server-side.
  bool aborted = false;
  /// kUpdatePropagation: invalidate instead of carrying new copies.
  bool invalidate = false;

  /// Subject pages without data (lock/validate lists, stale lists, ack
  /// version lists).
  PageList pages;
  /// Versions parallel to `pages` (cached versions on requests; new
  /// versions on replies).
  VersionList versions;
  /// Pages whose full images travel with the message (fetch replies, dirty
  /// flushes, propagations).
  PageList data_pages;
  /// Versions parallel to `data_pages`.
  VersionList data_versions;

  // kReadRequest extras: pages to fetch (uncached) vs pages to check
  // (cached; listed in `pages` with `versions`).
  PageList fetch_pages;

  // kCommitRequest extras (certification): the full read set and the
  // versions the transaction read.
  PageList read_set;
  VersionList read_versions;

  // kCommitRequest extras (recovery mode): every page the attempt updated,
  // whether its image travels here or was shipped earlier in a kDirtyEvict.
  // The server refuses to commit unless it holds all of them — a lost dirty
  // eviction then costs an abort instead of a lost update.
  PageList updated_set;

  // kCommitReply extras (callback locking): pages whose locks the server
  // released instead of retaining (another transaction was waiting).
  PageList released_pages;

  // Piggybacked eviction notices (callback locking): clean pages with
  // retained locks that left the client cache since the last message.
  PageList evicted_pages;

  // A message is built per send and freed on delivery, so `new Message`
  // recycles blocks through the per-thread pool instead of the heap.
  static void* operator new(std::size_t bytes) {
    return util::BlockPool::Allocate(bytes);
  }
  static void operator delete(void* ptr, std::size_t bytes) noexcept {
    util::BlockPool::Free(ptr, bytes);
  }
};

/// A message fits the block pool's largest size class, so building one per
/// send recycles a block instead of calling the allocator.
static_assert(sizeof(Message) <= util::BlockPool::kMaxBlockBytes,
              "net::Message outgrew the block pool's largest class");

/// The owning handle a message travels in. A message is built once (from
/// the block pool) by its sender and the handle is moved through the
/// network, the destination mailbox, the dispatcher and the handler, so no
/// coroutine frame on the way holds (or moves) the ~900-byte struct itself.
/// Sub-handlers borrow it as `const Message&`.
using MessagePtr = std::unique_ptr<Message>;

/// Number of network packets a message occupies.
inline int PacketsFor(const Message& msg) {
  return msg.data_pages.empty() ? 1 : static_cast<int>(msg.data_pages.size());
}

/// Duplicate suppression for asynchronous messages (recovery mode): the
/// sequence numbers seen on one channel, forgetting all but the last
/// kCapacity. Far more than can be in flight on one client/server pair.
class SeenSeqWindow {
 public:
  static constexpr std::size_t kCapacity = 4096;

  /// Notes `seq`; false when it is still in the window (a duplicate).
  bool Note(std::uint64_t seq) {
    if (!seen_.insert(seq).second) {
      return false;
    }
    order_.push_back(seq);
    if (order_.size() > kCapacity) {
      seen_.erase(order_.front());
      order_.pop_front();
    }
    return true;
  }

  void Clear() {
    seen_.clear();
    order_.clear();
  }

 private:
  util::PooledSet<std::uint64_t> seen_;
  std::deque<std::uint64_t> order_;
};

}  // namespace ccsim::net

#endif  // CCSIM_NET_MESSAGE_H_
