#ifndef CCSIM_SUBSTRATE_TCP_H_
#define CCSIM_SUBSTRATE_TCP_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/network.h"
#include "substrate/realtime.h"
#include "substrate/wire.h"

namespace ccsim::substrate {

/// Owning POSIX file descriptor.
class ScopedFd {
 public:
  ScopedFd() = default;
  explicit ScopedFd(int fd) : fd_(fd) {}
  ~ScopedFd() { Reset(); }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;
  ScopedFd(ScopedFd&& other) noexcept : fd_(other.Release()) {}
  ScopedFd& operator=(ScopedFd&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = other.Release();
    }
    return *this;
  }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int Release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void Reset();
  /// shutdown(SHUT_RDWR): unblocks a reader thread parked in recv().
  void ShutdownBoth();

 private:
  int fd_ = -1;
};

/// One framed TCP connection: a socket, its peer's Hello, and the
/// read/write plumbing.
///
/// Threading: the handshake (SendRaw/ReadFrame, blocking) runs on a single
/// thread before the connection is routed. Afterwards the hot path is
/// split single-writer/single-reader — QueueMessage/Flush only from the
/// substrate loop thread, recv only from the connection's reader thread —
/// so no write lock is needed. Outbound messages batch into a FrameBuffer
/// and reach the kernel in one vectored, non-blocking sendmsg per flush.
class Connection {
 public:
  /// Pending outbound bytes past this mark poison the connection: the
  /// peer has stalled for so long it is treated as departed.
  static constexpr std::size_t kMaxBufferedBytes = 64u * 1024u * 1024u;

  /// `writable` false holds every Flush() until OpenForWrites(): a server
  /// connection is routable before its handshake reply is sent.
  explicit Connection(ScopedFd fd, bool writable = true)
      : fd_(std::move(fd)), writable_(writable) {}

  /// Encodes one Message frame into the outbound batch. Returns false
  /// once the peer is gone (dead or hopelessly backlogged); the message
  /// is dropped like mail to a crashed workstation.
  bool QueueMessage(const net::Message& msg,
                    std::uint32_t page_payload_bytes);

  /// Pushes the batch to the kernel without blocking. kAgain leaves the
  /// remainder queued for the next flush (or all of it, before
  /// OpenForWrites); kError marks the peer dead.
  FrameBuffer::FlushResult Flush();

  /// Lets Flush() write, once the handshake reply is on the wire.
  void OpenForWrites() { writable_.store(true, std::memory_order_release); }

  bool has_pending() const { return buffer_.has_pending(); }

  /// Writes a pre-encoded frame, blocking (handshake only).
  bool SendRaw(const std::vector<std::uint8_t>& bytes);

  /// Blocking read of one length-prefixed frame body (handshake only).
  /// Returns false on EOF/error. `body` is reused across calls.
  bool ReadFrame(std::vector<std::uint8_t>* body);

  void Shutdown() { fd_.ShutdownBoth(); }

  /// Marks the connection dead without touching the outbound buffer, so it
  /// is safe from any thread (the buffer is loop-thread-only; the next
  /// loop-thread Flush() discards it).
  void MarkDead() { dead_.store(true, std::memory_order_relaxed); }

  /// Hard kill: poisons the connection, discards any partially-flushed
  /// outbound batch (the peer sees a frame cut mid-stream), arms
  /// SO_LINGER(0) so the eventual close() RSTs instead of FIN-ing, and
  /// shuts the socket down to eject the reader thread. Caller must hold
  /// the outbound single-writer role (loop thread, or post-join teardown).
  void Abort();

  int fd() const { return fd_.get(); }
  bool dead() const { return dead_.load(std::memory_order_relaxed); }
  const Hello& peer() const { return peer_; }
  void set_peer(const Hello& hello) { peer_ = hello; }

 private:
  bool WriteAll(const std::uint8_t* data, std::size_t len);

  ScopedFd fd_;
  Hello peer_{};
  FrameBuffer buffer_;
  std::atomic<bool> dead_{false};
  std::atomic<bool> writable_;
};

/// Client side of the wire: one connection from a load-generator shard to
/// the page server. Installed as the shard Network's Transport, it queues
/// every outbound message into the connection's frame batch (flushed at
/// each calendar-step boundary via Flush()); a reader thread decodes
/// inbound frames straight into an InboundChannel ring that the shard's
/// RealtimeSubstrate drains in batches.
class TcpClientTransport : public net::Transport {
 public:
  /// Connects, exchanges Hellos, and validates the server against `hello`
  /// (algorithm, database size, client-id range). `host` may be an IPv4
  /// literal or a resolvable hostname. Returns nullptr with `error` set
  /// on any failure.
  static std::unique_ptr<TcpClientTransport> Connect(
      const std::string& host, int port, const Hello& hello,
      RealtimeSubstrate* substrate, std::string* error);

  ~TcpClientTransport() override;

  /// net::Transport: called on the shard loop thread.
  void Deliver(const net::Message& msg) override;

  /// net::Transport: flushes the outbound batch (shard loop thread).
  bool Flush() override;

  /// Closes the socket and joins the reader.
  void Close();

  /// Opts in to redial-on-disconnect: when the reader thread loses the
  /// connection it re-dials the server (exponential backoff, fresh
  /// handshake, fresh FrameSplitter) and swaps the new connection in. Off
  /// by default so fault-free runs keep the original lock-free-reader,
  /// fail-stop semantics; wiring enables it only when a fault plan is
  /// active. Call before the substrate starts delivering.
  void EnableReconnect();

  /// Hard partition: kills the current connection mid-frame (RST). With
  /// reconnect enabled the reader redials; messages queued in between are
  /// counted as disconnected drops. Shard-loop-thread only.
  void AbortConnection();

  std::uint64_t frames_received() const {
    return frames_received_.load(std::memory_order_relaxed);
  }
  /// Successful redials after a lost connection.
  std::uint64_t reconnects() const {
    return reconnects_.load(std::memory_order_relaxed);
  }
  /// Outbound messages dropped while no live connection existed.
  std::uint64_t disconnected_drops() const {
    return disconnected_drops_.load(std::memory_order_relaxed);
  }

 private:
  TcpClientTransport(std::unique_ptr<Connection> conn,
                     RealtimeSubstrate* substrate, const std::string& host,
                     int port, const Hello& hello);

  /// Socket + connect + Hello exchange. `handshake_timeout_s` > 0 bounds
  /// the handshake recv (redials during teardown must not hang Close()).
  static std::unique_ptr<Connection> DialAndHandshake(
      const std::string& host, int port, const Hello& hello,
      std::string* error, double handshake_timeout_s = 0.0);

  /// Reader-thread main: BatchedReadLoop on the live connection; on loss,
  /// redial-and-swap when reconnect is enabled, else exit.
  void ReaderMain();

  /// Guards conn_ replacement on reconnect. Uncontended on the hot path
  /// (the reader only takes it between connections).
  std::mutex conn_mu_;
  std::unique_ptr<Connection> conn_;
  RealtimeSubstrate* substrate_;
  std::shared_ptr<InboundChannel> channel_;
  std::string host_;
  int port_;
  Hello hello_;
  std::uint32_t page_payload_bytes_;
  std::atomic<bool> reconnect_{false};
  std::atomic<bool> closing_{false};
  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<std::uint64_t> disconnected_drops_{0};
  std::thread reader_;
};

/// Server side of the wire: a listener plus one Connection per load shard.
/// Installed as the server Network's Transport, it routes each outbound
/// message into the frame batch of the connection whose Hello claimed the
/// destination client id (batches flushed per calendar step via Flush());
/// each connection's reader thread decodes inbound frames into its own
/// InboundChannel, so the server loop drains per-connection FIFO batches.
/// Connections come and go (ccload runs end while ccserve stays up):
/// messages to a departed client are counted and dropped, exactly like a
/// crashed workstation.
class TcpServerTransport : public net::Transport {
 public:
  /// Binds `bind_host` (empty = all interfaces) and listens on `port`
  /// (0 = ephemeral). `hello` describes this server and is used to
  /// validate every client. Returns nullptr with `error` set on failure.
  static std::unique_ptr<TcpServerTransport> Listen(
      int port, const Hello& hello, RealtimeSubstrate* substrate,
      std::string* error, const std::string& bind_host = std::string());

  ~TcpServerTransport() override;

  /// net::Transport: called on the server loop thread.
  void Deliver(const net::Message& msg) override;

  /// net::Transport: flushes every dirty connection (server loop thread).
  bool Flush() override;

  /// Stops accepting, closes every connection, joins all threads.
  void Close();

  /// Hard server crash: kills every live connection (RST / mid-frame cut).
  /// Clients notice immediately and ride their reconnect machinery.
  /// Server-loop-thread only (scheduled crash events).
  void SeverAll();

  /// Hard partition: kills the connection that routes client `id`.
  /// Server-loop-thread only.
  void SeverClient(int id);

  /// Final outbound drain, called after the event loop has stopped (the
  /// caller is then the sole outbound writer). Retries Flush() until every
  /// connection drains or `seconds` elapse; on deadline the stragglers are
  /// aborted (mid-frame poison), so the peer observes a failed connection
  /// rather than a silently truncated success. Returns true when fully
  /// drained.
  bool DrainOrPoison(double seconds);

  int port() const { return port_; }
  std::uint64_t frames_received() const {
    return frames_received_.load(std::memory_order_relaxed);
  }
  /// Messages dropped because no live connection claimed the destination.
  std::uint64_t unroutable_drops() const {
    return unroutable_drops_.load(std::memory_order_relaxed);
  }
  /// Connections accepted over the server's lifetime.
  std::uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }

 private:
  TcpServerTransport(ScopedFd listen_fd, int port, const Hello& hello,
                     RealtimeSubstrate* substrate);

  void AcceptLoop();
  void ReadLoop(std::shared_ptr<Connection> conn);
  /// Re-copies `routes_` into the loop thread's `route_snapshot_`.
  void RefreshRoutes();

  ScopedFd listen_fd_;
  int port_;
  Hello hello_;
  RealtimeSubstrate* substrate_;

  std::mutex mu_;
  bool closing_ = false;
  /// client id -> the connection that registered it (indexed by id).
  /// Every change bumps `routes_version_` under mu_.
  std::vector<std::shared_ptr<Connection>> routes_;
  std::vector<std::shared_ptr<Connection>> conns_;
  std::vector<std::thread> readers_;
  std::atomic<std::uint64_t> routes_version_{0};

  /// Loop thread's private copy of `routes_`, refreshed when
  /// `routes_version_` moves, so Deliver() routes without taking mu_.
  std::vector<std::shared_ptr<Connection>> route_snapshot_;
  std::uint64_t route_snapshot_version_ = 0;

  /// Connections with queued outbound bytes, awaiting Flush(). Loop
  /// thread only (Deliver and Flush share that thread).
  std::vector<std::shared_ptr<Connection>> dirty_;

  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> unroutable_drops_{0};
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::thread acceptor_;
};

}  // namespace ccsim::substrate

#endif  // CCSIM_SUBSTRATE_TCP_H_
