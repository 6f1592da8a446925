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
  /// shutdown(SHUT_RDWR): unblocks a handshake parked in recv().
  void ShutdownBoth();

 private:
  int fd_ = -1;
};

/// One framed TCP connection: a socket, its peer's Hello, and the
/// read/write plumbing.
///
/// Threading: the handshake (SendRaw/ReadFrame, blocking) runs on a single
/// thread before the connection is handed to the substrate loop. Afterwards
/// the socket is non-blocking and only the loop thread reads and writes
/// it: ReadReady() when epoll reports it readable, QueueMessage/Flush for
/// the outbound side. Outbound messages batch into a FrameBuffer and reach
/// the kernel in one vectored, non-blocking sendmsg per flush.
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

  /// Ends the handshake: the socket turns non-blocking for the loop.
  void SetNonBlocking();

  /// Loop thread: one non-blocking recv() of up to a read chunk, then
  /// every complete frame decoded into a pooled message and handed to
  /// `substrate`'s sink, in stream order. Returns false once the connection
  /// is finished: EOF, a socket error, an oversized frame or a malformed
  /// message (the last two reported on stderr under `who`).
  bool ReadReady(RealtimeSubstrate* substrate,
                 std::uint32_t page_payload_bytes,
                 std::atomic<std::uint64_t>* frames_received,
                 const char* who);

  void Shutdown() { fd_.ShutdownBoth(); }

  /// Marks the connection dead without touching the outbound buffer, so it
  /// is safe from any thread (the buffer is loop-thread-only; the next
  /// loop-thread Flush() discards it).
  void MarkDead() { dead_.store(true, std::memory_order_relaxed); }

  /// Hard kill: poisons the connection, discards any partially-flushed
  /// outbound batch (the peer sees a frame cut mid-stream), arms
  /// SO_LINGER(0) so the eventual close() RSTs instead of FIN-ing, and
  /// shuts the socket down, so the loop reads EOF from it. Caller must hold
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
  FrameSplitter splitter_;
  std::atomic<bool> dead_{false};
  std::atomic<bool> writable_;
};

/// Client side of the wire: one connection from a load-generator shard to
/// the page server. Installed as the shard Network's Transport, it queues
/// every outbound message into the connection's frame batch (flushed at
/// each calendar-step boundary via Flush()), and registers the socket as a
/// source of the shard's RealtimeSubstrate, whose loop thread decodes
/// inbound frames straight into the handles its mailboxes receive. A
/// fault-free shard runs on that one thread.
class TcpClientTransport : public net::Transport {
 public:
  /// Connects, exchanges Hellos, and validates the server against `hello`
  /// (algorithm, database size, client-id range). `host` may be an IPv4
  /// literal or a resolvable hostname. Returns nullptr with `error` set
  /// on any failure. Call before `substrate`'s loop starts.
  static std::unique_ptr<TcpClientTransport> Connect(
      const std::string& host, int port, const Hello& hello,
      RealtimeSubstrate* substrate, std::string* error);

  ~TcpClientTransport() override;

  /// net::Transport: called on the shard loop thread.
  void Deliver(const net::Message& msg) override;

  /// net::Transport: flushes the outbound batch (shard loop thread).
  bool Flush() override;

  /// Closes the socket and joins a redial in progress. Call once the
  /// shard's loop is not running.
  void Close();

  /// Opts in to redial-on-disconnect: when the loop loses the connection
  /// it starts one dial thread, which re-dials the server (exponential
  /// backoff, fresh handshake) and hands the new connection, with its
  /// fresh FrameSplitter, back to the loop. Off by default so fault-free
  /// runs keep fail-stop semantics; wiring enables it only when a fault
  /// plan is active. Call before the substrate starts delivering.
  void EnableReconnect() { reconnect_ = true; }

  /// Hard partition: kills the current connection mid-frame (RST). With
  /// reconnect enabled the loop redials; messages queued in between are
  /// counted as disconnected drops. Shard-loop-thread only.
  void AbortConnection() { conn_->Abort(); }

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
  TcpClientTransport(std::shared_ptr<Connection> conn,
                     RealtimeSubstrate* substrate, const std::string& host,
                     int port, const Hello& hello);

  /// Socket + connect + Hello exchange, leaving the socket non-blocking.
  /// `handshake_timeout_s` > 0 bounds the handshake recv (redials during
  /// teardown must not hang Close()).
  static std::shared_ptr<Connection> DialAndHandshake(
      const std::string& host, int port, const Hello& hello,
      std::string* error, double handshake_timeout_s = 0.0);

  /// Loop thread: makes `conn` the live connection and watches its socket.
  void Adopt(std::shared_ptr<Connection> conn);
  /// Loop thread: reads the live connection; on its loss, stops watching
  /// it and, with reconnect enabled, starts the dial thread.
  void OnReadable();
  /// Dial-thread main: redials with backoff until a handshake succeeds
  /// (handing the connection to the loop) or Close() begins.
  void Redial();

  /// The live connection. Loop thread only (and Connect/Close, while the
  /// loop is not running). Shared only so a redial can hand it over in a
  /// PostControl thunk, which must be copyable.
  std::shared_ptr<Connection> conn_;
  RealtimeSubstrate* substrate_;
  std::string host_;
  int port_;
  Hello hello_;
  std::uint32_t page_payload_bytes_;
  bool reconnect_ = false;
  std::atomic<bool> closing_{false};
  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<std::uint64_t> disconnected_drops_{0};
  std::thread dialer_;
};

/// Server side of the wire: a listener plus one Connection per load shard.
/// Installed as the server Network's Transport, it routes each outbound
/// message into the frame batch of the connection whose Hello claimed the
/// destination client id (batches flushed per calendar step via Flush()).
/// An acceptor thread takes each connection and a short-lived handshake
/// thread validates its Hello and registers its routes, so a stalled peer
/// blocks neither further accepts nor the loop; the handshake thread then
/// hands the socket to the server loop (PostControl) and exits. From there
/// the loop thread reads every connection itself, in stream order, and
/// runs its EOF and route cleanup: a fault-free server runs on its loop
/// thread plus the idle acceptor. Connections come and go (ccload runs end
/// while ccserve stays up): messages to a departed client are counted and
/// dropped, exactly like a crashed workstation.
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

  /// Stops accepting, closes every connection, joins all threads. Call
  /// once the server's loop is not running.
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
  /// Handshake-thread main: validates the peer's Hello, registers its
  /// routes, replies, and posts the connection to the loop.
  void Handshake(std::shared_ptr<Connection> conn);
  /// Loop thread: watches an accepted connection's socket.
  void Adopt(Connection* conn);
  /// Loop thread: stops watching a finished connection and forgets it.
  void Drop(Connection* conn);
  /// Clears the routes that still point at `conn`. Takes mu_.
  void ForgetRoutes(const Connection* conn);
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
  std::vector<std::thread> handshakers_;
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
