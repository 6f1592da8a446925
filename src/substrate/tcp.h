#ifndef CCSIM_SUBSTRATE_TCP_H_
#define CCSIM_SUBSTRATE_TCP_H_

#include <atomic>
#include <cstdint>
#include <memory>
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
  /// shutdown(SHUT_RDWR): the peer reads EOF, and so does the loop
  /// watching this socket.
  void ShutdownBoth();

 private:
  int fd_ = -1;
};

/// One framed TCP connection: a socket, its peer's Hello, and the
/// read/write plumbing.
///
/// Threading: a client dials and handshakes (SendRaw/ReadFrame, blocking)
/// on one thread before handing the connection to its substrate loop; a
/// server connection is non-blocking from accept() on and its handshake
/// runs on the server loop. Once on a loop, only the loop thread reads and
/// writes the connection: Fill() then Dispatch() when epoll reports it
/// readable, QueueMessage/Flush for the outbound side. Outbound messages
/// batch into a FrameBuffer and reach the kernel in one vectored,
/// non-blocking sendmsg per flush.
class Connection {
 public:
  /// Pending outbound bytes past this mark poison the connection: the
  /// peer has stalled for so long it is treated as departed.
  static constexpr std::size_t kMaxBufferedBytes = 64u * 1024u * 1024u;

  explicit Connection(ScopedFd fd) : fd_(std::move(fd)) {}

  /// Encodes one Message frame into the outbound batch. Returns false
  /// once the peer is gone (dead or hopelessly backlogged); the message
  /// is dropped like mail to a crashed workstation.
  bool QueueMessage(const net::Message& msg,
                    std::uint32_t page_payload_bytes);

  /// Appends a pre-encoded frame (a server's Hello reply) to the batch.
  void QueueFrame(const std::vector<std::uint8_t>& frame) {
    buffer_.AppendFrame(frame);
  }

  /// Pushes the batch to the kernel without blocking. kAgain leaves the
  /// remainder queued for the next flush; kError marks the peer dead.
  FrameBuffer::FlushResult Flush();

  bool has_pending() const { return buffer_.has_pending(); }

  /// Writes a pre-encoded frame, blocking (handshake only).
  bool SendRaw(const std::vector<std::uint8_t>& bytes);

  /// Blocking read of one length-prefixed frame body (handshake only).
  /// Returns false on EOF/error. `body` is reused across calls.
  bool ReadFrame(std::vector<std::uint8_t>* body);

  /// Ends a client's handshake: the socket turns non-blocking for the loop.
  void SetNonBlocking();

  /// Loop thread: one non-blocking recv() of up to a read chunk into the
  /// connection's FrameSplitter. Returns false once the connection is
  /// finished: EOF or a socket error.
  bool Fill();

  /// Loop thread: peels the next complete received frame (a server reads
  /// its peer's Hello this way, ahead of Dispatch()).
  FrameSplitter::Next NextFrame(const std::uint8_t** body,
                                std::uint32_t* len) {
    return splitter_.NextFrame(body, len);
  }

  /// Loop thread: decodes every complete received frame into a pooled
  /// message and hands it to `substrate`'s sink, in stream order. Returns
  /// false on an oversized frame or a malformed message (reported on
  /// stderr under `who`): the connection is finished.
  bool Dispatch(RealtimeSubstrate* substrate,
                std::uint32_t page_payload_bytes,
                std::atomic<std::uint64_t>* frames_received,
                const char* who);

  void Shutdown() { fd_.ShutdownBoth(); }

  /// Marks the connection dead; the next Flush() discards the outbound
  /// batch.
  void MarkDead() { dead_ = true; }

  /// Hard kill: poisons the connection, discards any partially-flushed
  /// outbound batch (the peer sees a frame cut mid-stream), arms
  /// SO_LINGER(0) so the eventual close() RSTs instead of FIN-ing, and
  /// shuts the socket down, so the loop reads EOF from it. Loop thread, or
  /// after the loop has returned.
  void Abort();

  int fd() const { return fd_.get(); }
  bool dead() const { return dead_; }
  /// True once the peer's Hello has been accepted.
  bool has_peer() const { return has_peer_; }
  const Hello& peer() const { return peer_; }
  void set_peer(const Hello& hello) {
    peer_ = hello;
    has_peer_ = true;
  }

 private:
  bool WriteAll(const std::uint8_t* data, std::size_t len);

  ScopedFd fd_;
  Hello peer_{};
  bool has_peer_ = false;
  FrameBuffer buffer_;
  FrameSplitter splitter_;
  bool dead_ = false;
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
/// The server loop runs every connection's whole life: it accepts, reads
/// the peer's Hello through the connection's splitter (a stalled peer's
/// half-read Hello blocks no one), registers its routes, queues the reply
/// first in its batch, and frees it at EOF or Close(). Connections come
/// and go (ccload runs end while ccserve stays up): messages to a
/// departed client are counted and dropped, exactly like a crashed
/// workstation.
class TcpServerTransport : public net::Transport {
 public:
  /// Binds `bind_host` (empty = all interfaces) and listens on `port`
  /// (0 = ephemeral), watching the listener from `substrate`'s loop.
  /// `hello` describes this server and is used to validate every client.
  /// Returns nullptr with `error` set on failure. Call before the loop
  /// starts; clients handshake once it runs.
  static std::unique_ptr<TcpServerTransport> Listen(
      int port, const Hello& hello, RealtimeSubstrate* substrate,
      std::string* error, const std::string& bind_host = std::string());

  ~TcpServerTransport() override;

  /// net::Transport: called on the server loop thread.
  void Deliver(const net::Message& msg) override;

  /// net::Transport: flushes every dirty connection (server loop thread).
  bool Flush() override;

  /// Stops listening and closes every connection. Call once the server's
  /// loop is not running.
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

  /// Loop thread: accepts every pending connection and watches it.
  void Accept();
  /// Loop thread: reads `conn`; handshakes it first if its Hello is still
  /// due; drops it once it is finished.
  void OnReadable(Connection* conn);
  /// Loop thread: once the peer's Hello has fully arrived, validates it,
  /// registers its routes and replies. Returns false on a rejection.
  bool Handshake(Connection* conn);
  /// Loop thread: stops watching `conn`, forgets its routes and frees it,
  /// closing its socket.
  void Drop(Connection* conn);

  ScopedFd listen_fd_;
  int port_;
  Hello hello_;
  /// This server's Hello frame, encoded once.
  std::vector<std::uint8_t> hello_frame_;
  RealtimeSubstrate* substrate_;

  /// Everything below is loop-thread state (or touched after the loop has
  /// returned).
  std::vector<std::unique_ptr<Connection>> conns_;
  /// client id -> the connection that registered it (indexed by id).
  std::vector<Connection*> routes_;
  /// Connections with queued outbound bytes, awaiting Flush().
  std::vector<Connection*> dirty_;

  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> unroutable_drops_{0};
  std::atomic<std::uint64_t> connections_accepted_{0};
};

}  // namespace ccsim::substrate

#endif  // CCSIM_SUBSTRATE_TCP_H_
