#ifndef CCSIM_SUBSTRATE_TCP_H_
#define CCSIM_SUBSTRATE_TCP_H_

#include <netinet/in.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/network.h"
#include "substrate/realtime.h"
#include "substrate/wire.h"

namespace ccsim::substrate {

/// How long either end waits for its peer's Hello: a client's Connect for
/// the server's, the server for each accepted peer's.
inline constexpr std::chrono::seconds kHandshakeTimeout{2};

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
/// Threading: the socket is non-blocking from its creation (a client's
/// connect, a server's accept) on, and only its loop thread reads and
/// writes it, handshake included: Fill() then CheckHello() and Dispatch()
/// when epoll reports it readable, QueueFrame/QueueMessage/Flush for the
/// outbound side. Outbound frames batch into a FrameBuffer and reach the
/// kernel in one vectored, non-blocking sendmsg per flush.
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

  /// Appends a pre-encoded frame (this end's Hello) to the batch.
  void QueueFrame(const std::vector<std::uint8_t>& frame) {
    buffer_.AppendFrame(frame);
  }

  /// Pushes the batch to the kernel without blocking. kAgain leaves the
  /// remainder queued for the next flush; kError marks the peer dead.
  FrameBuffer::FlushResult Flush();

  bool has_pending() const { return buffer_.has_pending(); }

  /// Loop thread: one non-blocking recv() of up to a read chunk into the
  /// connection's FrameSplitter. Returns false once the connection is
  /// finished: EOF or a socket error.
  bool Fill();

  /// Loop thread, both ends' one Hello check: once the peer's Hello (the
  /// first received frame) has fully arrived, decodes it and checks it
  /// against `mine` (same protocol, database, client count and page size);
  /// an accepted Hello becomes peer(). Returns false with `error` set on a
  /// rejection, true otherwise: has_peer() tells an accepted Hello from
  /// one still in flight. Call ahead of Dispatch() until has_peer().
  bool CheckHello(const Hello& mine, std::string* error);

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

 private:
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
/// inbound frames straight into the handles its mailboxes receive. It
/// dials, handshakes and redials on that loop too, so a shard is its loop
/// thread alone, with or without reconnect.
class TcpClientTransport : public net::Transport {
 public:
  /// Dials the server, sends `hello` and waits, driving `substrate`'s
  /// sockets with RealtimeSubstrate::Poll (the loop is not running yet),
  /// until the server's Hello is accepted (same algorithm, database size,
  /// client count and page size), the connection fails, or
  /// kHandshakeTimeout passes. `host` may be an IPv4 literal or a
  /// resolvable hostname. Returns nullptr with `error` set on any failure.
  /// Call before `substrate`'s loop starts.
  static std::unique_ptr<TcpClientTransport> Connect(
      const std::string& host, int port, const Hello& hello,
      RealtimeSubstrate* substrate, std::string* error);

  ~TcpClientTransport() override;

  /// net::Transport: called on the shard loop thread. Until the server's
  /// Hello is accepted on the live connection, counts a disconnected drop.
  void Deliver(const net::Message& msg) override;

  /// net::Transport: flushes the outbound batch (shard loop thread).
  bool Flush() override;

  /// Stops watching the socket and shuts it down. Call once the shard's
  /// loop is not running; a redial still pending on its calendar is
  /// dropped unfired when the calendar shuts down.
  void Close();

  /// Opts in to redial-on-disconnect: when the loop loses the connection
  /// it schedules a dial on the shard's calendar (backoff 20 ms, doubling
  /// to 200 ms between failed attempts); the fresh connection, with its
  /// fresh FrameSplitter, handshakes on the loop. Off by default so
  /// fault-free runs keep fail-stop semantics; wiring enables it only in
  /// recovery mode. Call after Connect, before the loop starts.
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
  TcpClientTransport(const sockaddr_in& server, const Hello& hello,
                     RealtimeSubstrate* substrate);

  /// Loop thread (or Connect): replaces the connection with a fresh one,
  /// a non-blocking socket whose connect may still be in progress, queues
  /// this end's Hello first in its batch, flushes it and watches the
  /// socket. A refused connect fails the first flush or reads as EOF.
  /// Returns false, with error_ set, when the connect fails at once.
  bool Dial();
  /// Loop thread: reads the live connection, checking the server's Hello
  /// first while it is due. On the connection's loss, stops watching it,
  /// marks it dead and, with reconnect enabled, schedules the next dial.
  void OnReadable();
  /// Loop thread: checks the server's Hello once it has arrived; a
  /// redial's accepted Hello counts a reconnect. False on a rejection.
  bool Handshake();
  /// Loop thread: dials again after the current backoff, then doubles it.
  void ScheduleDial();

  /// The live connection, or the one handshaking, or (between a loss and
  /// the next dial) the dead one. Loop thread only (and Connect/Close,
  /// while the loop is not running).
  std::unique_ptr<Connection> conn_;
  RealtimeSubstrate* substrate_;
  sockaddr_in server_;
  Hello hello_;
  /// This end's Hello frame, encoded once.
  std::vector<std::uint8_t> hello_frame_;
  bool reconnect_ = false;
  /// The wait before the next redial; 0 while no redial is under way.
  sim::Ticks backoff_ = 0;
  /// Why the last dial or handshake failed (read by Connect).
  std::string error_;
  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<std::uint64_t> disconnected_drops_{0};
};

/// Server side of the wire: a listener plus one Connection per load shard.
/// Installed as the server Network's Transport, it routes each outbound
/// message into the frame batch of the connection whose Hello claimed the
/// destination client id (batches flushed per calendar step via Flush()).
/// The server loop runs every connection's whole life: it accepts, reads
/// the peer's Hello through the connection's splitter (a stalled peer's
/// half-read Hello blocks no one), registers its routes, queues the reply
/// first in its batch, and frees it at EOF, at Close(), or when no Hello
/// has arrived kHandshakeTimeout after the accept. Connections come
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

  /// Loop thread: accepts every pending connection, watches it and puts
  /// its handshake deadline on the loop's calendar.
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
  /// Shared only so a handshake deadline can hold its connection weakly.
  std::vector<std::shared_ptr<Connection>> conns_;
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
