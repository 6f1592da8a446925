#include "substrate/tcp.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <utility>

#include "util/macros.h"

namespace ccsim::substrate {
namespace {

/// Bytes asked of each recv(): big enough that a busy socket yields
/// dozens of frames per syscall.
constexpr std::size_t kReadChunk = 128 * 1024;

/// The first redial waits this long; each failed attempt doubles the wait
/// up to kMaxBackoff.
constexpr sim::Ticks kFirstBackoff = 20 * sim::kTicksPerSecond / 1000;
constexpr sim::Ticks kMaxBackoff = 200 * sim::kTicksPerSecond / 1000;

/// kHandshakeTimeout on the loop's calendar.
constexpr sim::Ticks kHandshakeTicks =
    kHandshakeTimeout.count() * sim::kTicksPerSecond;

/// A non-blocking TCP socket: both ends' loops read and write their
/// sockets without ever blocking.
ScopedFd NewTcpSocket(std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return ScopedFd();
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return ScopedFd(fd);
}

/// Resolves an IPv4 literal or hostname (getaddrinfo), so ccload/ccserve
/// can cross real hosts, not just loopback.
bool ResolveV4(const std::string& host, in_addr* out) {
  if (host.empty() || host == "localhost") {
    out->s_addr = htonl(INADDR_LOOPBACK);
    return true;
  }
  if (::inet_pton(AF_INET, host.c_str(), out) == 1) {
    return true;
  }
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  if (::getaddrinfo(host.c_str(), nullptr, &hints, &res) != 0 ||
      res == nullptr) {
    return false;
  }
  *out = reinterpret_cast<sockaddr_in*>(res->ai_addr)->sin_addr;
  ::freeaddrinfo(res);
  return true;
}

/// Exchange validation shared by both ends: the per-run parameters both
/// sides derive state from must agree, or page ids and protocol actions
/// would silently mean different things.
bool HellosCompatible(const Hello& mine, const Hello& theirs,
                      std::string* error) {
  if (theirs.algorithm != mine.algorithm || theirs.caching != mine.caching) {
    *error = "peer runs a different consistency protocol";
    return false;
  }
  if (theirs.total_pages != mine.total_pages) {
    *error = "peer disagrees about the database size";
    return false;
  }
  if (theirs.num_clients != mine.num_clients) {
    *error = "peer disagrees about the total client count";
    return false;
  }
  if (theirs.page_payload_bytes != mine.page_payload_bytes) {
    *error = "peer disagrees about the page size";
    return false;
  }
  return true;
}

}  // namespace

void ScopedFd::Reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void ScopedFd::ShutdownBoth() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
  }
}

bool Connection::QueueMessage(const net::Message& msg,
                              std::uint32_t page_payload_bytes) {
  if (dead_) {
    return false;
  }
  if (buffer_.pending_bytes() > kMaxBufferedBytes) {
    dead_ = true;
    buffer_.Clear();
    return false;
  }
  buffer_.AppendMessage(msg, page_payload_bytes);
  return true;
}

FrameBuffer::FlushResult Connection::Flush() {
  if (dead_) {
    buffer_.Clear();
    return FrameBuffer::FlushResult::kError;
  }
  const FrameBuffer::FlushResult result = buffer_.Flush(fd_.get());
  if (result == FrameBuffer::FlushResult::kError) {
    dead_ = true;
  }
  return result;
}

void Connection::Abort() {
  dead_ = true;
  // Discard the outbound batch even mid-frame: the peer's splitter is left
  // holding a partial frame, exactly the failure a yanked cable produces.
  buffer_.Clear();
  if (fd_.valid()) {
    // Linger(0) turns the eventual close() into an RST; unread peer data
    // also RSTs on many stacks. Either way the peer sees a hard failure,
    // never a clean EOF that could be mistaken for an orderly goodbye.
    struct linger hard {};
    hard.l_onoff = 1;
    hard.l_linger = 0;
    ::setsockopt(fd_.get(), SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
  }
  fd_.ShutdownBoth();
}

bool Connection::Fill() {
  std::uint8_t* dst = splitter_.WritableData(kReadChunk);
  const ssize_t n = ::recv(fd_.get(), dst, splitter_.writable_size(), 0);
  if (n <= 0) {
    // EOF, shutdown, or a hard error end the connection; a spurious or
    // interrupted read waits for the next readiness report.
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                     errno == EINTR);
  }
  splitter_.CommitBytes(static_cast<std::size_t>(n));
  return true;
}

bool Connection::CheckHello(const Hello& mine, std::string* error) {
  const std::uint8_t* body = nullptr;
  std::uint32_t len = 0;
  const FrameSplitter::Next state = splitter_.NextFrame(&body, &len);
  if (state == FrameSplitter::Next::kNeedMore) {
    return true;  // the rest of the Hello is still in flight
  }
  if (state == FrameSplitter::Next::kBad) {
    *error = "connection closed during handshake";
    return false;
  }
  Hello hello;
  if (!DecodeHello(body, len, &hello, error) ||
      !HellosCompatible(mine, hello, error)) {
    return false;
  }
  peer_ = hello;
  has_peer_ = true;
  return true;
}

bool Connection::Dispatch(RealtimeSubstrate* substrate,
                          std::uint32_t page_payload_bytes,
                          std::atomic<std::uint64_t>* frames_received,
                          const char* who) {
  std::uint64_t frames = 0;
  const std::uint8_t* body = nullptr;
  std::uint32_t len = 0;
  FrameSplitter::Next state;
  std::string error;
  while ((state = splitter_.NextFrame(&body, &len)) ==
         FrameSplitter::Next::kFrame) {
    auto msg = std::make_unique<net::Message>();
    if (!DecodeMessage(body, len, page_payload_bytes, msg.get(), &error)) {
      break;
    }
    substrate->Receive(std::move(msg));
    ++frames;
  }
  frames_received->fetch_add(frames, std::memory_order_relaxed);
  if (state == FrameSplitter::Next::kFrame) {
    std::fprintf(stderr, "%s: dropping connection: %s\n", who,
                 error.c_str());
    return false;
  }
  if (state == FrameSplitter::Next::kBad) {
    std::fprintf(stderr, "%s: dropping connection: oversized frame\n", who);
    return false;
  }
  return true;
}

// --- client ---------------------------------------------------------------

std::unique_ptr<TcpClientTransport> TcpClientTransport::Connect(
    const std::string& host, int port, const Hello& hello,
    RealtimeSubstrate* substrate, std::string* error) {
  sockaddr_in server{};
  server.sin_family = AF_INET;
  server.sin_port = htons(static_cast<std::uint16_t>(port));
  if (!ResolveV4(host, &server.sin_addr)) {
    *error = "cannot resolve host '" + host + "'";
    return nullptr;
  }
  std::unique_ptr<TcpClientTransport> transport(
      new TcpClientTransport(server, hello, substrate));
  const auto deadline = std::chrono::steady_clock::now() + kHandshakeTimeout;
  // The loop's sockets, driven here by hand: the server's Hello arrives
  // through the connection's source callback, and a failure sets error_.
  transport->Dial();
  while (transport->error_.empty() && !transport->conn_->has_peer()) {
    const auto left = deadline - std::chrono::steady_clock::now();
    if (left <= decltype(left)::zero()) {
      transport->error_ = "no Hello from the server within " +
                          std::to_string(kHandshakeTimeout.count()) + " s";
      break;
    }
    // A Hello still buffered (a connect in progress) is re-flushed on the
    // loop's stuck-batch cadence.
    substrate->Poll(
        transport->Flush()
            ? std::chrono::duration_cast<std::chrono::microseconds>(left)
                  .count()
            : RealtimeSubstrate::kStuckFlushRetryTicks);
  }
  if (!transport->conn_->has_peer()) {
    *error = transport->error_;
    return nullptr;
  }
  return transport;
}

TcpClientTransport::TcpClientTransport(const sockaddr_in& server,
                                       const Hello& hello,
                                       RealtimeSubstrate* substrate)
    : substrate_(substrate), server_(server), hello_(hello) {
  EncodeHello(hello_, &hello_frame_);
}

TcpClientTransport::~TcpClientTransport() { Close(); }

bool TcpClientTransport::Dial() {
  // A fresh Connection brings a fresh FrameSplitter: a mid-frame cut on
  // the old connection cannot corrupt the new stream's framing.
  conn_ = std::make_shared<Connection>(NewTcpSocket(&error_));
  if (conn_->fd() < 0) {
    conn_->MarkDead();
    return false;
  }
  if (::connect(conn_->fd(), reinterpret_cast<const sockaddr*>(&server_),
                sizeof(server_)) != 0 &&
      errno != EINPROGRESS) {
    error_ = std::string("connect: ") + std::strerror(errno);
    conn_->MarkDead();
    return false;
  }
  conn_->QueueFrame(hello_frame_);
  if (conn_->Flush() == FrameBuffer::FlushResult::kError) {
    // On loopback a refused connect fails here; the socket then reads EOF.
    error_ = std::string("connect: ") + std::strerror(errno);
  }
  substrate_->AddSource(conn_->fd(), [this] { OnReadable(); });
  return true;
}

void TcpClientTransport::OnReadable() {
  if (conn_->Fill() && (conn_->has_peer() || Handshake()) &&
      conn_->Dispatch(substrate_, hello_.page_payload_bytes,
                      &frames_received_, "ccload")) {
    return;
  }
  if (!conn_->has_peer() && error_.empty()) {
    error_ = "connection closed during handshake";
  }
  // Poison the connection so Deliver counts queued messages as
  // disconnected drops.
  substrate_->RemoveSource(conn_->fd());
  conn_->MarkDead();
  if (reconnect_) {
    ScheduleDial();
  }
}

bool TcpClientTransport::Handshake() {
  if (!conn_->CheckHello(hello_, &error_)) {
    return false;
  }
  if (conn_->has_peer() && backoff_ > 0) {
    backoff_ = 0;
    reconnects_.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

void TcpClientTransport::ScheduleDial() {
  backoff_ =
      backoff_ == 0 ? kFirstBackoff : std::min(2 * backoff_, kMaxBackoff);
  sim::Simulator& calendar = substrate_->sim();
  calendar.ScheduleAfter(backoff_, [this, &calendar] {
    if (!Dial()) {
      ScheduleDial();
      return;
    }
    // The redial's handshake deadline. The entry holds the connection
    // weakly, so a later dial's connection is never touched, and it leaves
    // a dead one to OnReadable, which reads its end and dials again.
    const sim::Ticks due =
        std::max(calendar.Now(), substrate_->WallTicks()) + kHandshakeTicks;
    calendar.ScheduleAt(due, [this, weak = std::weak_ptr(conn_)] {
      const std::shared_ptr<Connection> late = weak.lock();
      if (late != nullptr && !late->has_peer() && !late->dead()) {
        substrate_->RemoveSource(late->fd());
        late->MarkDead();
        ScheduleDial();
      }
    });
  });
}

void TcpClientTransport::Deliver(const net::Message& msg) {
  if (!conn_->has_peer() ||
      !conn_->QueueMessage(msg, hello_.page_payload_bytes)) {
    disconnected_drops_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool TcpClientTransport::Flush() {
  if (!conn_->has_pending()) {
    return true;
  }
  return conn_->Flush() != FrameBuffer::FlushResult::kAgain;
}

void TcpClientTransport::Close() {
  substrate_->RemoveSource(conn_->fd());
  conn_->Shutdown();
}

// --- server ---------------------------------------------------------------

std::unique_ptr<TcpServerTransport> TcpServerTransport::Listen(
    int port, const Hello& hello, RealtimeSubstrate* substrate,
    std::string* error, const std::string& bind_host) {
  ScopedFd fd = NewTcpSocket(error);
  if (!fd.valid()) {
    return nullptr;
  }
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  if (bind_host.empty()) {
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
  } else if (!ResolveV4(bind_host, &addr.sin_addr)) {
    *error = "cannot resolve bind address '" + bind_host + "'";
    return nullptr;
  }
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    *error = std::string("bind: ") + std::strerror(errno);
    return nullptr;
  }
  if (::listen(fd.get(), 64) != 0) {
    *error = std::string("listen: ") + std::strerror(errno);
    return nullptr;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) != 0) {
    *error = std::string("getsockname: ") + std::strerror(errno);
    return nullptr;
  }
  const int bound_port = ntohs(addr.sin_port);
  return std::unique_ptr<TcpServerTransport>(
      new TcpServerTransport(std::move(fd), bound_port, hello, substrate));
}

TcpServerTransport::TcpServerTransport(ScopedFd listen_fd, int port,
                                       const Hello& hello,
                                       RealtimeSubstrate* substrate)
    : listen_fd_(std::move(listen_fd)), port_(port), hello_(hello),
      substrate_(substrate) {
  EncodeHello(hello_, &hello_frame_);
  routes_.resize(hello_.num_clients > 0 ? hello_.num_clients : 0);
  substrate_->AddSource(listen_fd_.get(), [this] { Accept(); });
}

TcpServerTransport::~TcpServerTransport() { Close(); }

void TcpServerTransport::Accept() {
  for (;;) {
    const int fd = ::accept4(listen_fd_.get(), nullptr, nullptr,
                             SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;  // backlog empty
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    conns_.push_back(std::make_shared<Connection>(ScopedFd(fd)));
    Connection* conn = conns_.back().get();
    substrate_->AddSource(fd, [this, conn] { OnReadable(conn); });
    // The loop reads its sockets before it advances the calendar, so the
    // clock may trail the wall here: the deadline counts from the wall.
    // The entry holds the connection weakly, so one freed before it fires
    // (and any new one at its address) is left alone.
    sim::Simulator& calendar = substrate_->sim();
    const sim::Ticks due =
        std::max(calendar.Now(), substrate_->WallTicks()) + kHandshakeTicks;
    calendar.ScheduleAt(due, [this, weak = std::weak_ptr(conns_.back())] {
      const std::shared_ptr<Connection> late = weak.lock();
      if (late != nullptr && !late->has_peer()) {
        std::fprintf(stderr,
                     "ccserve: rejected connection: no Hello within %lld s\n",
                     static_cast<long long>(kHandshakeTimeout.count()));
        Drop(late.get());
      }
    });
  }
}

void TcpServerTransport::OnReadable(Connection* conn) {
  if (!conn->Fill()) {
    if (!conn->has_peer()) {
      std::fprintf(stderr,
                   "ccserve: rejected connection: connection closed during "
                   "handshake\n");
    }
    Drop(conn);
    return;
  }
  if ((!conn->has_peer() && !Handshake(conn)) ||
      !conn->Dispatch(substrate_, hello_.page_payload_bytes,
                      &frames_received_, "ccserve")) {
    Drop(conn);
  }
}

bool TcpServerTransport::Handshake(Connection* conn) {
  std::string error;
  if (!conn->CheckHello(hello_, &error)) {
    std::fprintf(stderr, "ccserve: rejected connection: %s\n", error.c_str());
    return false;
  }
  if (!conn->has_peer()) {
    return true;
  }
  const Hello& client_hello = conn->peer();
  if (client_hello.client_lo < 0 ||
      client_hello.client_hi <= client_hello.client_lo ||
      client_hello.client_hi > hello_.num_clients) {
    std::fprintf(stderr,
                 "ccserve: rejected connection: client range [%d, %d) "
                 "outside the configured 0..%d\n",
                 client_hello.client_lo, client_hello.client_hi,
                 hello_.num_clients);
    return false;
  }
  for (int id = client_hello.client_lo; id < client_hello.client_hi; ++id) {
    if (routes_[id] != nullptr && !routes_[id]->dead()) {
      std::fprintf(stderr,
                   "ccserve: rejected connection: client id %d already "
                   "connected\n",
                   id);
      return false;
    }
  }
  for (int id = client_hello.client_lo; id < client_hello.client_hi; ++id) {
    routes_[id] = conn;
  }
  // The reply is the first frame in the batch, ahead of anything Deliver
  // queues, and goes out now: the client's Connect is waiting for it.
  conn->QueueFrame(hello_frame_);
  dirty_.push_back(conn);
  Flush();
  connections_accepted_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void TcpServerTransport::Drop(Connection* conn) {
  substrate_->RemoveSource(conn->fd());
  // A rejected peer's range may lie outside the table: scan it whole.
  std::replace(routes_.begin(), routes_.end(), conn,
               static_cast<Connection*>(nullptr));
  std::erase(dirty_, conn);
  std::erase_if(conns_, [conn](const std::shared_ptr<Connection>& c) {
    return c.get() == conn;
  });
}

void TcpServerTransport::Deliver(const net::Message& msg) {
  const std::size_t dst = static_cast<std::size_t>(msg.dst);
  Connection* conn =
      msg.dst >= 0 && dst < routes_.size() ? routes_[dst] : nullptr;
  const bool was_pending = conn != nullptr && conn->has_pending();
  if (conn == nullptr ||
      !conn->QueueMessage(msg, hello_.page_payload_bytes)) {
    // The destination hung up (a finished or killed load run): the message
    // dies like mail to a crashed workstation.
    unroutable_drops_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (!was_pending) {
    dirty_.push_back(conn);
  }
}

bool TcpServerTransport::Flush() {
  if (dirty_.empty()) {
    return true;
  }
  std::size_t keep = 0;
  for (Connection* conn : dirty_) {
    if (conn->Flush() == FrameBuffer::FlushResult::kAgain) {
      dirty_[keep++] = conn;
    }
  }
  dirty_.resize(keep);
  return dirty_.empty();
}

void TcpServerTransport::SeverAll() {
  for (auto& conn : conns_) {
    if (!conn->dead()) {
      conn->Abort();
    }
  }
}

void TcpServerTransport::SeverClient(int id) {
  if (id >= 0 && id < static_cast<int>(routes_.size()) &&
      routes_[id] != nullptr) {
    routes_[id]->Abort();
  }
}

bool TcpServerTransport::DrainOrPoison(double seconds) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds));
  while (!Flush()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      // The peers still attached here have not drained within the grace
      // period: poison them so they observe a failed connection, never a
      // silently truncated stream passed off as success.
      for (Connection* conn : dirty_) {
        conn->Abort();
      }
      dirty_.clear();
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

void TcpServerTransport::Close() {
  substrate_->RemoveSource(listen_fd_.get());
  listen_fd_.Reset();
  for (auto& conn : conns_) {
    substrate_->RemoveSource(conn->fd());
  }
  dirty_.clear();
  std::fill(routes_.begin(), routes_.end(), nullptr);
  conns_.clear();
}

}  // namespace ccsim::substrate
