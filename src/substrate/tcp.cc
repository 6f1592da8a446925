#include "substrate/tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

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

/// recv() exactly `len` bytes (retrying short reads and EINTR). Returns
/// false on EOF or a hard error.
bool ReadExact(int fd, std::uint8_t* buf, std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = ::recv(fd, buf + done, len - done, 0);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return false;  // EOF or error
  }
  return true;
}

ScopedFd NewTcpSocket(std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
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

/// Reads and decodes the peer's Hello (the first frame on the wire).
bool ReadHello(Connection* conn, Hello* hello, std::string* error) {
  std::vector<std::uint8_t> body;
  if (!conn->ReadFrame(&body)) {
    *error = "connection closed during handshake";
    return false;
  }
  return DecodeHello(body.data(), body.size(), hello, error);
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

bool Connection::WriteAll(const std::uint8_t* data, std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n =
        ::send(fd_.get(), data + done, len - done, MSG_NOSIGNAL);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    dead_.store(true, std::memory_order_relaxed);
    return false;
  }
  return true;
}

bool Connection::QueueMessage(const net::Message& msg,
                              std::uint32_t page_payload_bytes) {
  if (dead_.load(std::memory_order_relaxed)) {
    return false;
  }
  if (buffer_.pending_bytes() > kMaxBufferedBytes) {
    dead_.store(true, std::memory_order_relaxed);
    buffer_.Clear();
    return false;
  }
  buffer_.AppendMessage(msg, page_payload_bytes);
  return true;
}

FrameBuffer::FlushResult Connection::Flush() {
  if (dead_.load(std::memory_order_relaxed)) {
    buffer_.Clear();
    return FrameBuffer::FlushResult::kError;
  }
  if (!writable_.load(std::memory_order_acquire)) {
    return FrameBuffer::FlushResult::kAgain;  // handshake reply not sent
  }
  const FrameBuffer::FlushResult result = buffer_.Flush(fd_.get());
  if (result == FrameBuffer::FlushResult::kError) {
    dead_.store(true, std::memory_order_relaxed);
  }
  return result;
}

void Connection::Abort() {
  dead_.store(true, std::memory_order_relaxed);
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

bool Connection::SendRaw(const std::vector<std::uint8_t>& bytes) {
  if (dead_.load(std::memory_order_relaxed)) {
    return false;
  }
  return WriteAll(bytes.data(), bytes.size());
}

bool Connection::ReadFrame(std::vector<std::uint8_t>* body) {
  std::uint8_t prefix[4];
  if (!ReadExact(fd_.get(), prefix, sizeof(prefix))) {
    return false;
  }
  const std::uint32_t len = static_cast<std::uint32_t>(prefix[0]) |
                            static_cast<std::uint32_t>(prefix[1]) << 8 |
                            static_cast<std::uint32_t>(prefix[2]) << 16 |
                            static_cast<std::uint32_t>(prefix[3]) << 24;
  if (len > kMaxFrameBytes) {
    dead_.store(true, std::memory_order_relaxed);
    return false;
  }
  body->resize(len);
  return len == 0 || ReadExact(fd_.get(), body->data(), len);
}

void Connection::SetNonBlocking() {
  const int flags = ::fcntl(fd_.get(), F_GETFL, 0);
  ::fcntl(fd_.get(), F_SETFL, flags | O_NONBLOCK);
}

bool Connection::ReadReady(RealtimeSubstrate* substrate,
                           std::uint32_t page_payload_bytes,
                           std::atomic<std::uint64_t>* frames_received,
                           const char* who) {
  std::uint8_t* dst = splitter_.WritableData(kReadChunk);
  const ssize_t n = ::recv(fd_.get(), dst, splitter_.writable_size(), 0);
  if (n <= 0) {
    // EOF, shutdown, or a hard error end the connection; a spurious or
    // interrupted read waits for the next readiness report.
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                     errno == EINTR);
  }
  splitter_.CommitBytes(static_cast<std::size_t>(n));
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

std::shared_ptr<Connection> TcpClientTransport::DialAndHandshake(
    const std::string& host, int port, const Hello& hello,
    std::string* error, double handshake_timeout_s) {
  ScopedFd fd = NewTcpSocket(error);
  if (!fd.valid()) {
    return nullptr;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (!ResolveV4(host, &addr.sin_addr)) {
    *error = "cannot resolve host '" + host + "'";
    return nullptr;
  }
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    return nullptr;
  }
  if (handshake_timeout_s > 0) {
    // Bound the handshake recv so a redial racing teardown cannot park the
    // dial thread forever (Close() joins it).
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(handshake_timeout_s);
    tv.tv_usec = static_cast<suseconds_t>(
        (handshake_timeout_s - static_cast<double>(tv.tv_sec)) * 1e6);
    ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  auto conn = std::make_shared<Connection>(std::move(fd));
  std::vector<std::uint8_t> frame;
  EncodeHello(hello, &frame);
  if (!conn->SendRaw(frame)) {
    *error = "connection closed during handshake";
    return nullptr;
  }
  Hello server_hello;
  if (!ReadHello(conn.get(), &server_hello, error)) {
    *error = error->empty() ? "connection closed during handshake" : *error;
    return nullptr;
  }
  if (!HellosCompatible(hello, server_hello, error)) {
    return nullptr;
  }
  conn->set_peer(server_hello);
  conn->SetNonBlocking();
  return conn;
}

std::unique_ptr<TcpClientTransport> TcpClientTransport::Connect(
    const std::string& host, int port, const Hello& hello,
    RealtimeSubstrate* substrate, std::string* error) {
  std::shared_ptr<Connection> conn =
      DialAndHandshake(host, port, hello, error);
  if (conn == nullptr) {
    return nullptr;
  }
  return std::unique_ptr<TcpClientTransport>(new TcpClientTransport(
      std::move(conn), substrate, host, port, hello));
}

TcpClientTransport::TcpClientTransport(std::shared_ptr<Connection> conn,
                                       RealtimeSubstrate* substrate,
                                       const std::string& host, int port,
                                       const Hello& hello)
    : substrate_(substrate), host_(host), port_(port), hello_(hello),
      page_payload_bytes_(hello.page_payload_bytes) {
  Adopt(std::move(conn));
}

TcpClientTransport::~TcpClientTransport() { Close(); }

void TcpClientTransport::Adopt(std::shared_ptr<Connection> conn) {
  // A fresh Connection brings a fresh FrameSplitter: a mid-frame cut on
  // the old connection cannot corrupt the new stream's framing.
  conn_ = std::move(conn);
  substrate_->AddSource(conn_->fd(), [this] { OnReadable(); });
}

void TcpClientTransport::OnReadable() {
  if (conn_->ReadReady(substrate_, page_payload_bytes_, &frames_received_,
                       "ccload")) {
    return;
  }
  substrate_->RemoveSource(conn_->fd());
  if (!reconnect_) {
    return;
  }
  // Connection lost under an active fault plan: poison it so Deliver
  // counts queued messages as disconnected drops, then redial. The last
  // dial thread handed its connection over before exiting.
  conn_->MarkDead();
  if (dialer_.joinable()) {
    dialer_.join();
  }
  dialer_ = std::thread([this] { Redial(); });
}

void TcpClientTransport::Redial() {
  int backoff_ms = 20;
  while (!closing_.load(std::memory_order_acquire)) {
    std::string error;
    std::shared_ptr<Connection> fresh = DialAndHandshake(
        host_, port_, hello_, &error, /*handshake_timeout_s=*/2.0);
    if (fresh != nullptr) {
      substrate_->PostControl([this, fresh] {
        Adopt(fresh);
        reconnects_.fetch_add(1, std::memory_order_relaxed);
      });
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    backoff_ms = std::min(backoff_ms * 2, 200);
  }
}

void TcpClientTransport::Deliver(const net::Message& msg) {
  if (!conn_->QueueMessage(msg, page_payload_bytes_)) {
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
  closing_.store(true, std::memory_order_release);
  if (dialer_.joinable()) {
    dialer_.join();
  }
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
  routes_.resize(hello_.num_clients > 0 ? hello_.num_clients : 0);
  acceptor_ = std::thread([this] { AcceptLoop(); });
}

TcpServerTransport::~TcpServerTransport() { Close(); }

void TcpServerTransport::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_.get(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;  // listener shut down
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>(ScopedFd(fd),
                                             /*writable=*/false);
    std::lock_guard<std::mutex> lock(mu_);
    if (closing_) {
      conn->Shutdown();
      return;
    }
    conns_.push_back(conn);
    // The handshake runs on its own thread so a stalled peer cannot block
    // further accepts.
    handshakers_.emplace_back([this, conn] { Handshake(conn); });
  }
}

void TcpServerTransport::Handshake(std::shared_ptr<Connection> conn) {
  Hello client_hello;
  std::string error;
  if (!ReadHello(conn.get(), &client_hello, &error) ||
      !HellosCompatible(hello_, client_hello, &error)) {
    std::fprintf(stderr, "ccserve: rejected connection: %s\n", error.c_str());
    conn->Shutdown();
    return;
  }
  if (client_hello.client_lo < 0 ||
      client_hello.client_hi <= client_hello.client_lo ||
      client_hello.client_hi > hello_.num_clients) {
    std::fprintf(stderr,
                 "ccserve: rejected connection: client range [%d, %d) "
                 "outside the configured 0..%d\n",
                 client_hello.client_lo, client_hello.client_hi,
                 hello_.num_clients);
    conn->Shutdown();
    return;
  }
  conn->set_peer(client_hello);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int id = client_hello.client_lo; id < client_hello.client_hi;
         ++id) {
      if (routes_[id] != nullptr && !routes_[id]->dead()) {
        std::fprintf(stderr,
                     "ccserve: rejected connection: client id %d already "
                     "connected\n",
                     id);
        conn->Shutdown();
        return;
      }
    }
    for (int id = client_hello.client_lo; id < client_hello.client_hi;
         ++id) {
      routes_[id] = conn;
    }
    routes_version_.fetch_add(1, std::memory_order_release);
  }
  // Routes go live before the Hello reply, so a client whose Connect has
  // returned is already routable. Frames queued meanwhile wait: Flush()
  // holds them until OpenForWrites(), so nothing precedes the reply on the
  // wire, and the blocking send runs without mu_.
  std::vector<std::uint8_t> frame;
  EncodeHello(hello_, &frame);
  const bool replied = conn->SendRaw(frame);
  conn->OpenForWrites();
  if (!replied) {
    conn->Shutdown();
    ForgetRoutes(conn.get());
    return;
  }
  connections_accepted_.fetch_add(1, std::memory_order_relaxed);
  conn->SetNonBlocking();
  // conns_ keeps the connection (and its fd) alive until Close().
  substrate_->PostControl([this, c = conn.get()] { Adopt(c); });
}

void TcpServerTransport::Adopt(Connection* conn) {
  substrate_->AddSource(conn->fd(), [this, conn] {
    if (!conn->ReadReady(substrate_, hello_.page_payload_bytes,
                         &frames_received_, "ccserve")) {
      Drop(conn);
    }
  });
}

void TcpServerTransport::Drop(Connection* conn) {
  substrate_->RemoveSource(conn->fd());
  conn->Shutdown();
  ForgetRoutes(conn);
}

void TcpServerTransport::ForgetRoutes(const Connection* conn) {
  std::lock_guard<std::mutex> lock(mu_);
  for (int id = conn->peer().client_lo; id < conn->peer().client_hi; ++id) {
    if (routes_[id].get() == conn) {
      routes_[id].reset();
    }
  }
  routes_version_.fetch_add(1, std::memory_order_release);
}

void TcpServerTransport::RefreshRoutes() {
  std::lock_guard<std::mutex> lock(mu_);
  route_snapshot_ = routes_;
  route_snapshot_version_ = routes_version_.load(std::memory_order_relaxed);
}

void TcpServerTransport::Deliver(const net::Message& msg) {
  if (routes_version_.load(std::memory_order_acquire) !=
      route_snapshot_version_) {
    RefreshRoutes();
  }
  const std::size_t dst = static_cast<std::size_t>(msg.dst);
  Connection* conn = msg.dst >= 0 && dst < route_snapshot_.size()
                         ? route_snapshot_[dst].get()
                         : nullptr;
  const bool was_pending = conn != nullptr && conn->has_pending();
  if (conn == nullptr ||
      !conn->QueueMessage(msg, hello_.page_payload_bytes)) {
    // The destination hung up (a finished or killed load run): the message
    // dies like mail to a crashed workstation.
    unroutable_drops_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (!was_pending) {
    dirty_.push_back(route_snapshot_[dst]);
  }
}

bool TcpServerTransport::Flush() {
  if (dirty_.empty()) {
    return true;
  }
  std::size_t keep = 0;
  for (std::size_t i = 0; i < dirty_.size(); ++i) {
    if (dirty_[i]->Flush() == FrameBuffer::FlushResult::kAgain) {
      dirty_[keep++] = std::move(dirty_[i]);
    }
  }
  dirty_.resize(keep);
  return dirty_.empty();
}

void TcpServerTransport::SeverAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& conn : conns_) {
    if (!conn->dead()) {
      conn->Abort();
    }
  }
}

void TcpServerTransport::SeverClient(int id) {
  std::shared_ptr<Connection> conn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (id >= 0 && id < static_cast<int>(routes_.size())) {
      conn = routes_[id];
    }
  }
  if (conn != nullptr) {
    conn->Abort();
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
      for (auto& conn : dirty_) {
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
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closing_) {
      return;
    }
    closing_ = true;  // the acceptor starts no handshake from here on
  }
  listen_fd_.ShutdownBoth();
  if (acceptor_.joinable()) {
    acceptor_.join();
  }
  std::vector<std::thread> handshakers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& conn : conns_) {
      substrate_->RemoveSource(conn->fd());
      conn->Shutdown();  // ejects a handshake parked in recv()
    }
    handshakers.swap(handshakers_);
  }
  for (std::thread& t : handshakers) {
    t.join();
  }
  dirty_.clear();
  route_snapshot_.clear();
}

}  // namespace ccsim::substrate