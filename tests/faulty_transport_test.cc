// The wire under connection faults (DESIGN.md §5c):
//
//   - FrameSplitter treats a mid-frame connection cut as "need more
//     bytes", never as a bogus frame, and a fresh splitter (what a
//     reconnect gets) resyncs on the re-sent stream;
//   - TcpServerTransport::DrainOrPoison either completes an interrupted
//     flush or poisons the dirty connections within its deadline — a
//     SIGTERM mid-flush cannot wedge shutdown or emit a torn frame.
//
// The planned message faults (drop, duplicate, delay spike, crash and
// partition windows) act in net::Network on both substrates; their wire
// cases are in network_test.cc.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/message.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "substrate/realtime.h"
#include "substrate/tcp.h"
#include "substrate/wire.h"

namespace ccsim {
namespace {

net::Message SeqMessage(std::uint64_t seq, int src = 0,
                        int dst = net::kServerNode) {
  net::Message msg;
  msg.type = net::MsgType::kNoWaitLock;
  msg.src = src;
  msg.dst = dst;
  msg.seq = seq;
  return msg;
}

// --- FrameSplitter under connection cuts -----------------------------------

std::vector<std::uint8_t> EncodedFrames(int count) {
  std::vector<std::uint8_t> bytes;
  for (int i = 0; i < count; ++i) {
    net::Message msg = SeqMessage(static_cast<std::uint64_t>(i));
    substrate::EncodeMessage(msg, /*page_payload_bytes=*/0, &bytes);
  }
  return bytes;
}

void Feed(substrate::FrameSplitter* splitter, const std::uint8_t* data,
          std::size_t len) {
  std::uint8_t* dst = splitter->WritableData(len);
  std::memcpy(dst, data, len);
  splitter->CommitBytes(len);
}

// A mid-frame cut (RST, hard partition, server crash) leaves the splitter
// holding a prefix of a frame: that must parse as kNeedMore — incomplete,
// not corrupt — and whole frames before the cut still come out.
TEST(FrameSplitterCutTest, MidFrameCutYieldsCompleteFramesThenNeedMore) {
  const std::vector<std::uint8_t> bytes = EncodedFrames(2);
  substrate::FrameSplitter splitter;
  // Deliver frame 1 whole plus roughly half of frame 2, then "cut".
  const std::size_t cut = bytes.size() / 2 + bytes.size() / 4;
  Feed(&splitter, bytes.data(), cut);

  const std::uint8_t* body = nullptr;
  std::uint32_t len = 0;
  ASSERT_EQ(splitter.NextFrame(&body, &len),
            substrate::FrameSplitter::Next::kFrame);
  net::Message decoded;
  std::string error;
  ASSERT_TRUE(substrate::DecodeMessage(body, len, 0, &decoded, &error))
      << error;
  EXPECT_EQ(decoded.seq, 0u);
  EXPECT_EQ(splitter.NextFrame(&body, &len),
            substrate::FrameSplitter::Next::kNeedMore);
  EXPECT_FALSE(splitter.Empty());  // the torn prefix is still buffered
}

// After a cut, the reconnect path hands the stream to a FRESH splitter
// (BatchedReadLoop constructs its own): the re-sent stream must decode
// from the first byte, unpolluted by the abandoned prefix.
TEST(FrameSplitterCutTest, FreshSplitterResyncsAfterReconnect) {
  const std::vector<std::uint8_t> bytes = EncodedFrames(3);
  {
    substrate::FrameSplitter torn;
    Feed(&torn, bytes.data(), 5);  // cut inside the first length prefix
    const std::uint8_t* body = nullptr;
    std::uint32_t len = 0;
    EXPECT_EQ(torn.NextFrame(&body, &len),
              substrate::FrameSplitter::Next::kNeedMore);
  }  // connection dies; splitter abandoned with it

  substrate::FrameSplitter fresh;
  Feed(&fresh, bytes.data(), bytes.size());
  int frames = 0;
  const std::uint8_t* body = nullptr;
  std::uint32_t len = 0;
  while (fresh.NextFrame(&body, &len) ==
         substrate::FrameSplitter::Next::kFrame) {
    net::Message decoded;
    std::string error;
    ASSERT_TRUE(substrate::DecodeMessage(body, len, 0, &decoded, &error));
    EXPECT_EQ(decoded.seq, static_cast<std::uint64_t>(frames));
    ++frames;
  }
  EXPECT_EQ(frames, 3);
  EXPECT_TRUE(fresh.Empty());
}

TEST(FrameSplitterCutTest, GarbageLengthPrefixIsBadNotFatal) {
  substrate::FrameSplitter splitter;
  const std::uint8_t garbage[4] = {0xff, 0xff, 0xff, 0xff};  // 4 GiB frame
  Feed(&splitter, garbage, sizeof(garbage));
  const std::uint8_t* body = nullptr;
  std::uint32_t len = 0;
  EXPECT_EQ(splitter.NextFrame(&body, &len),
            substrate::FrameSplitter::Next::kBad);
}

// --- DrainOrPoison: SIGTERM during an incomplete flush ----------------------

// A peer that connects, handshakes, and then never reads: the kernel
// buffers fill, Flush() sticks at kAgain, and a shutdown must poison the
// connection within its deadline instead of spinning forever (or leaking
// a torn frame by giving up mid-write: Abort discards whole frames and
// RSTs, so the peer sees a cut, never a prefix).
TEST(DrainOrPoisonTest, PoisonsWedgedConnectionWithinDeadline) {
  sim::Simulator server_sim;
  substrate::RealtimeSubstrate server_sub(&server_sim);
  server_sub.set_message_sink([](net::MessagePtr) {});

  substrate::Hello hello;
  hello.algorithm = 0;
  hello.caching = 0;
  hello.total_pages = 1000;
  hello.num_clients = 2;
  hello.page_payload_bytes = 256 * 1024;  // big frames fill buffers fast
  std::string error;
  auto server =
      substrate::TcpServerTransport::Listen(0, hello, &server_sub, &error);
  ASSERT_NE(server, nullptr) << error;

  // Raw-socket peer: handshakes like ccload, then goes silent.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(server->port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  substrate::Hello client_hello = hello;
  client_hello.client_lo = 0;
  client_hello.client_hi = 2;
  std::vector<std::uint8_t> frame;
  substrate::EncodeHello(client_hello, &frame);
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (server->connections_accepted() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    server_sub.Run(sim::kTicksPerSecond / 500);  // accepts and handshakes
  }
  ASSERT_EQ(server->connections_accepted(), 1u);

  // Queue far more page traffic than the kernel buffers will take. (We are
  // the loop thread: the Run slices above have returned.)
  net::Message page = SeqMessage(1, net::kServerNode, /*dst=*/0);
  page.type = net::MsgType::kReadReply;
  page.data_pages.push_back(1);
  page.data_versions.push_back(1);
  // 192 x 256 KiB = 48 MiB: far beyond what the kernel buffers of a
  // non-reading peer absorb, but under Connection::kMaxBufferedBytes — the
  // backpressure cap that would declare the peer dead before the flush
  // could wedge (a different, also-valid outcome, but not the one under
  // test here).
  for (int i = 0; i < 192; ++i) {
    server->Deliver(page);
  }
  ASSERT_EQ(server->unroutable_drops(), 0u);

  const auto start = std::chrono::steady_clock::now();
  const bool drained = server->DrainOrPoison(0.3);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_FALSE(drained) << "a non-reading peer cannot be drained";
  EXPECT_LT(waited, 5.0) << "DrainOrPoison must respect its deadline";

  // Poisoned means discarded: a follow-up flush has nothing left to send,
  // and Close() completes without hanging on the wedged connection.
  EXPECT_TRUE(server->Flush());
  server->Close();
  ::close(fd);
}

// The drain side of the same contract: with a reading peer, an interrupted
// flush completes and nothing is poisoned.
TEST(DrainOrPoisonTest, DrainsWhenThePeerReads) {
  sim::Simulator server_sim;
  substrate::RealtimeSubstrate server_sub(&server_sim);
  server_sub.set_message_sink([](net::MessagePtr) {});

  substrate::Hello hello;
  hello.algorithm = 0;
  hello.caching = 0;
  hello.total_pages = 1000;
  hello.num_clients = 2;
  hello.page_payload_bytes = 64 * 1024;
  std::string error;
  auto server =
      substrate::TcpServerTransport::Listen(0, hello, &server_sub, &error);
  ASSERT_NE(server, nullptr) << error;

  sim::Simulator client_sim;
  substrate::RealtimeSubstrate client_sub(&client_sim);
  std::atomic<std::uint64_t> received{0};
  client_sub.set_message_sink([&received](net::MessagePtr) {
    received.fetch_add(1, std::memory_order_relaxed);
  });
  substrate::Hello ch = hello;
  ch.client_lo = 0;
  ch.client_hi = 2;
  // The server loop runs only for the handshake; from then on the test
  // thread plays it.
  std::thread server_loop([&server_sub] {
    server_sub.Run(60 * sim::kTicksPerSecond);
  });
  auto client = substrate::TcpClientTransport::Connect(
      "127.0.0.1", server->port(), ch, &client_sub, &error);
  server_sub.Stop();
  server_loop.join();
  ASSERT_NE(client, nullptr) << error;
  std::thread client_loop([&client_sub] {
    client_sub.Run(60 * sim::kTicksPerSecond);
  });

  net::Message page = SeqMessage(1, net::kServerNode, /*dst=*/0);
  page.type = net::MsgType::kReadReply;
  page.data_pages.push_back(1);
  page.data_versions.push_back(1);
  for (int i = 0; i < 256; ++i) {
    server->Deliver(page);
  }
  EXPECT_TRUE(server->DrainOrPoison(10.0));

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (received.load(std::memory_order_relaxed) < 256 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(received.load(std::memory_order_relaxed), 256u);
  client_sub.Stop();
  client_loop.join();
  client->Close();
  server->Close();
}

}  // namespace
}  // namespace ccsim
