// Wire codec tests: the bytes the real transport puts on the socket are
// pinned by golden vectors, both encode paths must produce them, decoding
// must round-trip them, and every malformed list count must be refused.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "net/message.h"
#include "substrate/wire.h"

namespace ccsim::substrate {
namespace {

constexpr std::uint32_t kPagePayload = 8;

/// Every scalar set (high bits and negative ids included) and every list
/// non-empty; read_set runs past the 12-entry inline capacity.
net::Message FullMessage() {
  net::Message m;
  m.type = net::MsgType::kCommitRequest;
  m.src = 5;
  m.dst = net::kServerNode;
  m.xact = 0x0123456789abcdefULL;
  m.request_id = 0xfedcba9876543210ULL;
  m.seq = 0x8000000000000001ULL;
  m.incarnation = 0xdeadbeefu;
  m.mode = lock::LockMode::kExclusive;
  m.aborted = true;
  m.invalidate = true;
  m.pages = {1, -2};
  m.versions = {3, 0xffffffffffffffffULL};
  m.data_pages = {7, 1999};
  m.data_versions = {42, 0x100000000ULL};
  m.fetch_pages = {0x7fffffff};
  for (int i = 0; i < 14; ++i) {
    m.read_set.push_back(100 + i);
  }
  m.read_versions = {9, 10, 11};
  m.updated_set = {7};
  m.released_pages = {-1};
  m.evicted_pages = {65536};
  return m;
}

std::vector<std::uint8_t> FromHex(const std::string& hex) {
  std::vector<std::uint8_t> bytes;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(
        static_cast<std::uint8_t>(std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return bytes;
}

/// FullMessage() framed with an 8-byte page payload, as the original
/// byte-at-a-time encoder wrote it (wire version 1).
const std::vector<std::uint8_t>& GoldenFrame() {
  static const std::vector<std::uint8_t> golden = FromHex(
      "ef0000000205000000ffffffffefcdab89674523011032547698badcfe010000"
      "0000000080efbeadde01030200000001000000feffffff020000000300000000"
      "000000ffffffffffffffff0200000007000000cf070000020000002a00000000"
      "000000000000000100000001000000ffffff7f0e000000640000006500000066"
      "0000006700000068000000690000006a0000006b0000006c0000006d0000006e"
      "0000006f00000070000000710000000300000009000000000000000a00000000"
      "0000000b00000000000000010000000700000001000000ffffffff0100000000"
      "00010000000000000000000000000000000000");
  return golden;
}

TEST(WireCodecTest, EncodeMessageBytesAreUnchanged) {
  std::vector<std::uint8_t> out = {0xaa};  // appends after existing bytes
  EncodeMessage(FullMessage(), kPagePayload, &out);
  ASSERT_EQ(out.size(), 1 + GoldenFrame().size());
  EXPECT_EQ(std::vector<std::uint8_t>(out.begin() + 1, out.end()),
            GoldenFrame());
}

TEST(WireCodecTest, FrameBufferBytesAreUnchanged) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  FrameBuffer buffer;
  buffer.AppendMessage(FullMessage(), kPagePayload);
  buffer.AppendMessage(FullMessage(), kPagePayload);
  ASSERT_EQ(buffer.Flush(fds[0]), FrameBuffer::FlushResult::kDone);
  std::vector<std::uint8_t> want = GoldenFrame();
  want.insert(want.end(), GoldenFrame().begin(), GoldenFrame().end());
  std::vector<std::uint8_t> got(want.size());
  std::size_t done = 0;
  while (done < got.size()) {
    const ssize_t n = ::recv(fds[1], got.data() + done, got.size() - done, 0);
    ASSERT_GT(n, 0);
    done += static_cast<std::size_t>(n);
  }
  EXPECT_EQ(got, want);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(WireCodecTest, FrameBufferCountsPendingBytesThroughPartialFlushes) {
  // pending_bytes() is a running total. Checked against what a walk of the
  // queued frames gives: every byte appended (control and zero payload)
  // minus every byte the kernel took, which is what the peer can read.
  // A small send buffer makes flushes stop part-way through a frame.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const int sndbuf = 4096;
  ASSERT_EQ(::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &sndbuf,
                         sizeof(sndbuf)),
            0);
  constexpr std::uint32_t kPagePayloadBytes = 4096;
  FrameBuffer buffer;
  std::size_t appended = 0;
  std::size_t received = 0;
  std::vector<std::size_t> frame_ends;  // cumulative frame boundaries
  auto append_message = [&](const net::Message& msg) {
    std::vector<std::uint8_t> frame;
    EncodeMessage(msg, kPagePayloadBytes, &frame);
    buffer.AppendMessage(msg, kPagePayloadBytes);
    appended += frame.size();
    frame_ends.push_back(appended);
  };
  auto append_frame = [&](const net::Message& msg) {
    std::vector<std::uint8_t> frame;
    EncodeMessage(msg, kPagePayloadBytes, &frame);
    buffer.AppendFrame(frame);
    appended += frame.size();
    frame_ends.push_back(appended);
  };
  auto drain = [&] {
    std::uint8_t sink[65536];
    while (true) {
      const ssize_t n = ::recv(fds[1], sink, sizeof(sink), MSG_DONTWAIT);
      if (n <= 0) {
        break;
      }
      received += static_cast<std::size_t>(n);
    }
  };
  net::Message with_pages = FullMessage();
  with_pages.data_pages = {1, 2, 3, 4};
  with_pages.data_versions = {1, 2, 3, 4};
  net::Message without_pages = FullMessage();
  without_pages.data_pages.clear();
  without_pages.data_versions.clear();

  EXPECT_EQ(buffer.pending_bytes(), 0u);
  for (int round = 0; round < 3; ++round) {
    append_message(with_pages);
    EXPECT_EQ(buffer.pending_bytes(), appended - received);
    append_message(without_pages);
    EXPECT_EQ(buffer.pending_bytes(), appended - received);
    append_frame(with_pages);
    EXPECT_EQ(buffer.pending_bytes(), appended - received);
  }
  bool stopped_mid_frame = false;
  FrameBuffer::FlushResult result = FrameBuffer::FlushResult::kAgain;
  for (int flush = 0; result == FrameBuffer::FlushResult::kAgain; ++flush) {
    ASSERT_LT(flush, 10000);
    result = buffer.Flush(fds[0]);
    ASSERT_NE(result, FrameBuffer::FlushResult::kError);
    if (result == FrameBuffer::FlushResult::kAgain) {
      EXPECT_GT(buffer.pending_bytes(), 0u);
      const std::size_t taken = appended - buffer.pending_bytes();
      stopped_mid_frame |= std::find(frame_ends.begin(), frame_ends.end(),
                                     taken) == frame_ends.end();
    }
    drain();
    EXPECT_EQ(buffer.pending_bytes(), appended - received);
    if (flush == 1) {
      append_message(without_pages);  // appended while a frame is part-sent
      EXPECT_EQ(buffer.pending_bytes(), appended - received);
    }
  }
  EXPECT_TRUE(stopped_mid_frame);
  EXPECT_EQ(buffer.pending_bytes(), 0u);
  EXPECT_EQ(received, appended);

  append_message(with_pages);
  append_frame(without_pages);
  EXPECT_EQ(buffer.pending_bytes(), appended - received);
  buffer.Clear();
  EXPECT_EQ(buffer.pending_bytes(), 0u);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(WireCodecTest, GoldenFrameDecodesToTheMessage) {
  const std::vector<std::uint8_t>& frame = GoldenFrame();
  net::Message got;
  got.pages = {99, 98, 97};  // decode overwrites a reused slot's lists
  std::string error;
  ASSERT_TRUE(DecodeMessage(frame.data() + 4, frame.size() - 4, kPagePayload,
                            &got, &error))
      << error;
  const net::Message want = FullMessage();
  EXPECT_EQ(got.type, want.type);
  EXPECT_EQ(got.src, want.src);
  EXPECT_EQ(got.dst, want.dst);
  EXPECT_EQ(got.xact, want.xact);
  EXPECT_EQ(got.request_id, want.request_id);
  EXPECT_EQ(got.seq, want.seq);
  EXPECT_EQ(got.incarnation, want.incarnation);
  EXPECT_EQ(got.mode, want.mode);
  EXPECT_EQ(got.aborted, want.aborted);
  EXPECT_EQ(got.invalidate, want.invalidate);
  EXPECT_EQ(got.pages, want.pages);
  EXPECT_EQ(got.versions, want.versions);
  EXPECT_EQ(got.data_pages, want.data_pages);
  EXPECT_EQ(got.data_versions, want.data_versions);
  EXPECT_EQ(got.fetch_pages, want.fetch_pages);
  EXPECT_EQ(got.read_set, want.read_set);
  EXPECT_EQ(got.read_versions, want.read_versions);
  EXPECT_EQ(got.updated_set, want.updated_set);
  EXPECT_EQ(got.released_pages, want.released_pages);
  EXPECT_EQ(got.evicted_pages, want.evicted_pages);
}

TEST(WireCodecTest, ListCountPastTheEndIsRejected) {
  const net::Message msg = FullMessage();
  // Element sizes and counts of the ten lists, in wire order.
  const std::size_t sizes[] = {4, 8, 4, 8, 4, 4, 8, 4, 4, 4};
  const std::size_t counts[] = {
      msg.pages.size(),         msg.versions.size(),
      msg.data_pages.size(),    msg.data_versions.size(),
      msg.fetch_pages.size(),   msg.read_set.size(),
      msg.read_versions.size(), msg.updated_set.size(),
      msg.released_pages.size(), msg.evicted_pages.size()};
  const std::vector<std::uint8_t> frame = GoldenFrame();
  std::size_t count_at = 4 + 39;  // length prefix + message header
  for (int list = 0; list < 10; ++list) {
    const std::size_t rest = frame.size() - count_at - 4;
    for (const std::uint32_t bad :
         {static_cast<std::uint32_t>(rest / sizes[list] + 1),
          std::uint32_t{0xffffffffu}}) {
      std::vector<std::uint8_t> body(frame.begin() + 4, frame.end());
      for (int b = 0; b < 4; ++b) {
        body[count_at - 4 + static_cast<std::size_t>(b)] =
            static_cast<std::uint8_t>(bad >> (8 * b));
      }
      net::Message out;
      std::string error;
      EXPECT_FALSE(
          DecodeMessage(body.data(), body.size(), kPagePayload, &out, &error))
          << "list " << list << " count " << bad;
      EXPECT_EQ(error, "truncated message lists") << "list " << list;
    }
    count_at += 4 + counts[list] * sizes[list];
  }
  // A body cut anywhere short of its end is refused too.
  for (std::size_t len = 0; len + 4 < frame.size(); ++len) {
    net::Message out;
    std::string error;
    EXPECT_FALSE(
        DecodeMessage(frame.data() + 4, len, kPagePayload, &out, &error))
        << "length " << len;
  }
}

TEST(WireCodecTest, HelloBytesAreUnchanged) {
  Hello hello;
  hello.algorithm = 2;
  hello.caching = 1;
  hello.client_lo = 8;
  hello.client_hi = 16;
  hello.total_pages = 0x123456789aLL;
  hello.num_clients = 24;
  hello.page_payload_bytes = 4096;
  std::vector<std::uint8_t> out;
  EncodeHello(hello, &out);
  EXPECT_EQ(out, FromHex("22000000575243430100000002010800000010"
                         "0000009a785634120000001800000000100000"));
  Hello back;
  std::string error;
  ASSERT_TRUE(DecodeHello(out.data() + 4, out.size() - 4, &back, &error))
      << error;
  EXPECT_EQ(back.version, kWireVersion);
  EXPECT_EQ(back.algorithm, 2);
  EXPECT_EQ(back.caching, 1);
  EXPECT_EQ(back.client_lo, 8);
  EXPECT_EQ(back.client_hi, 16);
  EXPECT_EQ(back.total_pages, 0x123456789aLL);
  EXPECT_EQ(back.num_clients, 24);
  EXPECT_EQ(back.page_payload_bytes, 4096u);
  EXPECT_FALSE(DecodeHello(out.data() + 4, out.size() - 5, &back, &error));
}

}  // namespace
}  // namespace ccsim::substrate
