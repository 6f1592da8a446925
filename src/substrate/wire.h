#ifndef CCSIM_SUBSTRATE_WIRE_H_
#define CCSIM_SUBSTRATE_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "net/message.h"

namespace ccsim::substrate {

/// Wire format of the real transport. Every frame on the socket is
///
///   u32-LE body length | body
///
/// The first frame in each direction is a Hello that pins down protocol
/// compatibility (magic, version, algorithm, database size, client-id
/// range); every subsequent frame is one encoded net::Message. All scalars
/// are little-endian and fixed-width, so the format is stable across
/// hosts. Page images are carried as `page_payload_bytes` of payload per
/// entry of `data_pages` (the simulated database models versions, not
/// bytes, so the payload is zero-filled — but it travels the wire at full
/// size, making loopback throughput honest about bandwidth).
inline constexpr std::uint32_t kWireMagic = 0x43435257;  // "CCRW"
inline constexpr std::uint32_t kWireVersion = 1;
/// Upper bound on a sane frame body (header + lists + page images).
inline constexpr std::uint32_t kMaxFrameBytes = 64u * 1024u * 1024u;

/// Connection handshake, sent once by each side before any message.
struct Hello {
  std::uint32_t version = kWireVersion;
  /// config::Algorithm as an integer.
  std::uint8_t algorithm = 0;
  /// config::CachingMode as an integer.
  std::uint8_t caching = 0;
  /// First (inclusive) and last (exclusive) client id behind this
  /// connection; the server routes replies for [lo, hi) back here.
  /// The server's own hello sends 0, 0.
  std::int32_t client_lo = 0;
  std::int32_t client_hi = 0;
  /// Database size, so both sides agree on the page-id space.
  std::int64_t total_pages = 0;
  /// Total clients the peer expects in the whole experiment.
  std::int32_t num_clients = 0;
  /// Bytes of page image carried per data_pages entry.
  std::uint32_t page_payload_bytes = 0;
};

/// Appends the length-prefixed Hello frame to `out`.
void EncodeHello(const Hello& hello, std::vector<std::uint8_t>* out);

/// Decodes a Hello from a frame body. Returns false (with a reason) on a
/// bad magic, size, or version.
bool DecodeHello(const std::uint8_t* body, std::size_t len, Hello* out,
                 std::string* error);

/// Appends the length-prefixed Message frame to `out`.
void EncodeMessage(const net::Message& msg, std::uint32_t page_payload_bytes,
                   std::vector<std::uint8_t>* out);

/// Decodes a Message from a frame body. Returns false on a malformed body.
bool DecodeMessage(const std::uint8_t* body, std::size_t len,
                   std::uint32_t page_payload_bytes, net::Message* out,
                   std::string* error);

/// Batched outbound framing: messages are encoded back to back into one
/// reusable buffer and flushed with a single vectored, non-blocking
/// sendmsg() per batch. Page images are zero-filled by construction, so
/// instead of materializing them the buffer records a zero-run per frame
/// and stitches a shared zero block into the iovec array at flush time —
/// the payload still crosses the socket at full size, but never touches
/// the encode buffer. Steady state allocates nothing: the byte and
/// segment vectors reach a high-water mark and are reused.
///
/// Single-threaded: one owner (the substrate loop thread) both appends
/// and flushes. A flush may make partial progress (kAgain) when the
/// socket buffer is full; the cursor is kept and the next Flush() resumes
/// mid-frame, so the owner must keep calling Flush() until kDone before
/// assuming delivery.
class FrameBuffer {
 public:
  enum class FlushResult { kDone, kAgain, kError };

  /// Encodes one length-prefixed Message frame at the tail of the batch.
  void AppendMessage(const net::Message& msg,
                     std::uint32_t page_payload_bytes);

  /// Appends an already length-prefixed frame (a pre-encoded Hello).
  void AppendFrame(const std::vector<std::uint8_t>& frame);

  /// Writes as much of the batch as the kernel will take without
  /// blocking. kDone: everything reached the socket (buffer reset).
  /// kAgain: socket buffer full, pending bytes retained. kError: the
  /// peer is gone; pending bytes are discarded.
  FlushResult Flush(int fd);

  bool has_pending() const { return seg_ < segments_.size(); }
  /// Bytes not yet handed to the kernel (control + zero payload).
  std::size_t pending_bytes() const { return pending_bytes_; }
  /// Frames appended since the buffer was last fully flushed or cleared.
  std::uint64_t frames_queued() const { return frames_queued_; }

  /// Drops everything pending (dead peer), keeping capacity.
  void Clear();

 private:
  struct Segment {
    std::size_t data_end;  // control bytes end at this offset in bytes_
    std::size_t zero_len;  // zero-filled page payload following them
  };

  std::size_t SegmentDataBegin(std::size_t s) const {
    return s == 0 ? 0 : segments_[s - 1].data_end;
  }
  void Advance(std::size_t n);

  std::vector<std::uint8_t> bytes_;
  std::vector<Segment> segments_;
  std::size_t seg_ = 0;            // first segment with unsent bytes
  std::size_t data_cursor_ = 0;    // absolute offset in bytes_ already sent
  std::size_t zero_done_ = 0;      // zero bytes of segments_[seg_] sent
  std::size_t pending_bytes_ = 0;  // appended, not yet sent
  std::uint64_t frames_queued_ = 0;
};

/// Incremental inbound frame assembly: recv() lands wherever
/// WritableData() points, and NextFrame() peels complete length-prefixed
/// frames out of the accumulated bytes without copying the body. The
/// buffer compacts (memmove) only when a partial frame straddles the
/// tail, and grows only until it fits the largest frame seen — zero
/// allocations in steady state.
///
/// The body pointer returned by NextFrame() is valid until the next
/// WritableData() call (which may move the buffer); decode immediately.
class FrameSplitter {
 public:
  /// Pointer to at least `min_bytes` of writable space at the tail,
  /// compacting or growing the buffer as needed.
  std::uint8_t* WritableData(std::size_t min_bytes);
  std::size_t writable_size() const { return buf_.size() - end_; }
  /// Records `n` bytes received into the WritableData() region.
  void CommitBytes(std::size_t n) { end_ += n; }
  /// True when no received bytes remain unconsumed.
  bool Empty() const { return begin_ == end_; }

  enum class Next { kFrame, kNeedMore, kBad };
  /// Extracts the next complete frame body, if any. kBad means the
  /// stream is corrupt (length prefix over kMaxFrameBytes).
  Next NextFrame(const std::uint8_t** body, std::uint32_t* len);

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t begin_ = 0;  // first unconsumed byte
  std::size_t end_ = 0;    // one past the last received byte
};

}  // namespace ccsim::substrate

#endif  // CCSIM_SUBSTRATE_WIRE_H_
