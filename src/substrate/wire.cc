#include "substrate/wire.h"

#include <sys/socket.h>
#include <sys/uio.h>

#include <bit>
#include <cerrno>
#include <cstring>

namespace ccsim::substrate {

// Scalars and whole lists are copied in host byte order; the format is
// little-endian, so the host must be too.
static_assert(std::endian::native == std::endian::little,
              "the wire codec copies scalars in host byte order");

namespace {

/// Shared zero block stitched into outbound iovecs for page payloads.
constexpr std::size_t kZeroChunk = 64 * 1024;
const std::uint8_t kZeroes[kZeroChunk] = {};

/// Sequential little-endian writer over space already reserved at the
/// tail of a byte vector: the caller sizes the frame first, so encoding
/// grows the vector once and copies each scalar and list with memcpy.
class Writer {
 public:
  /// Grows `out` by `bytes` and writes from the old end.
  Writer(std::vector<std::uint8_t>* out, std::size_t bytes) {
    const std::size_t at = out->size();
    out->resize(at + bytes);
    pos_ = out->data() + at;
  }

  template <typename T>
  void Put(T v) {
    std::memcpy(pos_, &v, sizeof(T));
    pos_ += sizeof(T);
  }

  /// u32 element count, then the elements back to back.
  template <typename List>
  void PutList(const List& list) {
    Put(static_cast<std::uint32_t>(list.size()));
    const std::size_t bytes =
        list.size() * sizeof(typename List::value_type);
    if (bytes > 0) {
      std::memcpy(pos_, list.data(), bytes);
    }
    pos_ += bytes;
  }

 private:
  std::uint8_t* pos_ = nullptr;
};

/// Encoded size of a list: its u32 count plus its elements.
template <typename List>
std::size_t ListBytes(const List& list) {
  return 4 + list.size() * sizeof(typename List::value_type);
}

/// Bounded little-endian reader over a frame body.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t len)
      : data_(data), len_(len) {}

  template <typename T>
  bool Get(T* v) {
    if (len_ - pos_ < sizeof(T)) {
      return false;
    }
    std::memcpy(v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  /// A u32 element count, then that many elements; fails (leaving the
  /// list untouched) when the count runs past the end of the body.
  template <typename List>
  bool GetList(List* list) {
    using T = typename List::value_type;
    std::uint32_t count = 0;
    if (!Get(&count) || (len_ - pos_) / sizeof(T) < count) {
      return false;
    }
    list->resize(count);
    if (count > 0) {
      std::memcpy(list->data(), data_ + pos_, std::size_t{count} * sizeof(T));
    }
    pos_ += std::size_t{count} * sizeof(T);
    return true;
  }

  bool Skip(std::size_t n) {
    if (len_ - pos_ < n) {
      return false;
    }
    pos_ += n;
    return true;
  }

  bool AtEnd() const { return pos_ == len_; }

 private:
  const std::uint8_t* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
};

/// Hello body: magic, version, algorithm, caching, client range, database
/// size, client count, page payload size.
constexpr std::uint32_t kHelloBodyBytes = 4 + 4 + 1 + 1 + 4 + 4 + 8 + 4 + 4;

/// Message header: type, src, dst, xact, request id, seq, incarnation,
/// mode, flags.
constexpr std::size_t kMessageHeaderBytes = 1 + 4 + 4 + 8 + 8 + 8 + 4 + 1 + 1;

}  // namespace

void EncodeHello(const Hello& hello, std::vector<std::uint8_t>* out) {
  Writer w(out, 4 + kHelloBodyBytes);
  w.Put(kHelloBodyBytes);
  w.Put(kWireMagic);
  w.Put(hello.version);
  w.Put(hello.algorithm);
  w.Put(hello.caching);
  w.Put(hello.client_lo);
  w.Put(hello.client_hi);
  w.Put(hello.total_pages);
  w.Put(hello.num_clients);
  w.Put(hello.page_payload_bytes);
}

bool DecodeHello(const std::uint8_t* body, std::size_t len, Hello* out,
                 std::string* error) {
  Reader r(body, len);
  std::uint32_t magic = 0;
  if (!r.Get(&magic) || magic != kWireMagic) {
    *error = "bad magic (not a ccsim wire peer)";
    return false;
  }
  if (!r.Get(&out->version) || out->version != kWireVersion) {
    *error = "wire version mismatch";
    return false;
  }
  if (!r.Get(&out->algorithm) || !r.Get(&out->caching) ||
      !r.Get(&out->client_lo) || !r.Get(&out->client_hi) ||
      !r.Get(&out->total_pages) || !r.Get(&out->num_clients) ||
      !r.Get(&out->page_payload_bytes) || !r.AtEnd()) {
    *error = "truncated hello";
    return false;
  }
  return true;
}

namespace {

/// Appends the length prefix and every control field of `msg` — header
/// plus lists, everything but the page-image payload, whose
/// `payload_bytes` the prefix counts but the caller supplies separately.
/// The frame is sized first, so `out` grows once.
void EncodeMessageControl(const net::Message& msg, std::size_t payload_bytes,
                          std::vector<std::uint8_t>* out) {
  const std::size_t control =
      kMessageHeaderBytes + ListBytes(msg.pages) + ListBytes(msg.versions) +
      ListBytes(msg.data_pages) + ListBytes(msg.data_versions) +
      ListBytes(msg.fetch_pages) + ListBytes(msg.read_set) +
      ListBytes(msg.read_versions) + ListBytes(msg.updated_set) +
      ListBytes(msg.released_pages) + ListBytes(msg.evicted_pages);
  Writer w(out, 4 + control);
  w.Put(static_cast<std::uint32_t>(control + payload_bytes));
  w.Put(static_cast<std::uint8_t>(msg.type));
  w.Put(static_cast<std::int32_t>(msg.src));
  w.Put(static_cast<std::int32_t>(msg.dst));
  w.Put(msg.xact);
  w.Put(msg.request_id);
  w.Put(msg.seq);
  w.Put(msg.incarnation);
  w.Put(static_cast<std::uint8_t>(msg.mode));
  w.Put(static_cast<std::uint8_t>((msg.aborted ? 1 : 0) |
                                  (msg.invalidate ? 2 : 0)));
  w.PutList(msg.pages);
  w.PutList(msg.versions);
  w.PutList(msg.data_pages);
  w.PutList(msg.data_versions);
  w.PutList(msg.fetch_pages);
  w.PutList(msg.read_set);
  w.PutList(msg.read_versions);
  w.PutList(msg.updated_set);
  w.PutList(msg.released_pages);
  w.PutList(msg.evicted_pages);
}

}  // namespace

void EncodeMessage(const net::Message& msg, std::uint32_t page_payload_bytes,
                   std::vector<std::uint8_t>* out) {
  // Page images: the model tracks versions rather than bytes, so the image
  // payload is zero-filled, but it is still shipped at full page size.
  const std::size_t payload =
      std::size_t{page_payload_bytes} * msg.data_pages.size();
  EncodeMessageControl(msg, payload, out);
  out->resize(out->size() + payload);
}

bool DecodeMessage(const std::uint8_t* body, std::size_t len,
                   std::uint32_t page_payload_bytes, net::Message* out,
                   std::string* error) {
  Reader r(body, len);
  std::uint8_t type = 0, mode = 0, flags = 0;
  std::int32_t src = 0, dst = 0;
  if (!r.Get(&type) || !r.Get(&src) || !r.Get(&dst) || !r.Get(&out->xact) ||
      !r.Get(&out->request_id) || !r.Get(&out->seq) ||
      !r.Get(&out->incarnation) || !r.Get(&mode) || !r.Get(&flags)) {
    *error = "truncated message header";
    return false;
  }
  out->type = static_cast<net::MsgType>(type);
  out->src = src;
  out->dst = dst;
  out->mode = static_cast<lock::LockMode>(mode);
  out->aborted = (flags & 1) != 0;
  out->invalidate = (flags & 2) != 0;
  if (!r.GetList(&out->pages) || !r.GetList(&out->versions) ||
      !r.GetList(&out->data_pages) || !r.GetList(&out->data_versions) ||
      !r.GetList(&out->fetch_pages) || !r.GetList(&out->read_set) ||
      !r.GetList(&out->read_versions) || !r.GetList(&out->updated_set) ||
      !r.GetList(&out->released_pages) || !r.GetList(&out->evicted_pages)) {
    *error = "truncated message lists";
    return false;
  }
  if (!r.Skip(std::size_t{page_payload_bytes} * out->data_pages.size()) ||
      !r.AtEnd()) {
    *error = "message length does not match its page payload";
    return false;
  }
  return true;
}

// --- FrameBuffer ----------------------------------------------------------

void FrameBuffer::AppendMessage(const net::Message& msg,
                                std::uint32_t page_payload_bytes) {
  const std::size_t zero_len =
      std::size_t{page_payload_bytes} * msg.data_pages.size();
  EncodeMessageControl(msg, zero_len, &bytes_);
  segments_.push_back(Segment{bytes_.size(), zero_len});
  ++frames_queued_;
}

void FrameBuffer::AppendFrame(const std::vector<std::uint8_t>& frame) {
  bytes_.insert(bytes_.end(), frame.begin(), frame.end());
  segments_.push_back(Segment{bytes_.size(), 0});
  ++frames_queued_;
}

std::size_t FrameBuffer::pending_bytes() const {
  if (!has_pending()) {
    return 0;
  }
  std::size_t total = bytes_.size() - data_cursor_ +
                      segments_[seg_].zero_len - zero_done_;
  for (std::size_t s = seg_ + 1; s < segments_.size(); ++s) {
    total += segments_[s].zero_len;
  }
  return total;
}

void FrameBuffer::Clear() {
  bytes_.clear();
  segments_.clear();
  seg_ = 0;
  data_cursor_ = 0;
  zero_done_ = 0;
  frames_queued_ = 0;
}

void FrameBuffer::Advance(std::size_t n) {
  while (n > 0) {
    const Segment& seg = segments_[seg_];
    const std::size_t data_rem = seg.data_end - data_cursor_;
    if (data_rem > 0) {
      const std::size_t take = n < data_rem ? n : data_rem;
      data_cursor_ += take;
      n -= take;
      continue;
    }
    const std::size_t zero_rem = seg.zero_len - zero_done_;
    const std::size_t take = n < zero_rem ? n : zero_rem;
    zero_done_ += take;
    n -= take;
    if (zero_done_ == seg.zero_len) {
      ++seg_;
      zero_done_ = 0;
    }
  }
  // A segment fully drained by its data part alone still needs retiring.
  while (seg_ < segments_.size() &&
         data_cursor_ == segments_[seg_].data_end &&
         zero_done_ == segments_[seg_].zero_len) {
    ++seg_;
    zero_done_ = 0;
  }
  if (seg_ == segments_.size()) {
    Clear();
  }
}

FrameBuffer::FlushResult FrameBuffer::Flush(int fd) {
  constexpr std::size_t kMaxIov = 64;
  while (has_pending()) {
    iovec iov[kMaxIov];
    std::size_t niov = 0;
    std::size_t data_from = data_cursor_;
    std::size_t zero_from = zero_done_;
    for (std::size_t s = seg_; s < segments_.size() && niov < kMaxIov; ++s) {
      const Segment& seg = segments_[s];
      if (data_from < seg.data_end) {
        std::uint8_t* base = bytes_.data() + data_from;
        const std::size_t len = seg.data_end - data_from;
        // Adjacent control spans coalesce into one iovec.
        if (niov > 0 &&
            static_cast<std::uint8_t*>(iov[niov - 1].iov_base) +
                    iov[niov - 1].iov_len ==
                base) {
          iov[niov - 1].iov_len += len;
        } else {
          iov[niov].iov_base = base;
          iov[niov].iov_len = len;
          ++niov;
        }
      }
      for (std::size_t z = zero_from; z < seg.zero_len && niov < kMaxIov;
           z += kZeroChunk) {
        const std::size_t len =
            seg.zero_len - z < kZeroChunk ? seg.zero_len - z : kZeroChunk;
        iov[niov].iov_base = const_cast<std::uint8_t*>(kZeroes);
        iov[niov].iov_len = len;
        ++niov;
      }
      if (zero_from < seg.zero_len && niov == kMaxIov) {
        break;  // zero run truncated by the iovec budget; resume next pass
      }
      data_from = seg.data_end;
      zero_from = 0;
    }
    msghdr hdr{};
    hdr.msg_iov = iov;
    hdr.msg_iovlen = niov;
    const ssize_t n = ::sendmsg(fd, &hdr, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return FlushResult::kAgain;
      }
      Clear();
      return FlushResult::kError;
    }
    Advance(static_cast<std::size_t>(n));
  }
  return FlushResult::kDone;
}

// --- FrameSplitter --------------------------------------------------------

std::uint8_t* FrameSplitter::WritableData(std::size_t min_bytes) {
  if (buf_.size() - end_ < min_bytes) {
    if (begin_ > 0) {
      // Slide the partial frame (if any) to the front.
      std::memmove(buf_.data(), buf_.data() + begin_, end_ - begin_);
      end_ -= begin_;
      begin_ = 0;
    }
    if (buf_.size() - end_ < min_bytes) {
      std::size_t want = buf_.size() * 2;
      if (want < end_ + min_bytes) {
        want = end_ + min_bytes;
      }
      buf_.resize(want);
    }
  }
  return buf_.data() + end_;
}

FrameSplitter::Next FrameSplitter::NextFrame(const std::uint8_t** body,
                                             std::uint32_t* len) {
  const std::size_t avail = end_ - begin_;
  if (avail < 4) {
    return Next::kNeedMore;
  }
  const std::uint8_t* p = buf_.data() + begin_;
  const std::uint32_t frame_len = static_cast<std::uint32_t>(p[0]) |
                                  static_cast<std::uint32_t>(p[1]) << 8 |
                                  static_cast<std::uint32_t>(p[2]) << 16 |
                                  static_cast<std::uint32_t>(p[3]) << 24;
  if (frame_len > kMaxFrameBytes) {
    return Next::kBad;
  }
  if (avail < 4 + std::size_t{frame_len}) {
    return Next::kNeedMore;
  }
  *body = p + 4;
  *len = frame_len;
  begin_ += 4 + std::size_t{frame_len};
  if (begin_ == end_) {
    begin_ = 0;
    end_ = 0;
  }
  return Next::kFrame;
}

}  // namespace ccsim::substrate
