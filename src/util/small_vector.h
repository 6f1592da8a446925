#ifndef CCSIM_UTIL_SMALL_VECTOR_H_
#define CCSIM_UTIL_SMALL_VECTOR_H_

#include <cstddef>
#include <cstring>
#include <initializer_list>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/macros.h"

namespace ccsim::util {

/// Vector with `N` elements of inline storage and a heap fallback.
/// Purpose-built for the hot message structures (net::Message page lists,
/// eviction victim lists): typical payloads fit inline, so steady-state
/// send/receive paths allocate nothing. Only trivially copyable and
/// trivially destructible element types are supported, which lets growth,
/// copy, and move be memcpy and keeps the type cheap to reason about.
///
/// The API is the subset of std::vector the message paths use, plus
/// conversions from std::vector so protocol code can hand over lists built
/// with standard containers. A move takes over a spilled list's heap block
/// and copies an inline list's elements with one memcpy; either way it
/// allocates nothing and leaves the source empty.
template <typename T, std::size_t N>
class SmallVector {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "SmallVector supports trivial element types only");
  static_assert(N > 0, "inline capacity must be positive");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVector() = default;

  SmallVector(const SmallVector& other) { assign(other.begin(), other.end()); }

  SmallVector(SmallVector&& other) noexcept { TakeFrom(other); }

  /// Conversions from std::vector: protocol code builds some lists with
  /// standard containers and assigns them into message fields wholesale.
  SmallVector(const std::vector<T>& other) {  // NOLINT(runtime/explicit)
    assign(other.begin(), other.end());
  }
  SmallVector(std::vector<T>&& other) {  // NOLINT(runtime/explicit)
    assign(other.begin(), other.end());
    other.clear();
  }

  template <typename It>
  SmallVector(It first, It last) {
    assign(first, last);
  }

  SmallVector(std::initializer_list<T> init) {
    assign(init.begin(), init.end());
  }

  ~SmallVector() { clear_and_release(); }

  SmallVector& operator=(const SmallVector& other) {
    if (this != &other) {
      assign(other.begin(), other.end());
    }
    return *this;
  }

  SmallVector& operator=(SmallVector&& other) noexcept {
    if (this != &other) {
      clear_and_release();
      TakeFrom(other);
    }
    return *this;
  }

  SmallVector& operator=(std::initializer_list<T> init) {
    assign(init.begin(), init.end());
    return *this;
  }

  SmallVector& operator=(const std::vector<T>& other) {
    assign(other.begin(), other.end());
    return *this;
  }

  SmallVector& operator=(std::vector<T>&& other) {
    assign(other.begin(), other.end());
    other.clear();
    return *this;
  }

  template <typename It>
  void assign(It first, It last) {
    size_ = 0;
    for (; first != last; ++first) {
      push_back(*first);
    }
  }

  void push_back(const T& value) {
    if (size_ == capacity_) {
      Grow(capacity_ * 2);
    }
    data_[size_++] = value;
  }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    push_back(T{std::forward<Args>(args)...});
    return data_[size_ - 1];
  }

  void pop_back() {
    CCSIM_CHECK(size_ > 0);
    --size_;
  }

  void clear() { size_ = 0; }

  void reserve(std::size_t wanted) {
    if (wanted > capacity_) {
      Grow(wanted);
    }
  }

  void resize(std::size_t count) {
    reserve(count);
    for (std::size_t i = size_; i < count; ++i) {
      data_[i] = T{};
    }
    size_ = count;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return capacity_; }
  /// True while the elements live in the inline buffer (no heap block).
  bool inline_storage() const { return data_ == InlineData(); }

  T* data() { return data_; }
  const T* data() const { return data_; }
  iterator begin() { return data_; }
  iterator end() { return data_ + size_; }
  const_iterator begin() const { return data_; }
  const_iterator end() const { return data_ + size_; }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T& front() { return data_[0]; }
  const T& front() const { return data_[0]; }
  T& back() { return data_[size_ - 1]; }
  const T& back() const { return data_[size_ - 1]; }

  friend bool operator==(const SmallVector& a, const SmallVector& b) {
    if (a.size_ != b.size_) {
      return false;
    }
    for (std::size_t i = 0; i < a.size_; ++i) {
      if (!(a.data_[i] == b.data_[i])) {
        return false;
      }
    }
    return true;
  }

 private:
  T* InlineData() { return reinterpret_cast<T*>(inline_); }
  const T* InlineData() const { return reinterpret_cast<const T*>(inline_); }

  void Grow(std::size_t wanted) {
    std::size_t next = capacity_;
    while (next < wanted) {
      next *= 2;
    }
    T* block = static_cast<T*>(::operator new(next * sizeof(T)));
    if (size_ > 0) {
      std::memcpy(block, data_, size_ * sizeof(T));
    }
    if (data_ != InlineData()) {
      ::operator delete(data_);
    }
    data_ = block;
    capacity_ = next;
  }

  /// Moves `other`'s elements into this empty, inline vector: its heap
  /// block changes owner, inline elements are copied. `other` is left
  /// empty and inline.
  void TakeFrom(SmallVector& other) noexcept {
    if (other.inline_storage()) {
      if (other.size_ > 0) {
        std::memcpy(InlineData(), other.data_, other.size_ * sizeof(T));
      }
    } else {
      data_ = other.data_;
      capacity_ = other.capacity_;
      other.data_ = other.InlineData();
      other.capacity_ = N;
    }
    size_ = other.size_;
    other.size_ = 0;
  }

  /// Clears and returns any heap block (move-assignment / destruction).
  void clear_and_release() {
    if (data_ != InlineData()) {
      ::operator delete(data_);
      data_ = InlineData();
      capacity_ = N;
    }
    size_ = 0;
  }

  alignas(T) std::byte inline_[N * sizeof(T)];
  T* data_ = InlineData();
  std::size_t size_ = 0;
  std::size_t capacity_ = N;
};

}  // namespace ccsim::util

#endif  // CCSIM_UTIL_SMALL_VECTOR_H_
