#ifndef CCSIM_UTIL_BLOCK_POOL_H_
#define CCSIM_UTIL_BLOCK_POOL_H_

#include <sanitizer/asan_interface.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace ccsim::util {

/// A per-thread size-class cache of freed heap blocks, for objects that are
/// created and destroyed once per simulated event or commit: coroutine
/// frames, messages, transaction states and the nodes of hashed containers
/// (PoolAllocator below). Sizes round up to a 64-byte granule; each class
/// keeps a capped LIFO free list of blocks that were individually obtained
/// from `::operator new`, so a recycled block costs a pointer pop instead
/// of a malloc/free pair.
///
/// Callers free with the size they allocated (sized delete), so blocks
/// carry no header. Requests above `kMaxBlockBytes` go straight to the
/// heap, and so do frees past a class's cap: a thread that only frees
/// cannot hoard memory. A block may be freed on another thread than the
/// one that allocated it; it then joins that thread's lists. When a thread
/// exits its lists go back to the heap, and later frees on that thread
/// (from other thread-local destructors) go straight to the heap too.
///
/// Under AddressSanitizer a block on a free list is poisoned and is
/// unpoisoned on reuse, so a use-after-free of a recycled object is still
/// reported (as use-after-poison).
class BlockPool {
 public:
  static constexpr std::size_t kGranule = 64;
  static constexpr std::size_t kMaxBlockBytes = 1024;
  static constexpr std::size_t kClasses = kMaxBlockBytes / kGranule;
  static constexpr std::uint32_t kMaxFreePerClass = 1024;

  static void* Allocate(std::size_t bytes) {
    if (bytes == 0 || bytes > kMaxBlockBytes) {
      return ::operator new(bytes);
    }
    const std::size_t c = ClassOf(bytes);
    Lists& lists = lists_;
    FreeBlock* block = lists.head[c];
    if (block == nullptr) {
      return ::operator new(BlockBytes(c));
    }
    ASAN_UNPOISON_MEMORY_REGION(block, BlockBytes(c));
    lists.head[c] = block->next;
    --lists.count[c];
    return block;
  }

  static void Free(void* ptr, std::size_t bytes) noexcept {
    if (bytes == 0 || bytes > kMaxBlockBytes) {
      ::operator delete(ptr, bytes);
      return;
    }
    const std::size_t c = ClassOf(bytes);
    Lists& lists = lists_;
    if (lists.state == State::kFresh) [[unlikely]] {
      Arm();
    }
    if (lists.state == State::kExited || lists.count[c] == kMaxFreePerClass) {
      ::operator delete(ptr, BlockBytes(c));
      return;
    }
    FreeBlock* block = ::new (ptr) FreeBlock{lists.head[c]};
    lists.head[c] = block;
    ++lists.count[c];
    ASAN_POISON_MEMORY_REGION(block, BlockBytes(c));
  }

  /// Blocks cached on this thread's free list for `bytes`-sized requests.
  static std::uint32_t FreeCount(std::size_t bytes) {
    return lists_.count[ClassOf(bytes)];
  }

 private:
  struct FreeBlock {
    FreeBlock* next;
  };

  /// kFresh until this thread's first free, kArmed once the thread-exit
  /// drain is registered, kExited after it has run.
  enum class State : std::uint8_t { kFresh, kArmed, kExited };

  /// Trivially constructible and destructible, so reaching it costs no
  /// thread-local initialisation check.
  struct Lists {
    FreeBlock* head[kClasses];
    std::uint32_t count[kClasses];
    State state;
  };

  /// Returns this thread's lists to the heap when the thread exits.
  struct Drain {
    ~Drain() {
      Lists& lists = lists_;
      lists.state = State::kExited;
      for (std::size_t c = 0; c < kClasses; ++c) {
        while (FreeBlock* block = lists.head[c]) {
          ASAN_UNPOISON_MEMORY_REGION(block, BlockBytes(c));
          lists.head[c] = block->next;
          ::operator delete(block, BlockBytes(c));
        }
        lists.count[c] = 0;
      }
    }
  };

  /// Registers the drain on a thread's first free: only a free can put a
  /// block on the lists.
  [[gnu::noinline]] static void Arm() noexcept {
    thread_local Drain drain;
    (void)drain;
    lists_.state = State::kArmed;
  }

  static std::size_t ClassOf(std::size_t bytes) {
    return (bytes - 1) / kGranule;
  }
  static std::size_t BlockBytes(std::size_t c) { return (c + 1) * kGranule; }

  static inline constinit thread_local Lists lists_{};
};

/// A stateless standard allocator over BlockPool, for node-based containers
/// whose nodes and bucket arrays are created and destroyed on the commit
/// path. Allocation never changes a hashed container's iteration order:
/// that depends only on the hash, the bucket count and the sequence of
/// inserts and erases.
template <typename T>
class PoolAllocator {
 public:
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "BlockPool blocks carry operator new's default alignment");
  using value_type = T;

  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}  // NOLINT

  T* allocate(std::size_t n) {
    return static_cast<T*>(BlockPool::Allocate(n * sizeof(T)));
  }
  void deallocate(T* ptr, std::size_t n) noexcept {
    BlockPool::Free(ptr, n * sizeof(T));
  }

  friend bool operator==(const PoolAllocator&, const PoolAllocator&) {
    return true;
  }
};

/// std::unordered_set / std::unordered_map with std::hash and pooled nodes:
/// the same iteration order as the std::allocator containers they replace.
template <typename K>
using PooledSet =
    std::unordered_set<K, std::hash<K>, std::equal_to<K>, PoolAllocator<K>>;
template <typename K, typename V>
using PooledMap = std::unordered_map<K, V, std::hash<K>, std::equal_to<K>,
                                     PoolAllocator<std::pair<const K, V>>>;

}  // namespace ccsim::util

#endif  // CCSIM_UTIL_BLOCK_POOL_H_
