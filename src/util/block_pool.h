#ifndef CCSIM_UTIL_BLOCK_POOL_H_
#define CCSIM_UTIL_BLOCK_POOL_H_

#include <sanitizer/asan_interface.h>

#include <cstddef>
#include <cstdint>
#include <new>

namespace ccsim::util {

/// A per-thread size-class cache of freed heap blocks, for objects that are
/// created and destroyed once per simulated event: coroutine frames and
/// messages. Sizes round up to a 64-byte granule; each class keeps a
/// capped LIFO free list of blocks that were individually obtained from
/// `::operator new`, so a recycled block costs a pointer pop instead of a
/// malloc/free pair.
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
    if (exited_ || lists_.count[c] == kMaxFreePerClass) {
      ::operator delete(ptr, BlockBytes(c));
      return;
    }
    Lists& lists = lists_;
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

  struct Lists {
    FreeBlock* head[kClasses] = {};
    std::uint32_t count[kClasses] = {};

    ~Lists() {
      exited_ = true;
      for (std::size_t c = 0; c < kClasses; ++c) {
        while (FreeBlock* block = head[c]) {
          ASAN_UNPOISON_MEMORY_REGION(block, BlockBytes(c));
          head[c] = block->next;
          ::operator delete(block, BlockBytes(c));
        }
        count[c] = 0;
      }
    }
  };

  static std::size_t ClassOf(std::size_t bytes) {
    return (bytes - 1) / kGranule;
  }
  static std::size_t BlockBytes(std::size_t c) { return (c + 1) * kGranule; }

  static thread_local Lists lists_;
  // Trivially destructible, so it stays readable after ~Lists has run.
  static thread_local bool exited_;
};

inline thread_local BlockPool::Lists BlockPool::lists_;
inline thread_local bool BlockPool::exited_ = false;

}  // namespace ccsim::util

#endif  // CCSIM_UTIL_BLOCK_POOL_H_
