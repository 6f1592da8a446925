#ifndef CCSIM_UTIL_LRU_H_
#define CCSIM_UTIL_LRU_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/macros.h"

namespace ccsim {

/// An LRU index over dense non-negative integer keys (page ids) with
/// per-entry payload V.
///
/// The table does not bound its own size; callers implementing a replacement
/// policy query VictimCandidate() (the least recently used *evictable* entry)
/// and call Erase(). Entries can be pinned to exclude them from victim
/// selection — the client cache pins pages touched by the current
/// transaction, the server buffer pool pins pages mid-I/O.
///
/// Nothing is hashed. A key's entry lives in a slot threaded on an
/// intrusive doubly linked MRU list, and a two-level index maps the key to
/// its slot (a lookup is three loads). Slots come from chunks the table
/// owns and never moves, and an erased slot is reused by the next insert,
/// so an entry's address is stable while its key stays in the table and a
/// table that has reached its working size allocates nothing. Slots are
/// handed out in insertion order, so walking the list touches memory in
/// roughly the order it was filled.
template <typename K, typename V>
class LruTable {
  static_assert(std::is_integral_v<K>, "keys are dense integer ids");

 public:
  struct Entry {
    K key{};
    int pin_count = 0;
    /// Recency stamp, raised on every insert and touch: ordering entries
    /// by descending stamp reproduces the list's MRU-to-LRU order.
    std::uint64_t stamp = 0;
    [[no_unique_address]] V value{};
  };

  LruTable() = default;
  LruTable(const LruTable&) = delete;
  LruTable& operator=(const LruTable&) = delete;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool Contains(const K& key) const { return FindSlot(key) != nullptr; }

  /// Looks up an entry and, if found, marks it most recently used.
  V* Touch(const K& key) {
    Slot* slot = FindSlot(key);
    if (slot == nullptr) {
      return nullptr;
    }
    MoveToFront(slot);
    slot->entry.stamp = ++clock_;
    return &slot->entry.value;
  }

  /// Looks up an entry without changing recency order.
  V* Find(const K& key) {
    Slot* slot = FindSlot(key);
    return slot == nullptr ? nullptr : &slot->entry.value;
  }
  const V* Find(const K& key) const {
    const Slot* slot = FindSlot(key);
    return slot == nullptr ? nullptr : &slot->entry.value;
  }

  /// Looks up the whole entry (pin count and stamp included) without
  /// changing recency order.
  Entry* FindEntry(const K& key) {
    Slot* slot = FindSlot(key);
    return slot == nullptr ? nullptr : &slot->entry;
  }

  /// Inserts a new entry as most recently used. Fatal if the key exists.
  V* Insert(const K& key, V value) {
    const auto [entry, inserted] = TouchOrInsert(key, std::move(value));
    CCSIM_CHECK(inserted);
    return &entry->value;
  }

  /// Marks an existing entry most recently used, or inserts `value` as a
  /// new most recently used entry. Returns the entry and whether it was
  /// inserted. Fatal if the key is negative or past INT32_MAX.
  std::pair<Entry*, bool> TouchOrInsert(const K& key, V value) {
    if (Slot* slot = FindSlot(key)) {
      MoveToFront(slot);
      slot->entry.stamp = ++clock_;
      return {&slot->entry, false};
    }
    CCSIM_CHECK_MSG(static_cast<long long>(key) >= 0 &&
                        static_cast<long long>(key) <= INT32_MAX,
                    "LRU key %lld is not a dense id",
                    static_cast<long long>(key));
    Slot*& index = IndexOf(key);
    Slot* slot = NewSlot();
    slot->entry.key = key;
    slot->entry.pin_count = 0;
    slot->entry.stamp = ++clock_;
    slot->entry.value = std::move(value);
    LinkFront(slot);
    index = slot;
    ++size_;
    return {&slot->entry, true};
  }

  /// Removes an entry. Returns true if it existed.
  bool Erase(const K& key) {
    Slot* slot = FindSlot(key);
    if (slot == nullptr) {
      return false;
    }
    Unlink(slot);
    IndexOf(key) = nullptr;
    FreeSlot(slot);
    --size_;
    return true;
  }

  /// Pins an entry, excluding it from victim selection, and returns it.
  /// Fatal if missing.
  Entry& Pin(const K& key) {
    Slot* slot = FindSlot(key);
    CCSIM_CHECK(slot != nullptr);
    ++slot->entry.pin_count;
    return slot->entry;
  }

  /// Releases one pin. Fatal if missing or not pinned.
  void Unpin(const K& key) {
    Slot* slot = FindSlot(key);
    CCSIM_CHECK(slot != nullptr);
    CCSIM_CHECK(slot->entry.pin_count > 0);
    --slot->entry.pin_count;
  }

  /// True if the entry exists and is pinned.
  bool IsPinned(const K& key) const {
    const Slot* slot = FindSlot(key);
    return slot != nullptr && slot->entry.pin_count > 0;
  }

  /// Returns the least-recently-used unpinned entry, or nullptr if every
  /// entry is pinned (or the table is empty).
  const Entry* VictimCandidate() const {
    for (const Slot* slot = tail_; slot != nullptr; slot = slot->prev) {
      if (slot->entry.pin_count == 0) {
        return &slot->entry;
      }
    }
    return nullptr;
  }

  /// Iterates over all entries in MRU-to-LRU order. The mutable overload
  /// may change values and pins, but not keys or membership.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot* slot = head_; slot != nullptr; slot = slot->next) {
      fn(slot->entry);
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (Slot* slot = head_; slot != nullptr; slot = slot->next) {
      fn(slot->entry);
    }
  }

  /// Iterates over all entries in slot order, which is not recency order,
  /// for whole-table checks that need none: slots sit in chunks, so this
  /// reads memory in sequence where ForEach follows the list.
  template <typename Fn>
  void ForEachInSlotOrder(Fn&& fn) const {
    for (const auto& chunk : chunks_) {
      for (std::size_t i = 0; i < kChunkSlots; ++i) {
        const Slot& slot = chunk[i];
        // Free slots are unlinked with a null prev; of the live ones only
        // the head has that.
        if (slot.prev != nullptr || &slot == head_) {
          fn(slot.entry);
        }
      }
    }
  }

  /// Removes every entry (the slots stay allocated for reuse).
  void Clear() {
    for (Slot* slot = head_; slot != nullptr;) {
      Slot* next = slot->next;
      IndexOf(slot->entry.key) = nullptr;
      FreeSlot(slot);
      slot = next;
    }
    head_ = tail_ = nullptr;
    size_ = 0;
  }

 private:
  struct Slot {
    Slot* prev = nullptr;  // toward the MRU end
    Slot* next = nullptr;  // toward the LRU end; the free list's link
    Entry entry;
  };

  /// Index leaves cover kLeafKeys consecutive keys; slot chunks hold
  /// kChunkSlots slots. Both stay within 1 KB for the caches' payloads.
  static constexpr int kLeafBits = 7;
  static constexpr std::size_t kLeafKeys = std::size_t{1} << kLeafBits;
  static constexpr std::size_t kChunkSlots = 16;

  Slot* FindSlot(const K& key) const {
    const auto index = static_cast<std::size_t>(key);
    const std::size_t leaf = index >> kLeafBits;
    if (leaf >= index_.size() || index_[leaf] == nullptr) {
      return nullptr;
    }
    return index_[leaf][index & (kLeafKeys - 1)];
  }

  /// The index cell of a key, growing the index to reach it.
  Slot*& IndexOf(const K& key) {
    const auto index = static_cast<std::size_t>(key);
    const std::size_t leaf = index >> kLeafBits;
    if (leaf >= index_.size()) {
      index_.resize(leaf + 1);
    }
    if (index_[leaf] == nullptr) {
      index_[leaf] = std::make_unique<Slot*[]>(kLeafKeys);
    }
    return index_[leaf][index & (kLeafKeys - 1)];
  }

  Slot* NewSlot() {
    if (free_ == nullptr) {
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
      Slot* chunk = chunks_.back().get();
      for (std::size_t i = kChunkSlots; i-- > 0;) {
        chunk[i].next = free_;
        free_ = &chunk[i];
      }
    }
    Slot* slot = free_;
    free_ = slot->next;
    return slot;
  }

  void FreeSlot(Slot* slot) {
    slot->entry.value = V{};  // release what the payload holds
    slot->prev = nullptr;
    slot->next = free_;
    free_ = slot;
  }

  void LinkFront(Slot* slot) {
    slot->prev = nullptr;
    slot->next = head_;
    if (head_ != nullptr) {
      head_->prev = slot;
    } else {
      tail_ = slot;
    }
    head_ = slot;
  }

  void Unlink(Slot* slot) {
    (slot->prev != nullptr ? slot->prev->next : head_) = slot->next;
    (slot->next != nullptr ? slot->next->prev : tail_) = slot->prev;
  }

  void MoveToFront(Slot* slot) {
    if (slot != head_) {
      Unlink(slot);
      LinkFront(slot);
    }
  }

  /// index_[key >> kLeafBits][key & (kLeafKeys - 1)] is the key's slot,
  /// null when the key is absent; a leaf no key has reached is null.
  std::vector<std::unique_ptr<Slot*[]>> index_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  Slot* free_ = nullptr;
  Slot* head_ = nullptr;  // most recently used
  Slot* tail_ = nullptr;  // least recently used
  std::size_t size_ = 0;
  std::uint64_t clock_ = 0;  // last stamp handed out
};

}  // namespace ccsim

#endif  // CCSIM_UTIL_LRU_H_
