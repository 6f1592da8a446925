#ifndef CCSIM_UTIL_LRU_H_
#define CCSIM_UTIL_LRU_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>

#include "util/macros.h"

namespace ccsim {

/// An LRU index over keys of type K with per-entry payload V.
///
/// The table does not bound its own size; callers implementing a replacement
/// policy query VictimCandidate() (the least recently used *evictable* entry)
/// and call Erase(). Entries can be pinned to exclude them from victim
/// selection — the client cache pins pages touched by the current
/// transaction, the server buffer pool pins pages mid-I/O.
template <typename K, typename V>
class LruTable {
 public:
  struct Entry {
    K key;
    V value;
    int pin_count = 0;
    /// Recency stamp, raised on every insert and touch: ordering entries
    /// by descending stamp reproduces the list's MRU-to-LRU order.
    std::uint64_t stamp = 0;
  };

  LruTable() = default;
  LruTable(const LruTable&) = delete;
  LruTable& operator=(const LruTable&) = delete;

  std::size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }

  bool Contains(const K& key) const { return map_.count(key) > 0; }

  /// Looks up an entry and, if found, marks it most recently used.
  V* Touch(const K& key) {
    auto it = map_.find(key);
    if (it == map_.end()) {
      return nullptr;
    }
    list_.splice(list_.begin(), list_, it->second);
    it->second->stamp = ++clock_;
    return &it->second->value;
  }

  /// Looks up an entry without changing recency order.
  V* Find(const K& key) {
    auto it = map_.find(key);
    if (it == map_.end()) {
      return nullptr;
    }
    return &it->second->value;
  }
  const V* Find(const K& key) const {
    auto it = map_.find(key);
    if (it == map_.end()) {
      return nullptr;
    }
    return &it->second->value;
  }

  /// Looks up the whole entry (pin count and stamp included) without
  /// changing recency order.
  Entry* FindEntry(const K& key) {
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : &*it->second;
  }

  /// Inserts a new entry as most recently used. Fatal if the key exists.
  V* Insert(const K& key, V value) {
    const auto [entry, inserted] = TouchOrInsert(key, std::move(value));
    CCSIM_CHECK(inserted);
    return &entry->value;
  }

  /// Marks an existing entry most recently used, or inserts `value` as a
  /// new most recently used entry; one hash lookup either way. Returns the
  /// entry and whether it was inserted.
  std::pair<Entry*, bool> TouchOrInsert(const K& key, V value) {
    const auto [it, inserted] = map_.try_emplace(key);
    if (inserted) {
      list_.push_front(Entry{key, std::move(value), 0, 0});
      it->second = list_.begin();
    } else {
      list_.splice(list_.begin(), list_, it->second);
    }
    it->second->stamp = ++clock_;
    return {&*it->second, inserted};
  }

  /// Removes an entry. Returns true if it existed.
  bool Erase(const K& key) {
    auto it = map_.find(key);
    if (it == map_.end()) {
      return false;
    }
    list_.erase(it->second);
    map_.erase(it);
    return true;
  }

  /// Pins an entry, excluding it from victim selection, and returns it.
  /// Fatal if missing.
  Entry& Pin(const K& key) {
    auto it = map_.find(key);
    CCSIM_CHECK(it != map_.end());
    ++it->second->pin_count;
    return *it->second;
  }

  /// Releases one pin. Fatal if missing or not pinned.
  void Unpin(const K& key) {
    auto it = map_.find(key);
    CCSIM_CHECK(it != map_.end());
    CCSIM_CHECK(it->second->pin_count > 0);
    --it->second->pin_count;
  }

  /// True if the entry exists and is pinned.
  bool IsPinned(const K& key) const {
    auto it = map_.find(key);
    return it != map_.end() && it->second->pin_count > 0;
  }

  /// Returns the least-recently-used unpinned entry, or nullptr if every
  /// entry is pinned (or the table is empty).
  const Entry* VictimCandidate() const {
    for (auto it = list_.rbegin(); it != list_.rend(); ++it) {
      if (it->pin_count == 0) {
        return &*it;
      }
    }
    return nullptr;
  }

  /// Iterates over all entries in MRU-to-LRU order. The mutable overload
  /// may change values and pins, but not keys or membership.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Entry& e : list_) {
      fn(e);
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (Entry& e : list_) {
      fn(e);
    }
  }

  /// Removes every entry.
  void Clear() {
    list_.clear();
    map_.clear();
  }

 private:
  std::list<Entry> list_;  // front = most recently used
  std::unordered_map<K, typename std::list<Entry>::iterator> map_;
  std::uint64_t clock_ = 0;  // last stamp handed out
};

}  // namespace ccsim

#endif  // CCSIM_UTIL_LRU_H_
