// Open-addressing hash tables keyed by fixed-size byte arrays (hashes,
// addresses): the probe-only per-transaction indexes of the simulator
// (docs/PERF.md §13). A probe hashes the key, masks it and reads adjacent
// slots of one array, where a node-based std::unordered_* pays a divide, a
// bucket load and a node load.
#pragma once

#include <algorithm>
#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bytes.hpp"

namespace srbb {

namespace detail {
struct FlatUnit {};
}  // namespace detail

/// Map from FixedBytes<N> to a trivially copyable V. Keys and values sit
/// inline in one slot array whose capacity is a power of two (at least
/// kMinCapacity once anything is inserted). A key's probe starts at
/// `FixedBytesHasher<N>(key) & mask` and walks forward, wrapping past the
/// last slot (linear probing). The load stays at most 7/8: the insert that
/// would pass it doubles the capacity first. erase() closes its gap by
/// backward shift, so there are no tombstones and every probe chain is a
/// contiguous run of used slots.
///
/// Probe-only: there are no iterators, so the table's hash-defined slot
/// order can never reach a root, a trace or a report. A pointer returned by
/// find() or try_emplace() is valid until the next try_emplace(), erase() or
/// clear().
template <std::size_t N, class V>
class FlatMap {
  static_assert(std::is_trivially_copyable_v<V>,
                "slots are moved by plain assignment on erase and growth");

 public:
  using Key = FixedBytes<N>;
  static constexpr std::size_t kMinCapacity = 16;

  std::size_t size() const { return size_; }
  /// Slots allocated: 0 or a power of two >= kMinCapacity; size() * 8 never
  /// exceeds capacity() * 7.
  std::size_t capacity() const { return slots_.size(); }

  const V* find(const Key& key) const {
    if (size_ == 0) return nullptr;
    const Slot& slot = slots_[probe(key)];
    return slot.used ? &slot.value : nullptr;
  }
  V* find(const Key& key) {
    return const_cast<V*>(std::as_const(*this).find(key));
  }
  bool contains(const Key& key) const { return find(key) != nullptr; }

  /// Inserts `key` with the value V{args...} unless it is present. Returns
  /// the key's value and whether it was inserted.
  template <class... Args>
  std::pair<V*, bool> try_emplace(const Key& key, Args&&... args) {
    if (!slots_.empty()) {
      const std::size_t i = probe(key);
      if (slots_[i].used) return {&slots_[i].value, false};
      if ((size_ + 1) * 8 <= slots_.size() * 7) {
        return {place(i, key, std::forward<Args>(args)...), true};
      }
    }
    grow();
    return {place(probe(key), key, std::forward<Args>(args)...), true};
  }

  /// Removes `key`; false when it was absent.
  bool erase(const Key& key) {
    if (size_ == 0) return false;
    std::size_t hole = probe(key);
    if (!slots_[hole].used) return false;
    // Walk the rest of the chain. An entry whose probe path (its home slot
    // up to its own slot) passes the hole moves into it, and its old slot
    // becomes the hole. An entry whose home lies after the hole stays: a
    // probe for it never visits the hole. The chain ends at an empty slot,
    // which exists because the load is at most 7/8.
    for (std::size_t j = (hole + 1) & mask_; slots_[j].used;
         j = (j + 1) & mask_) {
      if (((j - home(slots_[j].key)) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  /// Removes every key; the capacity stays.
  void clear() {
    if (size_ == 0) return;
    for (Slot& slot : slots_) slot = Slot{};
    size_ = 0;
  }

 private:
  struct Slot {
    Key key;
    [[no_unique_address]] V value{};
    bool used = false;
  };

  std::size_t home(const Key& key) const {
    return FixedBytesHasher<N>{}(key) & mask_;
  }

  /// The slot holding `key`, or the empty slot that ends its chain.
  std::size_t probe(const Key& key) const {
    std::size_t i = home(key);
    while (slots_[i].used && !(slots_[i].key == key)) i = (i + 1) & mask_;
    return i;
  }

  template <class... Args>
  V* place(std::size_t i, const Key& key, Args&&... args) {
    Slot& slot = slots_[i];
    slot.key = key;
    slot.value = V{std::forward<Args>(args)...};
    slot.used = true;
    ++size_;
    return &slot.value;
  }

  void grow() {
    const std::vector<Slot> old = std::exchange(
        slots_, std::vector<Slot>(std::max(kMinCapacity, slots_.size() * 2)));
    mask_ = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (!slot.used) continue;
      // Keys are distinct, so the first empty slot on the path is its place.
      std::size_t i = home(slot.key);
      while (slots_[i].used) i = (i + 1) & mask_;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;  // capacity() - 1 once allocated
  std::size_t size_ = 0;
};

/// FlatMap without values: try_emplace(key).second is "inserted".
template <std::size_t N>
using FlatSet = FlatMap<N, detail::FlatUnit>;

}  // namespace srbb
