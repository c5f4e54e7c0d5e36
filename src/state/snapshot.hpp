// Flat snapshot bookkeeping for StateDB's backend mode (docs/STATE.md).
//
// In backend mode the account map doubles as a bounded resident cache over
// the storage backend: reads hit the flat map in O(1) when the account is
// resident and fault the record in when it is not. FlatSnapshot tracks the
// bookkeeping around that cache — which addresses are resident, which are
// dirty (must be flushed at the next commit), and the deterministic FIFO
// order clean entries are evicted in once the cache exceeds its capacity.
// It never stores account data itself; StateDB's map stays the single store
// so the default (no-backend) configuration is untouched.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_set>
#include <vector>

#include "common/bytes.hpp"

namespace srbb::state {

class FlatSnapshot {
 public:
  /// Max clean resident entries kept after plan_eviction() (0 = unbounded).
  void set_capacity(std::size_t capacity) { capacity_ = capacity; }
  std::size_t capacity() const { return capacity_; }

  // --- residency ---
  /// An account entered the resident map (created, restored, or faulted in).
  void note_resident(const Address& addr);
  /// An account left the resident map (deleted or evicted by the caller).
  void note_erased(const Address& addr);
  bool resident(const Address& addr) const { return resident_.contains(addr); }

  // --- dirty tracking ---
  /// The account's record changed since the last flush; it must be written
  /// to the backend at the next commit and is exempt from eviction.
  void mark_dirty(const Address& addr) { dirty_.insert(addr); }
  bool dirty(const Address& addr) const { return dirty_.contains(addr); }
  /// Drain the dirty set in ascending address order (flush iteration must be
  /// deterministic — the backend's record sequence is replayed on reopen).
  std::vector<Address> take_dirty_sorted();

  // --- eviction ---
  /// Addresses to drop from the resident map to get back under capacity:
  /// clean entries in first-became-resident order. The returned addresses
  /// are already removed from the resident set here; the caller erases the
  /// map entries. Dirty entries are skipped (and keep their queue slot).
  std::vector<Address> plan_eviction();

 private:
  std::size_t capacity_ = 0;
  std::unordered_set<Address, AddressHasher> resident_;
  std::unordered_set<Address, AddressHasher> dirty_;
  // Residency order; may hold stale (no longer resident) entries, which
  // plan_eviction() skips lazily.
  std::deque<Address> fifo_;
};

}  // namespace srbb::state
