// Tuning knobs for the state stack (docs/STATE.md). The default reproduces
// the seed StateDB behaviour bit-for-bit: fully resident accounts, no
// backend. The knob matters only when a StateDB is constructed over a
// StorageBackend.
#pragma once

#include <cstddef>

namespace srbb::state {

struct StateConfig {
  /// Max resident accounts kept in the flat snapshot cache after a commit
  /// (0 = unbounded). Dirty (uncommitted) entries are never evicted;
  /// eviction is deterministic FIFO over clean entries.
  std::size_t snapshot_capacity = 0;
};

}  // namespace srbb::state
