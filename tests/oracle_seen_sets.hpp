// Differential oracle: gossip dedup state as it stood before sim::SeenLedger
// (sim/gossip.hpp), one std::unordered_set<Hash32> per node, which the node
// inserted into on first sight of a transaction and cleared when it crashed.
// Only tests include this file.
#pragma once

#include <cstddef>
#include <unordered_set>
#include <vector>

#include "common/bytes.hpp"
#include "sim/network.hpp"

namespace srbb::sim::oracle {

class SeenSets {
 public:
  explicit SeenSets(std::size_t node_count) : sets_(node_count) {}

  bool seen(NodeId node, const Hash32& hash) const {
    return sets_[node].contains(hash);
  }
  void mark(NodeId node, const Hash32& hash) {
    sets_[node].insert(hash);
    ever_.insert(hash);
  }
  void forget(NodeId node) { sets_[node].clear(); }

  /// Distinct hashes ever marked by any node (SeenLedger::rows).
  std::size_t rows() const { return ever_.size(); }

 private:
  std::vector<std::unordered_set<Hash32, Hash32Hasher>> sets_;
  std::unordered_set<Hash32, Hash32Hasher> ever_;
};

}  // namespace srbb::sim::oracle
