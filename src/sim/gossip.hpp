// Static random overlay used for per-transaction gossip in the modern-
// blockchain protocol (Alg. 1 line 9) and for block dissemination. Each node
// gets `fanout` distinct peers; the graph is connected by construction (a
// random ring plus random extra edges), deterministic in the seed. The
// overlay also owns the run's SeenLedger, the gossip dedup state of every
// node on it.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/flat_table.hpp"
#include "sim/network.hpp"

namespace srbb::sim {

/// Which node has seen which gossiped transaction, for a whole run: one row
/// per distinct hash, one bit per node. It answers exactly what a seen set
/// per node answered, but holds each hash once instead of once per node
/// (docs/PERF.md §11). Rows are never removed.
class SeenLedger {
 public:
  explicit SeenLedger(std::size_t node_count);

  bool seen(NodeId node, const Hash32& hash) const;
  void mark(NodeId node, const Hash32& hash);
  /// Clear `node`'s bit in every row, as clearing its own set would (crash).
  void forget(NodeId node);

  /// Distinct hashes marked so far; forget() keeps the rows.
  std::size_t rows() const { return row_of_.size(); }

 private:
  std::size_t node_count_;
  std::size_t stride_;  // words per row: ceil(node_count / 64)
  FlatMap<32, std::uint32_t> row_of_;
  std::vector<std::uint64_t> bits_;  // row r is words [r * stride_, +stride_)
};

class GossipOverlay {
 public:
  GossipOverlay(std::size_t node_count, std::size_t fanout, std::uint64_t seed);

  const std::vector<NodeId>& peers(NodeId node) const { return peers_[node]; }
  std::size_t node_count() const { return peers_.size(); }

  /// Send `message` to `node`'s overlay peers below `limit` (the validators)
  /// other than `skip`, in overlay order, as one SimNode::multicast; the
  /// number of copies sent.
  std::size_t gossip(SimNode& node, std::size_t limit,
                     std::optional<NodeId> skip, const MessagePtr& message);

  /// The transactions each node has seen. One overlay serves one simulation.
  SeenLedger& seen_ledger() { return seen_; }

  /// True when every node can reach every other (sanity check for tests).
  bool connected() const;

 private:
  std::vector<std::vector<NodeId>> peers_;
  SeenLedger seen_;
  // gossip()'s recipients, reused: multicast only queues deliveries, so no
  // handler runs (and gossips) while it is filled.
  std::vector<NodeId> targets_;
};

}  // namespace srbb::sim
