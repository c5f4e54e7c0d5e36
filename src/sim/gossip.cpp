#include "sim/gossip.hpp"

#include <algorithm>
#include <numeric>

#include "common/invariant.hpp"
#include "common/rng.hpp"

namespace srbb::sim {

SeenLedger::SeenLedger(std::size_t node_count)
    : node_count_(node_count), stride_((node_count + 63) / 64) {}

bool SeenLedger::seen(NodeId node, const Hash32& hash) const {
  SRBB_CHECK(node < node_count_);
  const std::uint32_t* row = row_of_.find(hash);
  if (row == nullptr) return false;
  const std::uint64_t word = bits_[*row * stride_ + node / 64];
  return ((word >> (node % 64)) & 1u) != 0;
}

void SeenLedger::mark(NodeId node, const Hash32& hash) {
  SRBB_CHECK(node < node_count_);
  const auto [row, fresh] =
      row_of_.try_emplace(hash, static_cast<std::uint32_t>(row_of_.size()));
  if (fresh) {
    SRBB_CHECK(row_of_.size() <= UINT32_MAX);
    bits_.resize(bits_.size() + stride_, 0);
  }
  bits_[*row * stride_ + node / 64] |= std::uint64_t{1} << (node % 64);
}

void SeenLedger::forget(NodeId node) {
  SRBB_CHECK(node < node_count_);
  const std::uint64_t keep = ~(std::uint64_t{1} << (node % 64));
  for (std::size_t w = node / 64; w < bits_.size(); w += stride_) {
    bits_[w] &= keep;
  }
}

GossipOverlay::GossipOverlay(std::size_t node_count, std::size_t fanout,
                             std::uint64_t seed)
    : seen_(node_count) {
  peers_.resize(node_count);
  if (node_count <= 1) return;
  fanout = std::min(fanout, node_count - 1);
  Rng rng{seed};

  // Random ring for guaranteed connectivity.
  std::vector<NodeId> ring(node_count);
  std::iota(ring.begin(), ring.end(), 0u);
  for (std::size_t i = ring.size(); i > 1; --i) {
    std::swap(ring[i - 1], ring[rng.next_below(i)]);
  }
  const auto add_edge = [this](NodeId a, NodeId b) {
    if (a == b) return;
    auto& pa = peers_[a];
    if (std::find(pa.begin(), pa.end(), b) == pa.end()) pa.push_back(b);
    auto& pb = peers_[b];
    if (std::find(pb.begin(), pb.end(), a) == pb.end()) pb.push_back(a);
  };
  for (std::size_t i = 0; i < node_count; ++i) {
    add_edge(ring[i], ring[(i + 1) % node_count]);
  }

  // Random extra edges until every node has at least `fanout` peers.
  for (NodeId node = 0; node < node_count; ++node) {
    std::size_t attempts = 0;
    while (peers_[node].size() < fanout && attempts < 16 * node_count) {
      add_edge(node, static_cast<NodeId>(rng.next_below(node_count)));
      ++attempts;
    }
  }
}

std::size_t GossipOverlay::gossip(SimNode& node, std::size_t limit,
                                  std::optional<NodeId> skip,
                                  const MessagePtr& message) {
  targets_.clear();
  for (const NodeId peer : peers_[node.id()]) {
    if (peer < limit && peer != skip) targets_.push_back(peer);
  }
  node.multicast(targets_, message);
  return targets_.size();
}

bool GossipOverlay::connected() const {
  if (peers_.empty()) return true;
  std::vector<bool> seen(peers_.size(), false);
  std::vector<NodeId> stack{0};
  seen[0] = true;
  std::size_t visited = 1;
  while (!stack.empty()) {
    const NodeId current = stack.back();
    stack.pop_back();
    for (const NodeId peer : peers_[current]) {
      if (!seen[peer]) {
        seen[peer] = true;
        ++visited;
        stack.push_back(peer);
      }
    }
  }
  return visited == peers_.size();
}

}  // namespace srbb::sim
