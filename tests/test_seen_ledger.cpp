// sim::SeenLedger against the seen set per node it replaced
// (tests/oracle_seen_sets.hpp). Each seed runs a random program of mark,
// seen and forget over one committee size; the sizes straddle the 64-bit
// word boundaries of a ledger row. Every answer, and the whole table at the
// end, must match.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "oracle_seen_sets.hpp"
#include "sim/gossip.hpp"

namespace srbb::sim {
namespace {

constexpr std::uint64_t kSeeds = 200;
constexpr std::array<std::size_t, 6> kSizes = {1, 4, 63, 64, 65, 200};

/// Node for the next operation: word-boundary ranks (0, 63, 64, n - 1) as
/// often as a uniform pick.
NodeId pick_node(Rng& rng, std::size_t n) {
  const std::array<std::size_t, 4> edges = {0, 63, 64, n - 1};
  if (rng.next_bool(0.5)) {
    const std::size_t edge = edges[rng.next_below(edges.size())];
    if (edge < n) return static_cast<NodeId>(edge);
  }
  return static_cast<NodeId>(rng.next_below(n));
}

/// Runs one seeded program; returns the number of mismatching answers.
std::uint64_t run_program(std::uint64_t seed) {
  const std::size_t n = kSizes[seed % kSizes.size()];
  Rng rng{seed * 0x9E3779B97F4A7C15ull + 1};
  std::vector<Hash32> hashes(24 + rng.next_below(40));
  for (Hash32& hash : hashes) {
    for (std::uint8_t& byte : hash) {
      byte = static_cast<std::uint8_t>(rng.next_u64());
    }
  }

  SeenLedger ledger{n};
  oracle::SeenSets sets{n};
  std::uint64_t mismatches = 0;
  const std::size_t ops = 400 + rng.next_below(800);
  for (std::size_t op = 0; op < ops; ++op) {
    const NodeId node = pick_node(rng, n);
    const Hash32& hash = hashes[rng.next_below(hashes.size())];
    const std::uint64_t kind = rng.next_below(100);
    if (kind < 45) {
      ledger.mark(node, hash);
      sets.mark(node, hash);
    } else if (kind < 92) {
      mismatches += ledger.seen(node, hash) != sets.seen(node, hash);
    } else {
      ledger.forget(node);
      sets.forget(node);
    }
  }
  for (NodeId node = 0; node < n; ++node) {
    for (const Hash32& hash : hashes) {
      mismatches += ledger.seen(node, hash) != sets.seen(node, hash);
    }
  }
  mismatches += ledger.rows() != sets.rows();
  return mismatches;
}

TEST(SeenLedgerDifferential, MatchesPerNodeSetsOn200Programs) {
  std::uint64_t failed_seeds = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const std::uint64_t mismatches = run_program(seed);
    EXPECT_EQ(mismatches, 0u) << "seed " << seed << ", n = "
                              << kSizes[seed % kSizes.size()];
    failed_seeds += mismatches != 0;
  }
  EXPECT_EQ(failed_seeds, 0u) << failed_seeds << " of " << kSeeds
                              << " programs diverged";
}

TEST(SeenLedger, ForgetClearsOnlyThatNodesColumn) {
  SeenLedger ledger{130};
  Hash32 a;
  a[0] = 1;
  Hash32 b;
  b[0] = 2;
  for (const NodeId node : {0u, 63u, 64u, 65u, 129u}) {
    ledger.mark(node, a);
    ledger.mark(node, b);
  }
  ledger.forget(64);
  EXPECT_FALSE(ledger.seen(64, a));
  EXPECT_FALSE(ledger.seen(64, b));
  for (const NodeId node : {0u, 63u, 65u, 129u}) {
    EXPECT_TRUE(ledger.seen(node, a)) << node;
    EXPECT_TRUE(ledger.seen(node, b)) << node;
  }
  EXPECT_FALSE(ledger.seen(1, a));
  EXPECT_EQ(ledger.rows(), 2u);  // forget keeps the rows
}

TEST(SeenLedger, OverlayOwnsOneLedgerSizedToItsNodes) {
  GossipOverlay overlay{70, 4, 3};
  Hash32 hash;
  hash[5] = 9;
  EXPECT_EQ(overlay.seen_ledger().rows(), 0u);
  overlay.seen_ledger().mark(69, hash);
  EXPECT_TRUE(overlay.seen_ledger().seen(69, hash));
  EXPECT_FALSE(overlay.seen_ledger().seen(68, hash));
  EXPECT_EQ(overlay.seen_ledger().rows(), 1u);
}

}  // namespace
}  // namespace srbb::sim
