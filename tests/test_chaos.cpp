// Chaos harness (ISSUE: robustness): the SRBB validator network under
// scripted and randomized fault injection. Every scenario asserts the two
// properties of DESIGN.md §7:
//
//  safety   — correct validators never diverge: their chain digests agree on
//             the common committed prefix and replicated execution converges
//             to identical state roots;
//  liveness — once the plan's faults heal (partitions lift, crashed nodes
//             restart and catch up), the commit frontier advances again
//             within a bound.
//
// Runs are pure functions of (workload seed, fault seed): each scenario can
// be replayed bit-for-bit, which the determinism tests check by running the
// same seed twice and comparing run fingerprints. tools/chaos_soak.sh sweeps
// seed ranges through these tests via the SRBB_CHAOS_SEED_BASE /
// SRBB_CHAOS_SEEDS environment overrides.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "crypto/sha256.hpp"
#include "obs/trace.hpp"
#include "sim/fault.hpp"
#include "srbb/validator.hpp"

namespace srbb::node {
namespace {

const crypto::SignatureScheme& scheme() {
  return crypto::SignatureScheme::fast_sim();
}

// Seed-range overrides so the soak script can sweep without recompiling.
std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

class ChaosClient : public sim::SimNode {
 public:
  using sim::SimNode::SimNode;

  void handle_message(sim::NodeId, const sim::MessagePtr& message) override {
    if (const auto* ack = dynamic_cast<const CommitAckMsg*>(message.get())) {
      if (acked_.insert(ack->tx_hash).second) ++commits_observed;
    }
  }

  void submit(sim::NodeId validator, const txn::TxPtr& tx) {
    auto msg = std::make_shared<ClientTxMsg>();
    msg->tx = tx;
    send(validator, msg);
  }

  std::uint64_t commits_observed = 0;

 private:
  std::set<Hash32> acked_;
};

struct ChaosOptions {
  std::uint32_t n = 4;
  std::uint32_t f = 1;
  bool tvpr = true;
  bool parallel_execution = false;  // ChaosParallel.* (TSan subset) sets this
  /// One ExecutionOracle for every validator (the benchmark configuration)
  /// instead of a private, crash-reset oracle per replica.
  bool shared_oracle = false;
  /// Adaptive membership (DESIGN.md §13): reliability scoring + the bounded
  /// disabled list. ChaosChurn.* scenarios set this.
  bool adaptive = false;
  SimDuration rebroadcast_interval = millis(200);
  CostModel costs;
  sim::FaultPlan plan;
  // Workload: `tx_count` transfers, one every `tx_interval`, submitted
  // round-robin across validators starting at t = 100ms.
  std::size_t tx_count = 60;
  SimDuration tx_interval = millis(40);
  std::size_t accounts = 8;
  /// Commit-path trace sink (not owned); wired through the network's fault
  /// attribution and every validator when non-null.
  obs::TraceSink* trace = nullptr;
};

struct ChaosNet {
  sim::Simulation sim;
  std::unique_ptr<sim::Network> network;
  sim::FaultInjector injector;
  sim::GossipOverlay overlay;
  GenesisSpec genesis;
  std::shared_ptr<rpm::RewardPenaltyMechanism> rpm_contract;
  std::vector<std::unique_ptr<ValidatorNode>> validators;
  std::unique_ptr<ChaosClient> client;
  std::vector<crypto::Identity> senders;

  explicit ChaosNet(const ChaosOptions& opts)
      : injector(opts.plan), overlay(opts.n, 4, 7) {
    sim::NetworkConfig net_config;
    net_config.latency = sim::LatencyModel::uniform(1, millis(5));
    network = std::make_unique<sim::Network>(sim, net_config);
    network->set_fault_injector(&injector);
    network->set_trace(opts.trace);

    for (std::size_t i = 0; i < opts.accounts; ++i) {
      senders.push_back(scheme().make_identity(1000 + i));
      genesis.accounts.push_back(
          {senders.back().address(), U256{1'000'000'000}});
    }

    rpm::RpmConfig rpm_config;
    rpm_config.n = opts.n;
    rpm_config.f = opts.f;
    rpm_config.scheme = &scheme();
    rpm_contract = std::make_shared<rpm::RewardPenaltyMechanism>(rpm_config);

    evm::BlockContext block_template;
    std::shared_ptr<ExecutionOracle> shared;
    if (opts.shared_oracle) {
      shared =
          std::make_shared<ExecutionOracle>(genesis, block_template, scheme());
    }
    for (std::uint32_t rank = 0; rank < opts.n; ++rank) {
      ValidatorConfig config;
      config.n = opts.n;
      config.f = opts.f;
      config.self = rank;
      config.tvpr = opts.tvpr;
      config.rpm = false;  // shared RPM contract + crash replay don't mix
      config.scheme = &scheme();
      config.min_block_interval = millis(100);
      config.proposal_timeout = millis(300);
      config.rebroadcast_interval = opts.rebroadcast_interval;
      config.costs = opts.costs;
      // Replicated execution, reset on crash, unless the oracle is shared.
      config.oracle_private = !opts.shared_oracle;
      // The default sync backoff (250ms << 4 = 4s cap) is sized for WAN
      // RTTs; at the sim's millisecond RTTs an unlucky streak of dropped
      // responses would push the next retry past the liveness probe window.
      config.sync_request_timeout = millis(150);
      config.sync_backoff_cap = 2;
      config.adaptive_membership = opts.adaptive;
      config.trace = opts.trace;
      auto oracle = opts.shared_oracle
                        ? shared
                        : std::make_shared<ExecutionOracle>(
                              genesis, block_template, scheme());
      if (opts.parallel_execution) {
        oracle->exec_config().parallel = true;
        oracle->exec_config().workers = 2;
      }
      validators.push_back(std::make_unique<ValidatorNode>(
          sim, rank, 0, config, std::move(oracle), rpm_contract, &overlay));
      network->attach(validators.back().get());
    }
    client = std::make_unique<ChaosClient>(sim, opts.n, 0u);
    network->attach(client.get());

    injector.arm(
        sim,
        [this](sim::NodeId node) {
          if (node < validators.size()) validators[node]->crash();
        },
        [this](sim::NodeId node) {
          if (node < validators.size()) validators[node]->restart();
        });

    for (auto& validator : validators) validator->start();

    // Deterministic workload: fixed submission times, round-robin target.
    for (std::size_t i = 0; i < opts.tx_count; ++i) {
      const sim::NodeId target =
          static_cast<sim::NodeId>(i % validators.size());
      const SimTime when =
          millis(100) + static_cast<SimDuration>(i) * opts.tx_interval;
      const txn::TxPtr tx = workload_tx(i);
      sim.schedule_at(when, [this, target, tx] { client->submit(target, tx); });
    }
  }

  /// The i-th transfer of the deterministic workload: sender i mod accounts,
  /// with that sender's next nonce.
  txn::TxPtr workload_tx(std::size_t i) const {
    txn::TxParams params;
    params.nonce = i / senders.size();
    params.to = scheme().make_identity(5).address();
    params.value = U256{100};
    return txn::make_tx_ptr(
        txn::make_signed(params, senders[i % senders.size()], scheme()));
  }

  void run_until(SimTime deadline) { sim.run_until(deadline); }

  std::uint64_t min_height() const {
    std::uint64_t height = UINT64_MAX;
    for (const auto& validator : validators) {
      height = std::min(height, validator->chain_height());
    }
    return height;
  }

  /// Commit frontier over the validators that are up (crashed nodes sit at
  /// height 0 after the wipe and would mask the live committee's progress).
  /// `skip` additionally excludes one rank (e.g. a flapping node that is
  /// technically up but perpetually resyncing).
  std::uint64_t live_min_height(std::uint32_t skip = UINT32_MAX) const {
    std::uint64_t height = UINT64_MAX;
    for (std::size_t i = 0; i < validators.size(); ++i) {
      if (i == skip || validators[i]->crashed()) continue;
      height = std::min(height, validators[i]->chain_height());
    }
    return height == UINT64_MAX ? 0 : height;
  }

  /// Per-validator progress snapshot, printed when SRBB_CHAOS_DEBUG is set.
  void debug_dump() const {
    if (std::getenv("SRBB_CHAOS_DEBUG") == nullptr) return;
    for (std::size_t i = 0; i < validators.size(); ++i) {
      const auto& v = *validators[i];
      std::printf(
          "v%zu h=%llu crashed=%d syncing=%d synced=%llu committed=%llu "
          "sync_req_served=%llu fetched=%llu timeouts=%llu\n",
          i, (unsigned long long)v.chain_height(), v.crashed(), v.syncing(),
          (unsigned long long)v.metrics().superblocks_synced,
          (unsigned long long)v.metrics().superblocks_committed,
          (unsigned long long)v.metrics().sync_requests_served,
          (unsigned long long)v.sync_stats().superblocks_fetched,
          (unsigned long long)v.sync_stats().timeouts);
      std::printf("   crashes=%llu restarts=%llu sync_active=%d next=%llu "
                  "target=%llu\n",
                  (unsigned long long)v.metrics().crashes,
                  (unsigned long long)v.metrics().restarts,
                  v.catch_up().active(),
                  (unsigned long long)v.catch_up().next_index(),
                  (unsigned long long)v.catch_up().target_height());
      const auto* inst = v.instance(v.chain_height());
      if (inst != nullptr) {
        std::printf("   round=%llu complete=%d decided=%u ones=%u\n",
                    (unsigned long long)v.current_round(), inst->complete(),
                    inst->decided_count(), inst->ones_decided());
        for (std::uint32_t s = 0; s < 4; ++s) {
          const auto sd = inst->slot_debug(s);
          std::printf(
              "     slot%u dec=%d val=%d blk=%d dlv=%d pull=%d ech=%zu "
              "bst=%d brnd=%u dv0=%zu dv1=%zu\n",
              s, sd.bin_decided, sd.bin_value, sd.has_block, sd.delivered,
              sd.pulling, sd.echoers, sd.bin_started, sd.bin_round,
              sd.decided_votes[0], sd.decided_votes[1]);
        }
      } else {
        std::printf("   round=%llu no-instance\n",
                    (unsigned long long)v.current_round());
      }
    }
  }

  /// Safety (Def. 1 agreement): every pair of validators agrees on the
  /// common prefix of chain digests, and replicated execution produced the
  /// same digest (the digest folds in the state root) at every height.
  void expect_no_divergence() const {
    for (std::size_t a = 0; a < validators.size(); ++a) {
      for (std::size_t b = a + 1; b < validators.size(); ++b) {
        const auto& ca = validators[a]->chain();
        const auto& cb = validators[b]->chain();
        const std::size_t common = std::min(ca.size(), cb.size());
        for (std::size_t i = 0; i < common; ++i) {
          ASSERT_EQ(ca[i], cb[i])
              << "chain divergence between validators " << a << " and " << b
              << " at height " << i;
        }
      }
    }
  }

  /// Bit-for-bit run fingerprint: chains, state roots, and the counters that
  /// summarize every fault decision and recovery action.
  Hash32 fingerprint() const {
    crypto::Sha256 digest;
    const auto fold_u64 = [&digest](std::uint64_t value) {
      std::array<std::uint8_t, 8> bytes{};
      for (std::size_t i = 0; i < 8; ++i) {
        bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
      }
      digest.update(BytesView{bytes.data(), bytes.size()});
    };
    for (const auto& validator : validators) {
      for (const Hash32& link : validator->chain()) digest.update(link.view());
      digest.update(validator->last_state_root().view());
      fold_u64(validator->chain_height());
      const ValidatorNode::Metrics& m = validator->metrics();
      fold_u64(m.superblocks_committed);
      fold_u64(m.txs_committed_valid);
      fold_u64(m.txs_discarded_invalid);
      fold_u64(m.gossip_dups_suppressed);
      fold_u64(m.crashes);
      fold_u64(m.restarts);
      fold_u64(m.superblocks_synced);
      fold_u64(m.membership_disables);
      fold_u64(m.membership_readmissions);
      fold_u64(m.membership_removals);
      // Byte-determinism of disabling/re-admission: the tracker digest folds
      // scores, streaks, statuses, and the full event log.
      if (validator->reliability() != nullptr) {
        digest.update(validator->reliability()->fingerprint().view());
      }
      const sim::NodeStats& s = validator->stats();
      fold_u64(s.messages_sent);
      fold_u64(s.messages_received);
      fold_u64(s.messages_dropped);
      fold_u64(s.messages_duplicated);
      fold_u64(s.partition_blocked);
    }
    const sim::FaultStats& fs = injector.stats();
    fold_u64(fs.dropped);
    fold_u64(fs.duplicated);
    fold_u64(fs.reordered);
    fold_u64(fs.partition_blocked);
    fold_u64(fs.crash_blocked);
    fold_u64(client->commits_observed);
    return digest.finish();
  }
};

// ---------------------------------------------------------------------------
// FaultInjector unit behaviour
// ---------------------------------------------------------------------------

TEST(FaultInjectorUnit, CertainDropAlwaysDropsAndQuietAlwaysDelivers) {
  sim::FaultPlan drop_all;
  drop_all.default_link.drop = 1.0;
  sim::FaultInjector dropper{drop_all};
  for (int i = 0; i < 64; ++i) {
    EXPECT_FALSE(dropper.judge(0, 1, millis(i)).deliver);
  }
  EXPECT_EQ(dropper.stats().dropped, 64u);

  sim::FaultInjector quiet{sim::FaultPlan{}};
  for (int i = 0; i < 64; ++i) {
    const auto verdict = quiet.judge(0, 1, millis(i));
    EXPECT_TRUE(verdict.deliver);
    EXPECT_EQ(verdict.copies, 1u);
    EXPECT_EQ(verdict.extra_delay, 0u);
  }
}

TEST(FaultInjectorUnit, SymmetricPartitionBlocksBothWaysAndHeals) {
  sim::FaultPlan plan;
  plan.partitions.push_back({seconds(1), seconds(2), {0, 1}, false});
  sim::FaultInjector injector{plan};

  EXPECT_FALSE(injector.link_blocked(0, 2, millis(500)));
  EXPECT_TRUE(injector.link_blocked(0, 2, millis(1500)));   // island -> out
  EXPECT_TRUE(injector.link_blocked(2, 0, millis(1500)));   // out -> island
  EXPECT_FALSE(injector.link_blocked(0, 1, millis(1500)));  // intra-island
  EXPECT_FALSE(injector.link_blocked(2, 3, millis(1500)));  // intra-outside
  EXPECT_FALSE(injector.link_blocked(0, 2, millis(2500)));  // healed
}

TEST(FaultInjectorUnit, AsymmetricPartitionBlocksOnlyOutbound) {
  sim::FaultPlan plan;
  plan.partitions.push_back({seconds(1), seconds(2), {0}, true});
  sim::FaultInjector injector{plan};

  EXPECT_TRUE(injector.link_blocked(0, 2, millis(1500)));   // island mute
  EXPECT_FALSE(injector.link_blocked(2, 0, millis(1500)));  // still hears
}

TEST(FaultInjectorUnit, CrashWindowTracksDownNodes) {
  sim::FaultPlan plan;
  plan.crashes.push_back({2, seconds(1), seconds(3)});
  sim::FaultInjector injector{plan};

  EXPECT_FALSE(injector.node_down(2, millis(999)));
  EXPECT_TRUE(injector.node_down(2, seconds(1)));
  EXPECT_TRUE(injector.node_down(2, millis(2999)));
  EXPECT_FALSE(injector.node_down(2, seconds(3)));  // restarted
  EXPECT_FALSE(injector.node_down(1, seconds(2)));  // other nodes up
  // Sends to (and from) a down node are blocked, not randomly dropped.
  EXPECT_FALSE(injector.judge(0, 2, seconds(2)).deliver);
  EXPECT_EQ(injector.stats().crash_blocked, 1u);
  EXPECT_EQ(injector.stats().dropped, 0u);
}

TEST(FaultInjectorUnit, JudgeStreamIsSeedDeterministic) {
  sim::FaultPlan plan;
  plan.seed = 99;
  plan.default_link.drop = 0.3;
  plan.default_link.duplicate = 0.2;
  plan.default_link.reorder = 0.2;

  sim::FaultInjector a{plan};
  sim::FaultInjector b{plan};
  for (int i = 0; i < 256; ++i) {
    const auto va = a.judge(0, 1, millis(i));
    const auto vb = b.judge(0, 1, millis(i));
    EXPECT_EQ(va.deliver, vb.deliver);
    EXPECT_EQ(va.copies, vb.copies);
    EXPECT_EQ(va.extra_delay, vb.extra_delay);
  }

  // A different seed produces a different decision stream.
  plan.seed = 100;
  sim::FaultInjector c{plan};
  plan.seed = 99;
  sim::FaultInjector a2{plan};
  bool any_difference = false;
  for (int i = 0; i < 256 && !any_difference; ++i) {
    const auto va = a2.judge(0, 1, millis(i));
    const auto vc = c.judge(0, 1, millis(i));
    any_difference = va.deliver != vc.deliver || va.copies != vc.copies ||
                     va.extra_delay != vc.extra_delay;
  }
  EXPECT_TRUE(any_difference);
}

TEST(FaultInjectorUnit, RandomizedPlanIsAFunctionOfItsSeed) {
  const sim::FaultPlan a = sim::FaultPlan::randomized(4, seconds(6), 7);
  const sim::FaultPlan b = sim::FaultPlan::randomized(4, seconds(6), 7);
  EXPECT_EQ(a.default_link.drop, b.default_link.drop);
  EXPECT_EQ(a.default_link.duplicate, b.default_link.duplicate);
  EXPECT_EQ(a.partitions.size(), b.partitions.size());
  EXPECT_EQ(a.crashes.size(), b.crashes.size());
  EXPECT_LE(a.default_link.drop, 0.2);

  // Every partition heals and every crash restarts inside the horizon, so a
  // run outlasting the horizon always reaches a fault-free steady state.
  for (const auto& partition : a.partitions) {
    EXPECT_GT(partition.until, partition.from);
    EXPECT_LE(partition.until, seconds(6));
  }
  for (const auto& crash : a.crashes) {
    EXPECT_GT(crash.restart_at, crash.at);
    EXPECT_LE(crash.restart_at, seconds(6));
  }
}

// ---------------------------------------------------------------------------
// Whole-network chaos scenarios
// ---------------------------------------------------------------------------

Hash32 crash_recovery_run(std::uint64_t seed, std::uint64_t* synced_out,
                          bool shared_oracle = false) {
  ChaosOptions opts;
  opts.shared_oracle = shared_oracle;
  opts.plan.seed = seed;
  opts.plan.default_link.drop = 0.05;
  opts.plan.default_link.duplicate = 0.05;
  opts.plan.default_link.reorder = 0.1;
  // Validator 1 crashes mid-run and restarts 1.5 simulated seconds later,
  // after the network has committed several superblocks without it.
  opts.plan.crashes.push_back({1, seconds(1), millis(2500)});
  ChaosNet net{opts};
  net.run_until(seconds(9));

  net.debug_dump();
  ValidatorNode& revenant = *net.validators[1];
  EXPECT_EQ(revenant.metrics().crashes, 1u);
  EXPECT_EQ(revenant.metrics().restarts, 1u);
  EXPECT_FALSE(revenant.crashed());
  EXPECT_FALSE(revenant.syncing()) << "catch-up sync never finished";
  // It refetched history it slept through and rejoined the frontier.
  EXPECT_GT(revenant.metrics().superblocks_synced, 0u);
  std::uint64_t max_height = 0;
  for (const auto& validator : net.validators) {
    max_height = std::max(max_height, validator->chain_height());
  }
  EXPECT_GE(revenant.chain_height() + 1, max_height);
  EXPECT_GT(net.min_height(), 5u);
  net.expect_no_divergence();
  if (synced_out != nullptr) {
    *synced_out = revenant.metrics().superblocks_synced;
  }
  return net.fingerprint();
}

// Acceptance bar from the ISSUE: a crashed-and-restarted validator provably
// catches up across >= 20 distinct seeds, each run bit-for-bit reproducible.
TEST(ChaosCrashRecovery, CatchesUpAcrossSeedsReproducibly) {
  const std::uint64_t base = env_u64("SRBB_CHAOS_SEED_BASE", 1);
  const std::uint64_t count = env_u64("SRBB_CHAOS_SEEDS", 20);
  for (std::uint64_t seed = base; seed < base + count; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::uint64_t synced_first = 0;
    const Hash32 first = crash_recovery_run(seed, &synced_first);
    const Hash32 second = crash_recovery_run(seed, nullptr);
    ASSERT_EQ(first, second) << "run is not a pure function of the seed";
  }
}

// The benchmark configuration: every validator shares one oracle, so a
// restarted validator replays memoized results and asks the oracle's
// commit-membership index with its own height. Fingerprints pinned from runs
// with a private set of committed hashes per validator.
TEST(ChaosCrashRecovery, SharedOracleReproducesPinnedFingerprints) {
  const std::array<std::pair<std::uint64_t, const char*>, 3> pinned = {{
      {1, "c22242b468fb2f85b4327aca57d55570fa98fb250c691884bda78b1032da618e"},
      {2, "badc66e360932fc2294e6816e65214771805645ac736389a3b75bf7c886798bf"},
      {3, "c9b4c782174c733d292dad9aab03d5cbad852091f68a07ea3dbaca19181993fc"},
  }};
  for (const auto& [seed, hex] : pinned) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    EXPECT_EQ(crash_recovery_run(seed, nullptr, true).hex(), hex);
  }
}

// Randomized plans at the ISSUE's fault budget (drop <= 20%, one crash):
// safety always, liveness once the plan's horizon passes and faults heal.
TEST(ChaosSoak, RandomizedPlansKeepSafetyAndRegainLiveness) {
  const std::uint64_t base = env_u64("SRBB_CHAOS_SEED_BASE", 1);
  const std::uint64_t count = env_u64("SRBB_CHAOS_SEEDS", 6);
  for (std::uint64_t seed = base; seed < base + count; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ChaosOptions opts;
    opts.plan = sim::FaultPlan::randomized(4, seconds(6), seed,
                                           /*max_drop=*/0.2,
                                           /*max_crashes=*/1);
    opts.tx_count = 80;
    ChaosNet net{opts};

    std::uint64_t height_at_horizon = 0;
    net.sim.schedule_at(seconds(6), [&net, &height_at_horizon] {
      height_at_horizon = net.min_height();
    });
    net.run_until(seconds(11));

    net.debug_dump();
    net.expect_no_divergence();
    // Liveness bound: within 5 simulated seconds of the last fault healing,
    // every validator's frontier advanced by at least two superblocks.
    EXPECT_GE(net.min_height(), height_at_horizon + 2)
        << "commit frontier stalled after faults healed";
    std::uint64_t max_height = 0;
    for (const auto& validator : net.validators) {
      max_height = std::max(max_height, validator->chain_height());
    }
    for (const auto& validator : net.validators) {
      EXPECT_FALSE(validator->crashed());
      // A lag-detection catch-up sync triggered by tail-of-window traffic may
      // legitimately still be in flight at the snapshot (it self-terminates
      // once it reaches the peers' frontier), so instead of asserting
      // !syncing() assert the property that matters: nobody was left behind.
      EXPECT_GE(validator->chain_height() + 2, max_height)
          << "validator stuck behind the commit frontier";
    }
  }
}

// A clean 2-2 symmetric split stalls consensus (no n-f quorum on either
// side); the EST/AUX/ECHO state lost inside the partition is unrecoverable
// without the re-broadcast timer, so this scenario is exactly the liveness
// hole the rebroadcast closes.
TEST(ChaosPartition, SplitStallsThenHealsViaRebroadcast) {
  ChaosOptions opts;
  opts.plan.partitions.push_back({seconds(1), seconds(3), {0, 1}, false});
  ChaosNet net{opts};

  std::uint64_t height_mid_partition = 0;
  std::uint64_t height_at_heal = 0;
  net.sim.schedule_at(millis(1500), [&net, &height_mid_partition] {
    height_mid_partition = net.min_height();
  });
  net.sim.schedule_at(seconds(3), [&net, &height_at_heal] {
    height_at_heal = net.min_height();
  });
  net.run_until(seconds(8));

  // Stall: at most one more superblock (the one already in flight at the
  // cut) decided during the two partitioned seconds.
  EXPECT_LE(height_at_heal, height_mid_partition + 1);
  // Heal: the frontier moves again, and the stalled round itself finishes.
  EXPECT_GE(net.min_height(), height_at_heal + 3);
  EXPECT_GT(net.injector.stats().partition_blocked, 0u);
  net.expect_no_divergence();
}

TEST(ChaosPartition, AsymmetricMutePartitionRecovers) {
  ChaosOptions opts;
  opts.plan.partitions.push_back({seconds(1), millis(2500), {2}, true});
  ChaosNet net{opts};
  net.run_until(seconds(8));

  // n-1 = 3 = n-f validators keep deciding while node 2 is mute; after the
  // heal its backlog of buffered rounds resolves and it rejoins the tip.
  EXPECT_GE(net.min_height() + 2, net.validators[0]->chain_height());
  EXPECT_GT(net.min_height(), 5u);
  net.expect_no_divergence();
}

// Duplicate and reordered gossip must be absorbed by the dedup layer: no
// transaction is ever committed twice, and the expensive eager validation is
// charged at most once per unique transaction (plus recycling) — the TVPR
// accounting the paper's congestion argument depends on.
TEST(ChaosGossip, DuplicatedReorderedGossipNeverDoubleCharges) {
  ChaosOptions opts;
  opts.tvpr = false;  // gossip mode: per-transaction propagation
  opts.tx_count = 24;
  // Validator-to-validator links misbehave; client links stay quiet so the
  // per-transaction accounting below is exact.
  sim::LinkFaults noisy;
  noisy.duplicate = 0.3;
  noisy.reorder = 0.3;
  for (sim::NodeId from = 0; from < 4; ++from) {
    for (sim::NodeId to = 0; to < 4; ++to) {
      if (from != to) opts.plan.links[{from, to}] = noisy;
    }
  }
  ChaosNet net{opts};
  net.run_until(seconds(8));

  EXPECT_GT(net.injector.stats().duplicated, 0u);
  std::uint64_t dups_suppressed = 0;
  for (const auto& validator : net.validators) {
    const ValidatorNode::Metrics& m = validator->metrics();
    // Every unique transaction commits exactly once, network-wide.
    EXPECT_EQ(m.txs_committed_valid, opts.tx_count);
    // Eager validation ran at most once per unique transaction (client or
    // gossip path) plus undecided-block recycling — duplicates only ever hit
    // the O(1) dedup lookup.
    EXPECT_LE(m.eager_validations, opts.tx_count + m.txs_recycled);
    dups_suppressed += m.gossip_dups_suppressed;
  }
  EXPECT_GT(dups_suppressed, 0u);
  net.expect_no_divergence();
}

// A slow proposer's blocks miss the cut and decide 0, so every validator
// recycles them (Alg. 1 lines 27-31) in the commit of the same index. In
// gossip mode those blocks repeat transactions that the decided blocks of
// that index just committed: recycling must see them as already on the
// chain (the commit height counts the index being committed) instead of
// re-validating them into nonce failures.
TEST(ChaosGossip, SlowProposerRecyclingSkipsTransactionsJustCommitted) {
  std::uint64_t recycled = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ChaosOptions opts;
    opts.tvpr = false;
    opts.plan.seed = seed;
    opts.tx_count = 48;
    sim::LinkFaults slow;
    slow.reorder = 1.0;
    slow.reorder_delay_max = millis(350);
    for (sim::NodeId to = 0; to < 3; ++to) opts.plan.links[{3, to}] = slow;
    ChaosNet net{opts};
    net.run_until(seconds(8));
    for (const auto& validator : net.validators) {
      const ValidatorNode::Metrics& m = validator->metrics();
      EXPECT_EQ(m.txs_committed_valid, opts.tx_count);
      EXPECT_EQ(m.eager_failures, 0u);
      recycled += m.txs_recycled;
    }
    net.expect_no_divergence();
  }
  EXPECT_GT(recycled, 0u);  // undecided blocks were recycled
}

// Gossip mode with a crash. The run's one SeenLedger holds every
// validator's seen-gossip bits: a crash must clear the crashed validator's
// column, as wiping its own seen set did, and leave its peers' bits alone.
// The workload goes out in two halves, before the crash and after the
// restart, so no transaction is lost to the downtime and all must commit.
TEST(ChaosGossip, CrashRestartForgetsOnlyItsOwnBits) {
  static constexpr std::size_t kBefore = 24;  // submitted 100..1020 ms
  static constexpr std::size_t kTotal = 48;   // the rest from 3.5 s
  static constexpr sim::NodeId kVictim = 1;
  const auto run = [] {
    ChaosOptions opts;
    opts.tvpr = false;
    opts.tx_count = kBefore;
    opts.plan.crashes.push_back({kVictim, millis(1500), seconds(3)});
    ChaosNet net{opts};
    std::vector<Hash32> hashes;
    for (std::size_t i = 0; i < kTotal; ++i) {
      const txn::TxPtr tx = net.workload_tx(i);
      hashes.push_back(tx->hash);
      if (i < kBefore) continue;
      const auto target = static_cast<sim::NodeId>(i % net.validators.size());
      const SimTime when = millis(3500) + (i - kBefore) * millis(40);
      net.sim.schedule_at(when, [&net, target, tx] {
        net.client->submit(target, tx);
      });
    }
    // bits[node][i]: has validator `node` seen transaction i?
    using Bits = std::vector<std::vector<bool>>;
    const auto snapshot = [&net, &hashes] {
      Bits bits(net.validators.size());
      for (sim::NodeId node = 0; node < bits.size(); ++node) {
        for (const Hash32& hash : hashes) {
          bits[node].push_back(net.overlay.seen_ledger().seen(node, hash));
        }
      }
      return bits;
    };
    const auto count = [](const std::vector<bool>& row) {
      return std::count(row.begin(), row.end(), true);
    };
    Bits before;
    Bits after;
    // The crash event was scheduled first, so at 1500 ms it fires first.
    net.sim.schedule_at(millis(1499), [&] { before = snapshot(); });
    net.sim.schedule_at(millis(1500), [&] {
      EXPECT_TRUE(net.validators[kVictim]->crashed());
      after = snapshot();
    });
    net.run_until(seconds(9));

    EXPECT_GT(count(before[kVictim]), 0);
    EXPECT_EQ(count(after[kVictim]), 0) << "the crashed validator kept bits";
    for (sim::NodeId node = 0; node < before.size(); ++node) {
      if (node == kVictim) continue;
      EXPECT_GT(count(before[node]), 0);
      for (std::size_t i = 0; i < kTotal; ++i) {
        if (before[node][i]) {
          EXPECT_TRUE(after[node][i])
              << "validator " << node << " lost its bit for tx " << i;
        }
      }
    }
    // After the restart the victim sees, and marks, the second half again.
    const std::vector<bool> end = snapshot()[kVictim];
    EXPECT_GT(std::count(end.begin() + kBefore, end.end(), true), 0);

    ValidatorNode& victim = *net.validators[kVictim];
    EXPECT_EQ(victim.metrics().crashes, 1u);
    EXPECT_FALSE(victim.crashed());
    EXPECT_FALSE(victim.syncing()) << "catch-up sync never finished";
    for (sim::NodeId node = 0; node < net.validators.size(); ++node) {
      const ValidatorNode& validator = *net.validators[node];
      EXPECT_EQ(validator.chain_height(), net.validators[0]->chain_height());
      // Every transaction commits exactly once (a copy that several
      // proposers put in one superblock is discarded, not counted). The
      // victim's counters also count its catch-up replay, so only its chain
      // counts.
      if (node == kVictim) continue;
      EXPECT_EQ(validator.metrics().txs_committed_valid, kTotal) << node;
    }
    net.expect_no_divergence();
    return net.fingerprint();
  };
  EXPECT_EQ(run(), run());
}

// Gossip mode under duplicated and reordered gossip, one crash and restart,
// and enough load to back the validators' CPUs up. Most gossiped copies
// arrive already seen, so their dedup lookup is charged without an event
// (ValidatorNode::on_gossip_tx) and counted in gossip_dups_suppressed when
// its key passes; a crash drops those still pending. The fingerprints were
// pinned from the engine that queued a closure for every copy, and the
// fingerprint folds in gossip_dups_suppressed per validator.
Hash32 gossip_crash_run(std::uint64_t seed) {
  ChaosOptions opts;
  opts.tvpr = false;
  opts.plan.seed = seed;
  opts.plan.default_link.drop = 0.02;
  opts.plan.default_link.duplicate = 0.2;
  opts.plan.default_link.reorder = 0.2;
  const auto victim = static_cast<sim::NodeId>(seed % 4);
  const SimTime down = millis(700 + 37 * (seed % 13));
  opts.plan.crashes.push_back({victim, down, down + millis(1500)});
  opts.tx_count = 100;
  opts.tx_interval = millis(8);
  // Slow lookups back the CPUs up, so crashes land among pending ones.
  opts.costs.gossip_dedup = micros(500);
  ChaosNet net{opts};
  net.run_until(seconds(5));
  net.expect_no_divergence();
  EXPECT_EQ(net.validators[victim]->metrics().crashes, 1u);
  return net.fingerprint();
}

TEST(ChaosGossip, DecidedDedupsReproducePinnedFingerprints) {
  static constexpr std::array<const char*, 32> kPinned = {{
      "9beee35223aa9789c3bd83dc6c6f933cae915423e24bb6b92c0abe68430a937c",
      "862ae65f2f2370b0a198a00facc56ef1b8a23a798e887ec749eba13d2aa57bfb",
      "a485d994757f4cf2b8e6438e84769f07f733e6f2e297fa4a28a170c8626e0f64",
      "0e505b4956bdc3ec0c53ac21a6bb85c8cb5a88325c0f212ff1dcfa9cf69fb6b6",
      "818b64683f759e60f5244c2838519ac19b328ed729fa004d1d27bbf321637d17",
      "6760c2ac8bea218dceb369a333e98654f486e997a991f743a0b245ff373b439f",
      "f83331659a051a7637f8b58a868b74281c7770217dd87321c764c3541dbccf82",
      "6d971810a168e9e221f144f7564938d0f10bb8475789cc84292aed6d6965ea6e",
      "3d1984347368ba2b9a8e21f472f060bc8c16f31e0a1e249d65454bbf85470f30",
      "7e1d89803ed6277d09392724c06a2c5e532f7b5dea4f5e65eb2b65fff5b2f104",
      "79ff535eaef59c767e0e048c833f3d59844435c3dc74b91cc6928ad47c8ef6e0",
      "8f7eb09baa9775119dee4c0f30794146c16330b3d5066e65f6722aa3f075e081",
      "56ddefba310b59fb1ea00a63f765997c37940bb55728be6670907522fc81db17",
      "098508a8e3b7232b05adeed86996596519230f9ac2dc724d83e197fc2195a28c",
      "5a87d8d0c41ae542c633766a85993f8c1ba4e936928af89f0f40c4cc0229da2f",
      "da05d2bde0ff025dfd733c79658d6d1f9aa004b2ea03df5f3ed743ebe6336229",
      "0e4cf3c99094716eecaa2acc55bf6d271e4f85cbd6584572ad1175b1c02b1861",
      "4d0ae6976cf5a06ead2688bcc0611e3a2a66e3e67036d761954f7dcd91400a03",
      "145fa8ec684a8863bb93e079d100f6a710917230dc02f98c2d21078ba72e9eb6",
      "c976705c72c211bdbbb02672f87bf576fd5e30206d20a77cc438876fc5112465",
      "d89bd97a32cc1650308bde31632794d1b48164eb12148cb87273ff78c2956aa3",
      "1608029bec6c837e9e946d7af745d8cbeac8ccc6246e6973ac447e55cfdb8014",
      "d62da1f7836e2d34a8e1edf3572e7f006e42bb3983f91e9108fca092c2d6a123",
      "268d2931a3e09aae24129a353ae5271d46e0ac895258ecb04240765dead9c3ff",
      "43c39b28426bdefecc96c74214da94fd188940b884cc9a79e5b5ed0b849e6d1e",
      "085545a92002480d0cc2b5e17168c625d3a7d900af4590228ca6448c386ccc21",
      "155c698acf9d9e7049152c5a24c17198f8bb7363d683d16174cb4e8a4cb7de1e",
      "1eb502baab5717dcef9bf40439d019452172283b69720f15fbd1d2b0b33181f3",
      "df9ace3e3de43819e3414d4e0c929c7e5ef628204ea337d8f50139c07f06dcd7",
      "edafa8c5e9b386d6cc5bf9c4a1ce61c983ed2ff74f5dd4868b62d13402bf1031",
      "fe19520c529f594a767bf4c4ebe75ee77ad47d745fc79d2eb9cf7f1d274ac5fb",
      "98062791b0b1f43cff7c32c83cb704b8667a8a173bc04cfd70f1c79f235e5a80",
  }};
  for (std::uint64_t seed = 1; seed <= kPinned.size(); ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    EXPECT_EQ(gossip_crash_run(seed).hex(), kPinned[seed - 1]);
  }
}

/// One gossip-mode validator that is never started, so its CPU runs only
/// what a test hands it, with a 10 ms dedup lookup. Each copy it is handed
/// is of a transaction already in its seen row.
struct DedupRig {
  static constexpr SimDuration kLookup = millis(10);

  sim::Simulation sim;
  sim::GossipOverlay overlay{4, 4, 7};
  std::unique_ptr<ValidatorNode> node;
  std::shared_ptr<GossipTxMsg> copy = std::make_shared<GossipTxMsg>();

  DedupRig() {
    const crypto::Identity sender = scheme().make_identity(1000);
    GenesisSpec genesis;
    genesis.accounts.push_back({sender.address(), U256{1'000'000'000}});
    rpm::RpmConfig rpm_config;
    rpm_config.scheme = &scheme();
    ValidatorConfig config;
    config.tvpr = false;
    config.rpm = false;
    config.scheme = &scheme();
    config.costs.gossip_dedup = kLookup;
    node = std::make_unique<ValidatorNode>(
        sim, 0, 0, config,
        std::make_shared<ExecutionOracle>(genesis, evm::BlockContext{},
                                          scheme()),
        std::make_shared<rpm::RewardPenaltyMechanism>(rpm_config), &overlay);
    txn::TxParams params;
    params.to = scheme().make_identity(5).address();
    params.value = U256{100};
    copy->tx = txn::make_tx_ptr(txn::make_signed(params, sender, scheme()));
    overlay.seen_ledger().mark(0, copy->tx->hash);
  }

  /// Hand the node a copy at `when`; its lookup finishes kLookup later.
  void deliver_at(SimTime when) {
    sim.schedule_at(when, [this] { node->handle_message(1, copy); });
  }
  void crash_at(SimTime when) {
    sim.schedule_at(when, [this] { node->crash(); });
  }
  std::uint64_t dups() const { return node->metrics().gossip_dups_suppressed; }
};

// A crash drops the lookups charged before it that finish after it, as
// the epoch guard disarmed their closures; one that finished before it
// counts.
TEST(ChaosGossip, CrashDropsSeenCopyLookupsStillRunning) {
  DedupRig rig;
  rig.deliver_at(millis(1));  // its lookup finishes at 11 ms
  rig.deliver_at(millis(2));  // queued behind it, finishes at 21 ms
  rig.crash_at(millis(15));
  rig.sim.run_until(millis(40));
  EXPECT_EQ(rig.dups(), 1u);
}

// A lookup that finishes at the crash's instant fires before the crash only
// if its key was drawn first.
TEST(ChaosGossip, SeenCopyLookupEndingAtTheCrashCountsOnlyIfKeyedFirst) {
  DedupRig crash_first;
  crash_first.crash_at(millis(11));  // keyed before the lookup's charge
  crash_first.deliver_at(millis(1));
  crash_first.sim.run_until(millis(20));
  EXPECT_EQ(crash_first.dups(), 0u);

  DedupRig lookup_first;
  lookup_first.deliver_at(millis(1));
  // Keyed at 2 ms, after the lookup was charged at 1 ms.
  lookup_first.sim.schedule_at(millis(2),
                               [&] { lookup_first.crash_at(millis(11)); });
  lookup_first.sim.run_until(millis(20));
  EXPECT_EQ(lookup_first.dups(), 1u);
}

// A lookup counts once the run passes its key: not after a run that ends
// before it, and, read from an event at its instant, only if that event's
// key was drawn after the lookup's.
TEST(ChaosGossip, SeenCopyLookupPastTheRunEndIsNotCounted) {
  DedupRig rig;
  rig.deliver_at(millis(1));  // its lookup finishes at 11 ms
  std::vector<std::uint64_t> read_at_11ms;
  rig.sim.schedule_at(millis(11), [&] { read_at_11ms.push_back(rig.dups()); });
  rig.sim.schedule_at(millis(5), [&] {
    rig.sim.schedule_at(millis(11),
                        [&] { read_at_11ms.push_back(rig.dups()); });
  });
  rig.sim.run_until(millis(11) - 1);
  EXPECT_EQ(rig.dups(), 0u);
  rig.sim.run_until(millis(11));
  EXPECT_EQ(rig.dups(), 1u);
  EXPECT_EQ(read_at_11ms, (std::vector<std::uint64_t>{0, 1}));
}

TEST(ChaosDeterminism, IdenticalSeedsProduceIdenticalRuns) {
  const auto run = [] {
    ChaosOptions opts;
    opts.plan = sim::FaultPlan::randomized(4, seconds(4), 42);
    opts.tx_count = 40;
    ChaosNet net{opts};
    net.run_until(seconds(7));
    return net.fingerprint();
  };
  EXPECT_EQ(run(), run());
}

// Chaos with the trace on: every fault decision the injector makes must be
// mirrored by exactly one `net.*` trace event, so the trace reconciles with
// FaultStats field-for-field — the attribution contract a post-mortem
// reading a trace file relies on. The run itself (and hence the trace) stays
// a pure function of the plan.
TEST(ChaosTrace, NetEventsReconcileExactlyWithFaultStats) {
  const auto run = [](obs::TraceSink* sink) {
    ChaosOptions opts;
    opts.trace = sink;
    opts.plan.seed = 13;
    opts.plan.default_link.drop = 0.08;
    opts.plan.default_link.duplicate = 0.06;
    opts.plan.default_link.reorder = 0.1;
    opts.plan.default_link.reorder_delay_max = millis(20);
    opts.plan.partitions.push_back({seconds(1), seconds(2), {3}, false});
    opts.plan.crashes.push_back({1, millis(2500), seconds(4)});
    ChaosNet net{opts};
    net.run_until(seconds(8));
    net.expect_no_divergence();
    return net.injector.stats();
  };

  obs::TraceSink trace;
  const sim::FaultStats stats = run(&trace);

  // Each fault class actually fired...
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_GT(stats.duplicated, 0u);
  EXPECT_GT(stats.reordered, 0u);
  EXPECT_GT(stats.partition_blocked, 0u);
  EXPECT_GT(stats.crash_blocked, 0u);
  // ...and the trace attributes every single decision, no more, no fewer.
  EXPECT_EQ(trace.count_of("net.drop"), stats.dropped);
  EXPECT_EQ(trace.count_of("net.dup"), stats.duplicated);
  EXPECT_EQ(trace.count_of("net.reorder"), stats.reordered);
  EXPECT_EQ(trace.count_of("net.partition_block"), stats.partition_blocked);
  EXPECT_EQ(trace.count_of("net.crash_block"), stats.crash_blocked);

  // The traced run is bit-reproducible, and tracing does not perturb the
  // fault schedule: an untraced run sees the identical FaultStats.
  obs::TraceSink again;
  run(&again);
  EXPECT_EQ(trace.fingerprint(), again.fingerprint());
  const sim::FaultStats untraced = run(nullptr);
  EXPECT_EQ(untraced.dropped, stats.dropped);
  EXPECT_EQ(untraced.duplicated, stats.duplicated);
  EXPECT_EQ(untraced.reordered, stats.reordered);
  EXPECT_EQ(untraced.partition_blocked, stats.partition_blocked);
  EXPECT_EQ(untraced.crash_blocked, stats.crash_blocked);
}

// Crash recovery with the optimistic parallel executor underneath — the
// thread-pool path the TSan leg (tools/tsan_check.sh) replays.
TEST(ChaosParallel, CrashRecoveryUnderParallelExecution) {
  ChaosOptions opts;
  opts.parallel_execution = true;
  opts.tx_count = 40;
  opts.plan.crashes.push_back({2, seconds(1), millis(2200)});
  ChaosNet net{opts};
  net.run_until(seconds(8));

  EXPECT_EQ(net.validators[2]->metrics().restarts, 1u);
  EXPECT_FALSE(net.validators[2]->syncing());
  EXPECT_GT(net.min_height(), 4u);
  net.expect_no_divergence();
}

// ---------------------------------------------------------------------------
// Adaptive membership under churn (DESIGN.md §13, docs/FAULTS.md)
// ---------------------------------------------------------------------------

// Three validators of nine crash for good, each crash arriving while the
// committee still tolerates it: rank 6 at 1s, rank 7 at 3.5s, rank 8 at 6s.
// Gradual is the operative word — reliability scores only move at commits, so
// a *sudden* >f wipeout stalls before anyone can be disabled (documented
// limitation, exactly rippled's); spaced crashes give the scoring time to
// disable each casualty before the next one lands.
sim::FaultPlan gradual_three_crashes() {
  sim::FaultPlan plan;
  plan.seed = 3;
  plan.crashes.push_back({6, seconds(1), 0});
  plan.crashes.push_back({7, millis(3500), 0});
  plan.crashes.push_back({8, seconds(6), 0});
  return plan;
}

ChaosOptions churn_options(bool adaptive) {
  ChaosOptions opts;
  opts.n = 9;
  opts.f = 2;
  opts.adaptive = adaptive;
  opts.tx_count = 100;
  return opts;
}

// Pinned regression for the stall a static committee cannot avoid: after the
// third crash only 6 validators are live, forever short of the fixed
// n - f = 7 completion quorum. If this test ever starts committing past the
// third crash without adaptive membership, the quorum arithmetic changed.
TEST(ChaosChurn, FixedQuorumStallsWhenMoreThanFCrashGradually) {
  ChaosOptions opts = churn_options(/*adaptive=*/false);
  opts.plan = gradual_three_crashes();
  ChaosNet net{opts};

  std::uint64_t height_after_third = 0;
  net.sim.schedule_at(seconds(7), [&net, &height_after_third] {
    height_after_third = net.live_min_height();
  });
  net.run_until(seconds(13));

  net.debug_dump();
  // At most the superblock already in flight at the third crash completes;
  // from then on the frontier is frozen.
  EXPECT_LE(net.live_min_height(), height_after_third + 1);
  net.expect_no_divergence();
}

// The same plan with adaptive membership: the first two casualties cross the
// low-water mark and join the disabled list (cap floor((9-1)/4) = 2), the
// quorums shrink to the effective committee, and the chain keeps committing
// through the third crash even though the cap leaves rank 8 undisabled (its
// slot just times out every round — the degraded-cadence dip the ablation
// bench measures).
TEST(ChaosChurn, AdaptiveMembershipCommitsThroughGradualChurn) {
  ChaosOptions opts = churn_options(/*adaptive=*/true);
  opts.plan = gradual_three_crashes();
  ChaosNet net{opts};

  std::uint64_t height_after_third = 0;
  net.sim.schedule_at(seconds(7), [&net, &height_after_third] {
    height_after_third = net.live_min_height();
  });
  net.run_until(seconds(13));

  net.debug_dump();
  EXPECT_GE(net.live_min_height(), height_after_third + 3)
      << "adaptive membership failed to keep the chain live past >f crashes";
  const rpm::ReliabilityTracker* tracker = net.validators[0]->reliability();
  ASSERT_NE(tracker, nullptr);
  EXPECT_EQ(tracker->current_view().disabled_count(), 2u);  // cap saturated
  EXPECT_GE(net.validators[0]->metrics().membership_disables, 2u);
  EXPECT_EQ(net.validators[0]->metrics().membership_removals, 0u);
  // Every live validator derived the identical membership state.
  for (const auto& validator : net.validators) {
    if (validator->crashed() || validator->syncing()) continue;
    ASSERT_NE(validator->reliability(), nullptr);
    if (validator->chain_height() == net.validators[0]->chain_height()) {
      EXPECT_EQ(validator->reliability()->fingerprint(),
                tracker->fingerprint());
    }
  }
  net.expect_no_divergence();
}

// Recovery path: a crashed validator is disabled, restarts, catches up via
// the existing CatchUpSync, contributes decided blocks again, and is
// deterministically re-admitted once it clears the high-water mark for
// readmit_window consecutive superblocks.
TEST(ChaosChurn, DisabledValidatorIsReadmittedAfterCatchUp) {
  ChaosOptions opts = churn_options(/*adaptive=*/true);
  opts.plan.crashes.push_back({4, seconds(1), seconds(4)});
  ChaosNet net{opts};
  net.run_until(seconds(12));

  net.debug_dump();
  ValidatorNode& revenant = *net.validators[4];
  EXPECT_FALSE(revenant.crashed());
  EXPECT_FALSE(revenant.syncing());
  EXPECT_GT(revenant.metrics().superblocks_synced, 0u);  // caught up first
  EXPECT_GE(net.validators[0]->metrics().membership_disables, 1u);
  EXPECT_GE(net.validators[0]->metrics().membership_readmissions, 1u);
  const rpm::ReliabilityTracker* tracker = net.validators[0]->reliability();
  ASSERT_NE(tracker, nullptr);
  EXPECT_TRUE(tracker->current_view().counts(4));  // back in the committee
  EXPECT_EQ(tracker->current_view().effective_n(), 9u);
  std::uint64_t max_height = 0;
  for (const auto& validator : net.validators) {
    max_height = std::max(max_height, validator->chain_height());
  }
  EXPECT_GE(revenant.chain_height() + 2, max_height)
      << "re-admitted validator did not rejoin the frontier";
  net.expect_no_divergence();
}

// Hysteresis: a flapping validator (up 200ms, down 400ms, forever wiping and
// resyncing) is disabled once and never re-admitted — the re-admission
// streak requires readmit_window *consecutive* contributed superblocks.
TEST(ChaosChurn, FlappingValidatorStaysDisabled) {
  ChaosOptions opts = churn_options(/*adaptive=*/true);
  opts.plan.flapping(/*node=*/5, seconds(1), seconds(9), millis(600),
                     /*duty_cycle=*/1.0 / 3.0);
  ChaosNet net{opts};
  net.run_until(seconds(9));

  net.debug_dump();
  const rpm::ReliabilityTracker* tracker = net.validators[0]->reliability();
  ASSERT_NE(tracker, nullptr);
  EXPECT_GE(net.validators[0]->metrics().membership_disables, 1u);
  EXPECT_EQ(net.validators[0]->metrics().membership_readmissions, 0u);
  EXPECT_TRUE(tracker->current_view().disabled(5));
  // The rest of the committee is unaffected by the flapping.
  EXPECT_GT(net.live_min_height(/*skip=*/5), 8u);
  net.expect_no_divergence();
}

// A staggered rolling restart (one rank every 500ms, each down 400ms) stays
// within the tolerance envelope: nobody is disabled long-term, nobody is
// removed, and every validator ends caught up.
TEST(ChaosChurn, RollingRestartRetainsLivenessAndSafety) {
  ChaosOptions opts = churn_options(/*adaptive=*/true);
  opts.plan.rolling_restart(/*n=*/9, seconds(1), millis(4500), millis(400));
  ChaosNet net{opts};
  net.run_until(seconds(12));

  net.debug_dump();
  std::uint64_t max_height = 0;
  for (const auto& validator : net.validators) {
    EXPECT_FALSE(validator->crashed());
    EXPECT_EQ(validator->metrics().crashes, 1u);
    EXPECT_EQ(validator->metrics().restarts, 1u);
    EXPECT_EQ(validator->metrics().membership_removals, 0u);
    max_height = std::max(max_height, validator->chain_height());
  }
  EXPECT_GT(net.min_height(), 10u);
  for (const auto& validator : net.validators) {
    EXPECT_GE(validator->chain_height() + 2, max_height)
        << "validator left behind after the rolling restart";
  }
  net.expect_no_divergence();
}

// Fault-free equivalence: with nothing failing, adaptive membership derives
// the all-active view everywhere and must produce the exact chains of a
// static-committee run — the guard that keeps golden traces valid.
TEST(ChaosChurn, FaultFreeRunsMatchWithAdaptiveOnAndOff) {
  const auto run = [](bool adaptive) {
    ChaosOptions opts = churn_options(adaptive);
    opts.tx_count = 60;
    ChaosNet net{opts};
    net.run_until(seconds(6));
    std::vector<std::vector<Hash32>> chains;
    for (const auto& validator : net.validators) {
      chains.push_back(validator->chain());
    }
    return chains;
  };
  EXPECT_EQ(run(false), run(true));
}

// Disabling and re-admission are byte-deterministic: the full run — fault
// schedule, membership events, tracker digests — is a pure function of the
// seed, across >= 20 seeds (sweepable via SRBB_CHAOS_SEED_BASE/_SEEDS).
TEST(ChaosChurn, AdaptiveRunsAreSeedDeterministic) {
  const std::uint64_t base = env_u64("SRBB_CHAOS_SEED_BASE", 1);
  const std::uint64_t count = env_u64("SRBB_CHAOS_SEEDS", 20);
  for (std::uint64_t seed = base; seed < base + count; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const auto run = [seed] {
      ChaosOptions opts = churn_options(/*adaptive=*/true);
      opts.tx_count = 60;
      opts.plan.seed = seed;
      opts.plan.default_link.drop = 0.05;
      opts.plan.default_link.reorder = 0.1;
      // One permanent casualty (gets disabled) plus one crash/recover cycle
      // (may be disabled and re-admitted), ranks varying with the seed.
      opts.plan.crashes.push_back(
          {static_cast<sim::NodeId>(seed % 9), seconds(1), 0});
      opts.plan.crashes.push_back({static_cast<sim::NodeId>((seed + 3) % 9),
                                   millis(3500), seconds(5)});
      ChaosNet net{opts};
      net.run_until(seconds(8));
      net.expect_no_divergence();
      return net.fingerprint();
    };
    ASSERT_EQ(run(), run()) << "adaptive run is not a pure function of seed";
  }
}

// Long-horizon churn soak — 30% of a 13-strong committee offline through a
// window (three permanent-ish crashes plus one flapper) — run by
// tools/chaos_soak.sh --ci (churn leg); skipped in the regular suite.
TEST(ChaosChurnSoak, ThirtyPercentOfflineWindowWithFlapping) {
  if (std::getenv("SRBB_CHURN_SOAK") == nullptr) {
    GTEST_SKIP() << "set SRBB_CHURN_SOAK=1 (tools/chaos_soak.sh --ci runs it)";
  }
  const std::uint64_t base = env_u64("SRBB_CHAOS_SEED_BASE", 1);
  const std::uint64_t count = env_u64("SRBB_CHAOS_SEEDS", 4);
  for (std::uint64_t seed = base; seed < base + count; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ChaosOptions opts;
    opts.n = 13;
    opts.f = 4;
    opts.adaptive = true;
    opts.tx_count = 200;
    opts.tx_interval = millis(50);
    opts.plan.seed = seed;
    opts.plan.default_link.drop = 0.05;
    // 4 of 13 validators (~30%) offline inside the window: three staggered
    // long crashes that heal at 14s, one flapper from 2s to 12s.
    opts.plan.crashes.push_back({10, seconds(1), seconds(14)});
    opts.plan.crashes.push_back({11, seconds(3), seconds(14)});
    opts.plan.crashes.push_back({12, seconds(5), seconds(14)});
    opts.plan.flapping(/*node=*/0, seconds(2), seconds(12), millis(800),
                       /*duty_cycle=*/0.5);
    ChaosNet net{opts};

    std::uint64_t height_mid_window = 0;
    net.sim.schedule_at(seconds(8), [&net, &height_mid_window] {
      height_mid_window = net.live_min_height(/*skip=*/0);
    });
    net.run_until(seconds(20));

    net.debug_dump();
    // Liveness through the window and full recovery after it.
    EXPECT_GT(height_mid_window, 5u);
    EXPECT_GE(net.live_min_height(/*skip=*/0), height_mid_window + 5);
    std::uint64_t max_height = 0;
    for (const auto& validator : net.validators) {
      EXPECT_FALSE(validator->crashed());
      max_height = std::max(max_height, validator->chain_height());
    }
    EXPECT_GE(net.validators[10]->chain_height() + 3, max_height)
        << "long-crashed validator failed to catch back up";
    EXPECT_GE(net.validators[0]->metrics().membership_disables, 1u);
    net.expect_no_divergence();
  }
}

}  // namespace
}  // namespace srbb::node
