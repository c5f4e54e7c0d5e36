// Superblock consensus tests: agreement on the block set across correct
// validators under silent, equivocating and partially-connected proposers,
// including the PULL recovery path. Timers and delays run on the
// discrete-event engine for determinism.
#include "consensus/superblock.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "sim/event_loop.hpp"

namespace srbb::consensus {
namespace {

const crypto::SignatureScheme& scheme() {
  return crypto::SignatureScheme::ed25519();
}

txn::TxPtr make_tx(std::uint64_t sender, std::uint64_t nonce) {
  txn::TxParams params;
  params.nonce = nonce;
  return txn::make_tx_ptr(
      txn::make_signed(params, scheme().make_identity(sender), scheme()));
}

txn::BlockPtr make_proposal(std::uint32_t proposer, std::uint64_t index,
                            std::uint64_t tx_tag) {
  const crypto::Identity id = scheme().make_identity(proposer);
  return std::make_shared<const txn::Block>(
      txn::make_block(index, proposer, 0, Hash32{},
                      {make_tx(1000 + tx_tag, 0)}, id, scheme()));
}

struct Cluster {
  sim::Simulation sim;
  SuperblockConfig config;
  std::vector<std::unique_ptr<SuperblockInstance>> nodes;
  std::vector<bool> delivered;
  std::vector<std::vector<txn::BlockPtr>> superblocks;
  // Message filter: return false to drop (models a partitioned/Byzantine
  // sender); default passes everything.
  std::function<bool(std::uint32_t from, std::uint32_t to)> allow =
      [](std::uint32_t, std::uint32_t) { return true; };
  SimDuration wire_delay = millis(5);

  explicit Cluster(std::uint32_t n, std::uint32_t f) {
    config.n = n;
    config.f = f;
    config.proposal_timeout = millis(200);
    config.pull_retry = millis(50);
    delivered.resize(n, false);
    superblocks.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      SuperblockConfig node_config = config;
      node_config.self = i;
      SuperblockCallbacks cb;
      cb.broadcast = [this, i](sim::MessagePtr msg) {
        for (std::uint32_t to = 0; to < config.n; ++to) {
          if (to == i) continue;
          deliver(i, to, msg);
        }
      };
      cb.send_to = [this, i](std::uint32_t to, sim::MessagePtr msg) {
        deliver(i, to, msg);
      };
      cb.validate_header = [](const txn::Block&) { return true; };
      cb.on_superblock = [this, i](std::vector<txn::BlockPtr> blocks) {
        delivered[i] = true;
        superblocks[i] = std::move(blocks);
      };
      cb.set_timer = [this](SimDuration delay, std::function<void()> fn) {
        sim.schedule_after(delay, std::move(fn));
      };
      nodes.push_back(
          std::make_unique<SuperblockInstance>(node_config, 0, std::move(cb)));
    }
  }

  void deliver(std::uint32_t from, std::uint32_t to, sim::MessagePtr msg) {
    if (!allow(from, to)) return;
    sim.schedule_after(wire_delay, [this, from, to, msg] {
      nodes[to]->handle(from, msg);
    });
  }

  void run() { sim.run_until(seconds(30)); }

  void expect_all_complete_and_equal(std::size_t expected_blocks) {
    for (std::uint32_t i = 0; i < config.n; ++i) {
      EXPECT_TRUE(delivered[i]) << "node " << i << " incomplete";
    }
    for (std::uint32_t i = 1; i < config.n; ++i) {
      ASSERT_EQ(superblocks[i].size(), superblocks[0].size());
      for (std::size_t b = 0; b < superblocks[0].size(); ++b) {
        EXPECT_EQ(superblocks[i][b]->hash(), superblocks[0][b]->hash());
      }
    }
    EXPECT_EQ(superblocks[0].size(), expected_blocks);
  }
};

TEST(Superblock, AllProposeAllIncluded) {
  Cluster cluster{4, 1};
  for (std::uint32_t i = 0; i < 4; ++i) {
    cluster.nodes[i]->begin(make_proposal(i, 0, i));
  }
  cluster.run();
  cluster.expect_all_complete_and_equal(4);
  // Ordered by proposer rank.
  for (std::size_t b = 0; b < 4; ++b) {
    EXPECT_EQ(cluster.superblocks[0][b]->header.proposer, b);
  }
}

TEST(Superblock, LargerCommittee) {
  Cluster cluster{10, 3};
  for (std::uint32_t i = 0; i < 10; ++i) {
    cluster.nodes[i]->begin(make_proposal(i, 0, i));
  }
  cluster.run();
  cluster.expect_all_complete_and_equal(10);
}

TEST(Superblock, SilentProposerExcluded) {
  Cluster cluster{4, 1};
  for (std::uint32_t i = 0; i < 3; ++i) {
    cluster.nodes[i]->begin(make_proposal(i, 0, i));
  }
  cluster.nodes[3]->begin(nullptr);  // proposes nothing
  cluster.run();
  cluster.expect_all_complete_and_equal(3);
}

TEST(Superblock, FullyCrashedNodeStillToleratedByRest) {
  Cluster cluster{4, 1};
  cluster.allow = [](std::uint32_t from, std::uint32_t to) {
    return from != 3 && to != 3;  // node 3 is dark both ways
  };
  for (std::uint32_t i = 0; i < 3; ++i) {
    cluster.nodes[i]->begin(make_proposal(i, 0, i));
  }
  cluster.run();
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(cluster.delivered[i]) << i;
  }
  ASSERT_TRUE(cluster.delivered[0]);
  EXPECT_EQ(cluster.superblocks[0].size(), 3u);
}

TEST(Superblock, InvalidCertificateDiscarded) {
  Cluster cluster{4, 1};
  // Node 0's proposal certificate is forged (signed by the wrong key).
  auto block = txn::make_block(0, 0, 0, Hash32{}, {make_tx(1, 0)},
                               scheme().make_identity(7), scheme());
  block.header.cert.proposer_pubkey = scheme().make_identity(0).public_key;
  cluster.nodes[0]->begin(std::make_shared<const txn::Block>(block));
  for (std::uint32_t i = 1; i < 4; ++i) {
    cluster.nodes[i]->begin(make_proposal(i, 0, i));
  }
  cluster.run();
  // The forged proposal is dropped everywhere -> 3 blocks.
  cluster.expect_all_complete_and_equal(3);
}

TEST(Superblock, SealedForgedBodyDiscarded) {
  Cluster cluster{4, 1};
  // Node 0 signs a header over one body and seals it with another: the memo
  // carries the forged body's root, so every node's certificate check fails.
  auto block = txn::make_block(0, 0, 0, Hash32{}, {make_tx(1, 0)},
                               scheme().make_identity(0), scheme());
  block.txs.push_back(make_tx(2, 0));
  cluster.nodes[0]->begin(txn::seal(std::move(block)));
  for (std::uint32_t i = 1; i < 4; ++i) {
    cluster.nodes[i]->begin(make_proposal(i, 0, i));
  }
  cluster.run();
  cluster.expect_all_complete_and_equal(3);
}

TEST(Superblock, PartialPropagationRecoversViaPull) {
  Cluster cluster{4, 1};
  // Node 0's PROPOSE reaches only nodes 1 and 2; echoes and everything else
  // flow normally, so node 3 learns the hash, decides 1, and must PULL the
  // body.
  int proposes_blocked = 0;
  cluster.allow = [&](std::uint32_t from, std::uint32_t to) {
    (void)from;
    (void)to;
    return true;
  };
  // Blocking selectively needs message-type awareness: wrap deliver via
  // allow on (from,to) won't see types, so instead send node 0's proposal
  // manually and skip its broadcast by beginning with nullptr.
  cluster.nodes[0]->begin(nullptr);
  const txn::BlockPtr block = make_proposal(0, 0, 0);
  auto propose = std::make_shared<ProposeMsg>();
  propose->index = 0;
  propose->block = block;
  // Deliver the body to 0 (self), 1 and 2 only.
  cluster.nodes[0]->handle(0, propose);
  cluster.deliver(0, 1, propose);
  cluster.deliver(0, 2, propose);
  (void)proposes_blocked;
  for (std::uint32_t i = 1; i < 4; ++i) {
    cluster.nodes[i]->begin(make_proposal(i, 0, i));
  }
  cluster.run();
  cluster.expect_all_complete_and_equal(4);
  // Node 3 ends with the same block 0 despite never receiving the PROPOSE
  // broadcast.
  EXPECT_EQ(cluster.superblocks[3][0]->hash(), block->hash());
}

TEST(Superblock, EquivocatingProposerCannotSplitTheSet) {
  Cluster cluster{4, 1};
  // Byzantine node 0 signs two different blocks for index 0 and sends one to
  // nodes 1, the other to nodes 2 and 3.
  const txn::BlockPtr block_a = make_proposal(0, 0, 100);
  const txn::BlockPtr block_b = make_proposal(0, 0, 200);
  ASSERT_NE(block_a->hash(), block_b->hash());
  cluster.nodes[0]->begin(nullptr);
  auto msg_a = std::make_shared<ProposeMsg>();
  msg_a->index = 0;
  msg_a->block = block_a;
  auto msg_b = std::make_shared<ProposeMsg>();
  msg_b->index = 0;
  msg_b->block = block_b;
  cluster.deliver(0, 1, msg_a);
  cluster.deliver(0, 2, msg_b);
  cluster.deliver(0, 3, msg_b);
  for (std::uint32_t i = 1; i < 4; ++i) {
    cluster.nodes[i]->begin(make_proposal(i, 0, i));
  }
  cluster.run();
  // Correct nodes 1..3 agree on one superblock; slot 0 is either excluded or
  // carries exactly one of the two blocks everywhere.
  for (std::uint32_t i = 1; i < 4; ++i) {
    EXPECT_TRUE(cluster.delivered[i]);
  }
  for (std::uint32_t i = 2; i < 4; ++i) {
    ASSERT_EQ(cluster.superblocks[i].size(), cluster.superblocks[1].size());
    for (std::size_t b = 0; b < cluster.superblocks[1].size(); ++b) {
      EXPECT_EQ(cluster.superblocks[i][b]->hash(),
                cluster.superblocks[1][b]->hash());
    }
  }
  EXPECT_GE(cluster.superblocks[1].size(), 3u);
}

TEST(Superblock, CompletesWithEmptySuperblockWhenNobodyProposes) {
  Cluster cluster{4, 1};
  for (std::uint32_t i = 0; i < 4; ++i) cluster.nodes[i]->begin(nullptr);
  cluster.run();
  cluster.expect_all_complete_and_equal(0);
}

TEST(Superblock, WrongIndexProposalIgnored) {
  Cluster cluster{4, 1};
  // A proposal built for index 7 must not enter index 0's superblock.
  auto stale = std::make_shared<ProposeMsg>();
  stale->index = 0;
  stale->block = make_proposal(0, 7, 0);
  cluster.nodes[1]->handle(0, stale);
  cluster.nodes[0]->begin(nullptr);
  for (std::uint32_t i = 1; i < 4; ++i) {
    cluster.nodes[i]->begin(make_proposal(i, 0, i));
  }
  cluster.run();
  cluster.expect_all_complete_and_equal(3);
}

TEST(Superblock, HeaderValidatorCanExcludeProposer) {
  // Models RPM exclusion: every correct node rejects blocks from rank 2.
  Cluster cluster{4, 1};
  for (std::uint32_t i = 0; i < 4; ++i) {
    SuperblockConfig node_config = cluster.config;
    node_config.self = i;
    // Rebuild node i with an excluding validator.
    SuperblockCallbacks cb;
    cb.broadcast = [&cluster, i](sim::MessagePtr msg) {
      for (std::uint32_t to = 0; to < cluster.config.n; ++to) {
        if (to != i) cluster.deliver(i, to, msg);
      }
    };
    cb.send_to = [&cluster, i](std::uint32_t to, sim::MessagePtr msg) {
      cluster.deliver(i, to, msg);
    };
    cb.validate_header = [](const txn::Block& b) {
      return b.header.proposer != 2;
    };
    cb.on_superblock = [&cluster, i](std::vector<txn::BlockPtr> blocks) {
      cluster.delivered[i] = true;
      cluster.superblocks[i] = std::move(blocks);
    };
    cb.set_timer = [&cluster](SimDuration d, std::function<void()> fn) {
      cluster.sim.schedule_after(d, std::move(fn));
    };
    cluster.nodes[i] =
        std::make_unique<SuperblockInstance>(node_config, 0, std::move(cb));
  }
  for (std::uint32_t i = 0; i < 4; ++i) {
    cluster.nodes[i]->begin(make_proposal(i, 0, i));
  }
  cluster.run();
  cluster.expect_all_complete_and_equal(3);
  for (const auto& block : cluster.superblocks[0]) {
    EXPECT_NE(block->header.proposer, 2u);
  }
}

// A decided slot answers every late EST or AUX with a DECIDED hint. The
// decision never changes, so each slot builds that message once and every
// hint shares it.
TEST(Superblock, LateEstsAfterADecisionShareOneDecidedHint) {
  SuperblockConfig config;
  config.n = 4;
  config.f = 1;
  config.self = 0;
  std::vector<std::pair<std::uint32_t, sim::MessagePtr>> hints;
  SuperblockCallbacks cb;
  cb.broadcast = [](const sim::MessagePtr&) {};
  cb.send_to = [&hints](std::uint32_t peer, const sim::MessagePtr& msg) {
    hints.emplace_back(peer, msg);
  };
  cb.on_superblock = [](std::vector<txn::BlockPtr>) {};
  cb.set_timer = [](SimDuration, std::function<void()>) {};
  SuperblockInstance node{config, 7, std::move(cb)};

  const auto decided = [](std::uint32_t proposer, bool value) {
    auto msg = std::make_shared<DecidedMsg>();
    msg->index = 7;
    msg->proposer = proposer;
    msg->value = value;
    return sim::MessagePtr{msg};
  };
  const auto est = [](std::uint32_t proposer, bool value) {
    auto msg = std::make_shared<BinMsg>();
    msg->index = 7;
    msg->proposer = proposer;
    msg->phase = BinPhase::kEst;
    msg->value = value;
    return sim::MessagePtr{msg};
  };
  // f + 1 = 2 matching DECIDEDs decide slot 1 to 1 and slot 2 to 0.
  for (const std::uint32_t peer : {1u, 2u}) {
    node.handle(peer, decided(1, true));
    node.handle(peer, decided(2, false));
  }
  ASSERT_TRUE(node.slot_debug(1).bin_decided);
  ASSERT_TRUE(node.slot_debug(2).bin_decided);
  ASSERT_TRUE(hints.empty());

  // Two late ESTs per slot, from different peers, carrying either value.
  node.handle(3, est(1, false));
  node.handle(2, est(1, true));
  node.handle(3, est(2, true));
  node.handle(1, est(2, false));
  ASSERT_EQ(hints.size(), 4u);
  EXPECT_EQ(hints[0].first, 3u);
  EXPECT_EQ(hints[1].first, 2u);
  EXPECT_EQ(hints[0].second.get(), hints[1].second.get());
  EXPECT_EQ(hints[2].second.get(), hints[3].second.get());
  for (std::size_t i = 0; i < hints.size(); ++i) {
    const auto* hint = sim::msg_cast<DecidedMsg>(hints[i].second);
    ASSERT_NE(hint, nullptr);
    EXPECT_EQ(hint->index, 7u);
    EXPECT_EQ(hint->proposer, i < 2 ? 1u : 2u);
    EXPECT_EQ(hint->value, i < 2);
  }
}

}  // namespace
}  // namespace srbb::consensus
