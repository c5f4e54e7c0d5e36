// Differential test: SuperblockInstance's echo accounting (one SenderFlags
// plus a running count per echoed hash) against a test-local reference that
// keeps a std::set of senders per hash, as the instance did before. Both are
// fed one seeded random schedule of ECHOes — several competing hashes,
// duplicates, senders outside the committee, disabled members — and DECIDED
// announcements that make the instance PULL a body it never received. After
// every input they must have made the same echo amplifications and PULL
// requests, in the same order, and report the same per-slot echo state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "consensus/superblock.hpp"

namespace srbb::consensus {
namespace {

/// The reference: echo senders as std::set per hash, amplification on f+1,
/// delivery on n-f, and on a decision for 1 a PULL to the first f+1 senders
/// of the delivered hash (or to everyone before delivery). No body ever
/// arrives, so a decided-1 slot is never ready.
class SetEchoReference {
 public:
  explicit SetEchoReference(const SuperblockConfig& config)
      : config_(config), quorums_(config.membership.quorums()),
        slots_(config.n) {}

  std::vector<std::string> log;

  void on_echo(std::uint32_t from, std::uint32_t proposer, const Hash32& hash) {
    if (proposer >= config_.n || from >= config_.n) return;
    record_echo(proposer, from, hash);
  }

  void on_decided(std::uint32_t from, std::uint32_t proposer, bool value) {
    if (proposer >= config_.n || !counted(from)) return;
    Slot& slot = slots_[proposer];
    if (slot.decided) return;
    auto& senders = slot.decided_from[value ? 1 : 0];
    senders.insert(from);
    if (senders.size() < quorums_.adoption()) return;
    slot.decided = true;
    if (value) request_pull(proposer);
  }

  std::size_t echoers(std::uint32_t proposer) const {
    std::size_t most = 0;
    for (const auto& [hash, senders] : slots_[proposer].echoes) {
      most = std::max(most, senders.size());
    }
    return most;
  }
  bool delivered(std::uint32_t proposer) const {
    return slots_[proposer].delivered_hash.has_value();
  }
  bool pulling(std::uint32_t proposer) const {
    return slots_[proposer].pulling;
  }

 private:
  struct Slot {
    std::map<Hash32, std::set<std::uint32_t>> echoes;
    bool echoed = false;
    std::optional<Hash32> delivered_hash;
    std::set<std::uint32_t> decided_from[2];
    bool decided = false;
    bool pulling = false;
  };

  bool counted(std::uint32_t rank) const {
    return config_.membership.counts(rank);
  }

  void record_echo(std::uint32_t proposer, std::uint32_t from,
                   const Hash32& hash) {
    if (!counted(from)) return;
    Slot& slot = slots_[proposer];
    auto& senders = slot.echoes[hash];
    senders.insert(from);
    if (!slot.echoed && senders.size() >= quorums_.amplify()) {
      slot.echoed = true;
      log.push_back("echo " + std::to_string(proposer) + " " +
                    std::to_string(hash[0]));
      record_echo(proposer, config_.self, hash);
      return;
    }
    if (!slot.delivered_hash.has_value() &&
        senders.size() >= quorums_.supermajority()) {
      slot.delivered_hash = hash;
    }
  }

  void request_pull(std::uint32_t proposer) {
    Slot& slot = slots_[proposer];
    if (slot.pulling) return;
    slot.pulling = true;
    std::vector<std::uint32_t> candidates;
    if (slot.delivered_hash.has_value()) {
      for (const std::uint32_t peer : slot.echoes[*slot.delivered_hash]) {
        if (peer != config_.self) candidates.push_back(peer);
      }
    }
    if (candidates.empty()) {
      log.push_back("pull-all " + std::to_string(proposer));
      return;
    }
    const std::size_t ask =
        std::min<std::size_t>(candidates.size(), quorums_.adoption());
    for (std::size_t i = 0; i < ask; ++i) {
      log.push_back("pull " + std::to_string(proposer) + " -> " +
                    std::to_string(candidates[i]));
    }
  }

  SuperblockConfig config_;
  QuorumParams quorums_;
  std::vector<Slot> slots_;
};

/// What a schedule reached, so the suite can check it is not vacuous.
struct Outcome {
  int amplified = 0;
  int delivered = 0;
  int targeted_pulls = 0;
};

void run_schedule(std::uint32_t n, std::uint64_t seed, Outcome* outcome) {
  Rng rng{seed * 7919 + n};
  SuperblockConfig config;
  config.n = n;
  config.f = QuorumParams::max_faults(n);
  config.self = static_cast<std::uint32_t>(rng.next_below(n));
  config.membership = MembershipView(n, config.f);
  // Every other seed disables up to the negative-UNL cap, self included
  // sometimes: disabled ranks still send, but count toward no quorum.
  if (seed % 2 == 1) {
    for (std::uint32_t i = 0; i < MembershipView::disable_cap(n); ++i) {
      config.membership.set_status(
          static_cast<std::uint32_t>(rng.next_below(n)),
          MemberStatus::kDisabled);
    }
  }

  std::vector<std::string> log;
  SuperblockCallbacks cb;
  cb.broadcast = [&log](sim::MessagePtr msg) {
    if (msg->kind == sim::MsgKind::kEcho) {
      const auto& echo = *sim::msg_cast<EchoMsg>(msg);
      log.push_back("echo " + std::to_string(echo.proposer) + " " +
                    std::to_string(echo.block_hash[0]));
    } else if (msg->kind == sim::MsgKind::kPull) {
      log.push_back("pull-all " +
                    std::to_string(sim::msg_cast<PullMsg>(msg)->proposer));
    }
  };
  cb.send_to = [&log](std::uint32_t peer, sim::MessagePtr msg) {
    if (msg->kind == sim::MsgKind::kPull) {
      log.push_back("pull " +
                    std::to_string(sim::msg_cast<PullMsg>(msg)->proposer) +
                    " -> " + std::to_string(peer));
    }
  };
  cb.on_superblock = [](std::vector<txn::BlockPtr>) {};
  cb.set_timer = [](SimDuration, std::function<void()>) {};  // never fires
  SuperblockInstance instance{config, 0, std::move(cb)};
  SetEchoReference ref{config};

  // Three competing hashes per proposer; most schedules favour one.
  Hash32 hashes[3];
  for (std::uint8_t h = 0; h < 3; ++h) {
    hashes[h][0] = static_cast<std::uint8_t>(h + 1);
  }
  const std::uint64_t bias = rng.next_below(4);
  const std::uint32_t proposers = std::min<std::uint32_t>(n, 3);

  for (std::uint64_t step = 0; step < 400; ++step) {
    const std::uint32_t proposer =
        static_cast<std::uint32_t>(rng.next_below(proposers));
    std::uint32_t from = static_cast<std::uint32_t>(rng.next_below(n));
    if (rng.next_below(20) == 0) {
      from = n + static_cast<std::uint32_t>(rng.next_below(3));  // not a rank
    }
    if (rng.next_below(100) < 92) {
      const std::size_t h = rng.next_below(4) < bias ? 0 : rng.next_below(3);
      auto echo = std::make_shared<EchoMsg>();
      echo->proposer = proposer;
      echo->block_hash = hashes[h];
      instance.handle(from, echo);
      ref.on_echo(from, proposer, hashes[h]);
    } else {
      auto decided = std::make_shared<DecidedMsg>();
      decided->proposer = proposer;
      decided->value = rng.next_below(4) != 0;
      instance.handle(from, decided);
      ref.on_decided(from, proposer, decided->value);
    }
    ASSERT_EQ(log, ref.log) << "step " << step;
    for (std::uint32_t p = 0; p < n; ++p) {
      const auto debug = instance.slot_debug(p);
      ASSERT_EQ(debug.echoers, ref.echoers(p)) << "step " << step;
      ASSERT_EQ(debug.delivered, ref.delivered(p)) << "step " << step;
      ASSERT_EQ(debug.pulling, ref.pulling(p)) << "step " << step;
    }
  }
  for (const std::string& entry : log) {
    outcome->amplified += entry.rfind("echo ", 0) == 0 ? 1 : 0;
    outcome->targeted_pulls += entry.rfind("pull ", 0) == 0 ? 1 : 0;
  }
  for (std::uint32_t p = 0; p < n; ++p) {
    outcome->delivered += ref.delivered(p) ? 1 : 0;
  }
}

constexpr std::uint32_t kSizes[] = {4, 7, 20};
constexpr std::uint64_t kSeeds = 30;

class EchoDifferential
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint64_t>> {
};

TEST_P(EchoDifferential, SameEchoesPullsAndSlotStateAsSetReference) {
  Outcome outcome;
  run_schedule(std::get<0>(GetParam()), std::get<1>(GetParam()), &outcome);
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, EchoDifferential,
    ::testing::Combine(::testing::ValuesIn(kSizes),
                       ::testing::Range<std::uint64_t>(0, kSeeds)));

/// The schedules must amplify, deliver and send targeted PULLs at every
/// size, or the comparison above passes vacuously.
TEST(EchoDifferentialCoverage, SchedulesAmplifyDeliverAndPull) {
  for (const std::uint32_t n : kSizes) {
    Outcome total;
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
      Outcome outcome;
      run_schedule(n, seed, &outcome);
      total.amplified += outcome.amplified;
      total.delivered += outcome.delivered;
      total.targeted_pulls += outcome.targeted_pulls;
    }
    EXPECT_GT(total.amplified, 0) << "n=" << n;
    EXPECT_GT(total.delivered, 0) << "n=" << n;
    EXPECT_GT(total.targeted_pulls, 0) << "n=" << n;
  }
}

}  // namespace
}  // namespace srbb::consensus
