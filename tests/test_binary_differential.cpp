// Differential test: BinaryConsensus (per-rank flags and running counts)
// against the set/map machine it replaced (oracle_binary_consensus.hpp).
// Both are fed one seeded random schedule — duplicates, stale, current,
// near-future and far-future rounds, sender ranks at and far beyond n,
// interleaved rebroadcast(), DECIDED announcements up to adoption — and must
// make the same callbacks in the same order and expose the same state after
// every input.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "consensus/binary.hpp"
#include "oracle_binary_consensus.hpp"

namespace srbb::consensus {
namespace {

/// One machine plus the log of every callback it made. Like
/// SuperblockInstance, its own EST/AUX are delivered back to it
/// synchronously, which exercises the machine's reentrancy guard.
template <typename Machine>
struct Logged {
  std::vector<std::string> log;
  std::unique_ptr<Machine> machine;

  Logged(std::uint32_t n, std::uint32_t f, std::uint32_t self) {
    typename Machine::Callbacks cb;
    cb.send_est = [this, self](std::uint32_t r, bool v) {
      log.push_back("est " + std::to_string(r) + " " + std::to_string(v));
      machine->on_est(self, r, v);
    };
    cb.send_aux = [this, self](std::uint32_t r, bool v) {
      log.push_back("aux " + std::to_string(r) + " " + std::to_string(v));
      machine->on_aux(self, r, v);
    };
    cb.send_decided = [this](bool v) {
      log.push_back("decided " + std::to_string(v));
    };
    cb.send_decided_to = [this](std::uint32_t peer, bool v) {
      log.push_back("decided_to " + std::to_string(peer) + " " +
                    std::to_string(v));
    };
    cb.on_decide = [this](bool v) {
      log.push_back("decide " + std::to_string(v));
    };
    machine = std::make_unique<Machine>(n, f, std::move(cb));
  }
};

struct Input {
  enum Kind { kStart, kEst, kAux, kDecided, kRebroadcast } kind;
  std::uint32_t from;
  std::uint32_t round;
  bool value;
};

/// What a schedule reached, so the suite can check it is not vacuous.
struct Outcome {
  bool decided_by_aux = false;       // decided while handling EST/AUX
  bool decided_by_adoption = false;  // decided on f+1 DECIDED announcements
  std::uint32_t max_round = 0;
};

/// Run one seeded schedule through both machines, comparing after every
/// input; fatal on the first divergence.
void run_schedule(std::uint32_t n, std::uint64_t seed, Outcome* outcome) {
  const std::uint32_t f = (n - 1) / 3;
  const std::uint32_t self = static_cast<std::uint32_t>(seed % n);
  Rng rng{seed * 1000 + n};
  Logged<BinaryConsensus> fast{n, f, self};
  Logged<oracle::SetBinaryConsensus> ref{n, f, self};

  // A bias per schedule towards one value, so some schedules converge in
  // round 0 and others need several rounds.
  const std::uint64_t bias = rng.next_below(5);
  auto random_value = [&] { return rng.next_below(4) < bias; };
  auto random_sender = [&]() -> std::uint32_t {
    const std::uint64_t pick = rng.next_below(100);
    if (pick < 85) return static_cast<std::uint32_t>(rng.next_below(n));
    if (pick < 95) return n + static_cast<std::uint32_t>(rng.next_below(3));
    return 5000 + static_cast<std::uint32_t>(rng.next_below(3));  // sparse
  };
  auto random_round = [&]() -> std::uint32_t {
    const std::uint32_t now = ref.machine->round();
    const std::uint64_t pick = rng.next_below(20);
    if (pick < 13) return now;
    if (pick < 15) return now + 1;
    if (pick < 17) return now > 0 ? now - 1 : 0;
    if (pick < 19) return now + 2;
    return now + 40;  // far future: buffered, never walked
  };

  std::vector<Input> history;
  const std::uint64_t start_at = rng.next_below(40);
  for (std::uint64_t step = 0; step < 1500; ++step) {
    Input in{};
    const std::uint64_t pick = rng.next_below(100);
    if (step == start_at) {
      in = {Input::kStart, 0, 0, random_value()};
    } else if (pick < 10 && !history.empty()) {
      in = history[rng.next_below(history.size())];  // duplicate / replay
    } else if (pick < 50) {
      in = {Input::kEst, random_sender(), random_round(), random_value()};
    } else if (pick < 90) {
      in = {Input::kAux, random_sender(), random_round(), random_value()};
    } else if (pick < 93) {
      in = {Input::kDecided, random_sender(), 0, random_value()};
    } else {
      in = {Input::kRebroadcast, 0, 0, false};
    }
    history.push_back(in);

    auto apply = [&](auto& logged) {
      auto& m = *logged.machine;
      switch (in.kind) {
        case Input::kStart: m.start(in.value); break;
        case Input::kEst: m.on_est(in.from, in.round, in.value); break;
        case Input::kAux: m.on_aux(in.from, in.round, in.value); break;
        case Input::kDecided: m.on_decided(in.from, in.value); break;
        case Input::kRebroadcast: m.rebroadcast(); break;
      }
    };
    const bool was_decided = ref.machine->decided();
    apply(fast);
    apply(ref);
    if (!was_decided && ref.machine->decided()) {
      (in.kind == Input::kDecided ? outcome->decided_by_adoption
                                  : outcome->decided_by_aux) = true;
    }
    outcome->max_round = std::max(outcome->max_round, ref.machine->round());

    ASSERT_EQ(fast.log, ref.log) << "step " << step;
    ASSERT_EQ(fast.machine->started(), ref.machine->started());
    ASSERT_EQ(fast.machine->decided(), ref.machine->decided()) << step;
    ASSERT_EQ(fast.machine->decision(), ref.machine->decision()) << step;
    ASSERT_EQ(fast.machine->round(), ref.machine->round()) << step;
    for (const bool v : {false, true}) {
      ASSERT_EQ(fast.machine->decided_votes(v), ref.machine->decided_votes(v))
          << step;
    }
  }
}

constexpr std::uint32_t kSizes[] = {4, 7, 20};
constexpr std::uint64_t kSeeds = 40;

class BinaryDifferential
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint64_t>> {
};

TEST_P(BinaryDifferential, SameCallbacksAndStateAsSetMachine) {
  Outcome outcome;
  run_schedule(std::get<0>(GetParam()), std::get<1>(GetParam()), &outcome);
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, BinaryDifferential,
    ::testing::Combine(::testing::ValuesIn(kSizes),
                       ::testing::Range<std::uint64_t>(0, kSeeds)));

/// The schedules must reach the interesting states, or the comparison above
/// passes vacuously: decisions through the AUX rule and through DECIDED
/// adoption, and rounds past the first two, at every size.
TEST(BinaryDifferentialCoverage, SchedulesReachDecisionsAndLaterRounds) {
  for (const std::uint32_t n : kSizes) {
    int by_aux = 0;
    int by_adoption = 0;
    std::uint32_t max_round = 0;
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
      Outcome outcome;
      run_schedule(n, seed, &outcome);
      by_aux += outcome.decided_by_aux ? 1 : 0;
      by_adoption += outcome.decided_by_adoption ? 1 : 0;
      max_round = std::max(max_round, outcome.max_round);
    }
    EXPECT_GT(by_aux, 0) << "n=" << n;
    EXPECT_GT(by_adoption, 0) << "n=" << n;
    EXPECT_GE(max_round, 2u) << "n=" << n;
  }
}

}  // namespace
}  // namespace srbb::consensus
