// Event lanes (sim/event_loop.hpp) against the one-heap engine they replaced
// (tests/oracle_event_loop.hpp), and the inline sim::Task closures against
// the std::function ones. Each seed builds a random program of heap timers,
// post_work on several nodes, network sends and fan-outs (Network::multicast
// against the oracle's per-copy send looped over the same recipients) with
// random latency, bandwidth and faults, whose handlers schedule more of the
// same; in half of the programs some timers re-arm themselves from their own
// handler at the same sim time, so a freed timer slot is reused at once.
// Both engines must fire the same (time, id) sequence. The lane tests at
// the end cover the lane's block storage; a replacement operator new and
// delete in this binary count its heap blocks.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "oracle_event_loop.hpp"
#include "sim/event_loop.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"

namespace {
std::size_t g_news = 0;     // operator new calls in this binary
std::size_t g_deletes = 0;  // operator delete calls on a block
}  // namespace

// All three out of line, so GCC sees neither malloc() meet operator delete
// nor free() meet operator new, and warns of no mismatch
// (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++g_news;
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* block) noexcept {
  if (block != nullptr) ++g_deletes;
  std::free(block);
}
[[gnu::noinline]] void operator delete(void* block, std::size_t) noexcept {
  if (block != nullptr) ++g_deletes;
  std::free(block);
}

namespace srbb::sim {
namespace {

constexpr std::uint64_t kSeeds = 200;

struct Probe final : Message {
  Probe(std::size_t payload_bytes, std::uint64_t event_id)
      : bytes(payload_bytes), id(event_id) {}
  std::size_t size_bytes() const override { return bytes; }
  const char* type() const override { return "probe"; }
  std::size_t bytes;
  std::uint64_t id;
};

using Receive = std::function<void(const MessagePtr&)>;

class ProbeNode final : public SimNode {
 public:
  ProbeNode(Simulation& simulation, NodeId id, RegionId region,
            Receive receive)
      : SimNode(simulation, id, region), receive_(std::move(receive)) {}
  void handle_message(NodeId, const MessagePtr& message) override {
    receive_(message);
  }

 private:
  Receive receive_;
};

/// One program's world: committee size, wire and fault plan.
struct Spec {
  std::uint64_t seed = 0;
  std::size_t nodes = 0;
  std::vector<RegionId> regions;
  NetworkConfig net;
  FaultPlan faults;
  std::uint32_t budget = 0;  // events the program creates in all
  bool rearm = false;        // some timers re-arm from their own handler
};

Spec make_spec(std::uint64_t seed) {
  Rng rng{seed * 7919 + 13};
  Spec spec;
  spec.seed = seed;
  spec.nodes = 2 + rng.next_below(5);
  const std::size_t regions = 1 + rng.next_below(3);
  for (std::size_t i = 0; i < spec.nodes; ++i) {
    spec.regions.push_back(static_cast<RegionId>(i % regions));
  }
  // A quarter of the programs run on a zero-latency wire: with zero-byte
  // messages and zero-cost work, many events then share one time.
  const SimDuration one_way =
      rng.next_below(4) == 0 ? 0 : millis(1 + rng.next_below(80));
  spec.net.latency = LatencyModel::uniform(regions, one_way);
  spec.net.bandwidth_bps =
      rng.next_bool(0.5) ? 1e5 * static_cast<double>(1 + rng.next_below(100))
                         : 2.5e9;
  spec.net.seed = seed + 1;
  spec.faults.seed = seed + 2;
  if (rng.next_bool(0.75)) {
    spec.faults.default_link.drop = 0.15 * rng.next_double();
    spec.faults.default_link.duplicate = 0.3 * rng.next_double();
    spec.faults.default_link.reorder = 0.3 * rng.next_double();
    spec.faults.default_link.reorder_delay_max = millis(30);
  }
  if (rng.next_bool(0.5)) {
    const SimTime at = millis(rng.next_below(150));
    spec.faults.crashes.push_back(
        CrashSpec{static_cast<NodeId>(rng.next_below(spec.nodes)), at,
                  at + millis(1 + rng.next_below(150))});
  }
  spec.budget = 100 + static_cast<std::uint32_t>(rng.next_below(400));
  spec.rearm = rng.next_bool(0.5);
  return spec;
}

/// The engine under test: Simulation with its lanes, the real Network.
struct LaneWorld {
  LaneWorld(const Spec& spec, const Receive& receive)
      : faults(spec.faults), net(sim, spec.net) {
    net.set_fault_injector(&faults);
    for (std::size_t i = 0; i < spec.nodes; ++i) {
      nodes.push_back(std::make_unique<ProbeNode>(
          sim, static_cast<NodeId>(i), spec.regions[i], receive));
      net.attach(nodes.back().get());
    }
  }
  void post_work(NodeId node, SimDuration cost, Task fn) {
    nodes[node]->post_work(cost, std::move(fn));
  }
  void send(NodeId from, NodeId to, MessagePtr message) {
    net.send(from, to, std::move(message));
  }
  void multicast(NodeId from, std::span<const NodeId> to,
                 const MessagePtr& message) {
    const FaultStats before = faults.stats();
    net.multicast(from, to, message);
    const FaultStats& after = faults.stats();
    if (to.size() > 1 && (after.dropped != before.dropped ||
                          after.duplicated != before.duplicated ||
                          after.reordered != before.reordered)) {
      ++faulted_fanouts;
    }
  }

  Simulation sim;
  FaultInjector faults;
  Network net;
  std::vector<std::unique_ptr<ProbeNode>> nodes;
  std::uint64_t faulted_fanouts = 0;  // fan-outs to 2+ with a fault verdict
};

/// The reference: one heap of every event.
struct HeapWorld {
  HeapWorld(const Spec& spec, const Receive& receive)
      : faults(spec.faults),
        net(sim, spec.net, spec.regions, &faults,
            [receive](NodeId, NodeId, const MessagePtr& message) {
              receive(message);
            }) {}
  void post_work(NodeId node, SimDuration cost, oracle::EventFn fn) {
    net.post_work(node, cost, std::move(fn));
  }
  void send(NodeId from, NodeId to, MessagePtr message) {
    net.send(from, to, std::move(message));
  }
  void multicast(NodeId from, std::span<const NodeId> to,
                 const MessagePtr& message) {
    for (const NodeId receiver : to) net.send(from, receiver, message);
  }

  oracle::HeapSimulation sim;
  FaultInjector faults;
  oracle::HeapNetwork net;
};

struct Outcome {
  std::vector<std::pair<SimTime, std::uint64_t>> fired;  // (time, event id)
  std::uint64_t events = 0;
  SimTime end = 0;
  std::uint64_t rearms = 0;  // timers armed from their own handler
};

/// A random program. Its RNG is drawn in firing order, so two engines that
/// fire differently also go on to build different programs.
template <typename World>
class Program {
 public:
  explicit Program(const Spec& spec)
      : spec_(spec),
        rng_(spec.seed),
        budget_(spec.budget),
        world_(spec, [this](const MessagePtr& message) {
          fire(static_cast<const Probe&>(*message).id);
        }) {}

  Outcome run() {
    for (std::uint32_t i = 0; i < spec_.budget / 4; ++i) act();
    world_.sim.run_until(millis(60));
    // More events from outside the loop, mid-run.
    for (std::uint32_t i = 0; i < spec_.budget / 8; ++i) act();
    world_.sim.run_until_idle();
    outcome_.events = world_.sim.events_processed();
    outcome_.end = world_.sim.now();
    return std::move(outcome_);
  }

  World& world() { return world_; }

 private:
  void fire(std::uint64_t id) {
    outcome_.fired.emplace_back(world_.sim.now(), id);
    const std::uint64_t more = rng_.next_below(3);
    for (std::uint64_t i = 0; i < more; ++i) act();
  }

  /// A timer that, when it fires, arms itself again `left` more times at
  /// the same sim time.
  void rearm(std::uint64_t id, SimDuration after, std::uint32_t left) {
    world_.sim.schedule_after(after, [this, id, left] {
      fire(id);
      if (left == 0) return;
      ++outcome_.rearms;
      rearm(id, 0, left - 1);
    });
  }

  SimDuration delay() {
    return rng_.next_bool(0.3) ? 0 : rng_.next_below(millis(20));
  }

  void act() {
    if (budget_ == 0) return;
    --budget_;
    const std::uint64_t id = next_id_++;
    const auto node = static_cast<NodeId>(rng_.next_below(spec_.nodes));
    switch (rng_.next_below(5)) {
      case 0:
        if (spec_.rearm && rng_.next_bool(0.5)) {
          const auto again = static_cast<std::uint32_t>(rng_.next_below(4));
          rearm(id, delay(), 1 + again);
        } else {
          world_.sim.schedule_after(delay(), [this, id] { fire(id); });
        }
        break;
      case 1:
        world_.post_work(node, delay(), [this, id] { fire(id); });
        break;
      case 2: {
        // A fan-out to a random subset of the nodes, in random order.
        std::vector<NodeId> to;
        for (NodeId peer = 0; peer < spec_.nodes; ++peer) {
          if (rng_.next_bool(0.6)) {
            to.insert(to.begin() + static_cast<std::ptrdiff_t>(
                                       rng_.next_below(to.size() + 1)),
                      peer);
          }
        }
        world_.multicast(node, to, std::make_shared<Probe>(bytes(), id));
        break;
      }
      default: {
        const auto to = static_cast<NodeId>(rng_.next_below(spec_.nodes));
        world_.send(node, to, std::make_shared<Probe>(bytes(), id));
      }
    }
  }

  std::size_t bytes() {
    return rng_.next_bool(0.3) ? 0 : rng_.next_below(4000);
  }

  const Spec& spec_;
  Rng rng_;
  std::uint32_t budget_;
  std::uint64_t next_id_ = 0;
  Outcome outcome_;
  World world_;  // last: its nodes call back into the members above
};

class EventLaneDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventLaneDifferential, SameFiringSequenceAsOneHeap) {
  const Spec spec = make_spec(GetParam());
  const Outcome lanes = Program<LaneWorld>{spec}.run();
  const Outcome heap = Program<HeapWorld>{spec}.run();
  ASSERT_EQ(lanes.fired.size(), heap.fired.size());
  for (std::size_t i = 0; i < heap.fired.size(); ++i) {
    ASSERT_EQ(lanes.fired[i], heap.fired[i]) << "event " << i;
  }
  EXPECT_EQ(lanes.events, heap.events);
  EXPECT_EQ(lanes.end, heap.end);
  EXPECT_EQ(lanes.rearms, heap.rearms);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventLaneDifferential,
                         ::testing::Range<std::uint64_t>(0, kSeeds));

// The seeds must reach what the differential is about; a generator that
// drifted into trivial programs would pass it vacuously.
TEST(EventLaneDifferentialCoverage, ProgramsReachFaultsTiesAndDeepLanes) {
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t reordered = 0;
  std::uint64_t crash_lost = 0;
  std::uint64_t ties = 0;
  std::uint64_t deep_lane_runs = 0;
  std::uint64_t rearms = 0;
  std::uint64_t faulted_fanouts = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const Spec spec = make_spec(seed);
    Program<LaneWorld> program{spec};
    const Outcome outcome = program.run();
    const LaneWorld& world = program.world();
    dropped += world.faults.stats().dropped;
    duplicated += world.faults.stats().duplicated;
    reordered += world.faults.stats().reordered;
    // Copies put on the wire minus copies handed to a receiver: the ones a
    // crash swallowed in flight.
    std::uint64_t copies = 0;
    std::uint64_t received = 0;
    for (const auto& node : world.nodes) {
      const NodeStats& stats = node->stats();
      copies += stats.messages_sent - stats.messages_dropped -
                stats.partition_blocked + stats.messages_duplicated;
      received += stats.messages_received;
    }
    crash_lost += copies - received;
    for (std::size_t i = 1; i < outcome.fired.size(); ++i) {
      if (outcome.fired[i].first == outcome.fired[i - 1].first) ++ties;
    }
    if (world.sim.peak_pending() > 2 * world.sim.peak_heap()) ++deep_lane_runs;
    rearms += outcome.rearms;
    faulted_fanouts += world.faulted_fanouts;
  }
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(duplicated, 0u);
  EXPECT_GT(reordered, 0u);
  EXPECT_GT(crash_lost, 0u);
  EXPECT_GT(ties, 0u);
  EXPECT_GT(deep_lane_runs, 0u);
  EXPECT_GT(rearms, 0u);
  EXPECT_GT(faulted_fanouts, 0u);
}

TEST(EventLanes, HeapHoldsOneHeadPerLane) {
  Simulation sim;
  std::vector<std::unique_ptr<WorkLane>> lanes;
  for (int i = 0; i < 4; ++i) lanes.push_back(std::make_unique<WorkLane>(sim));
  int fired = 0;
  for (SimTime t = 0; t < 1000; ++t) {
    for (auto& lane : lanes) lane->push(t, [&fired] { ++fired; });
  }
  sim.schedule_at(500, [&fired] { ++fired; });
  EXPECT_EQ(sim.peak_heap(), 5u);
  EXPECT_EQ(sim.pending_events(), 4001u);
  sim.run_until_idle();
  EXPECT_EQ(fired, 4001);
  EXPECT_EQ(sim.events_processed(), 4001u);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.peak_heap(), 5u);
  EXPECT_EQ(sim.peak_pending(), 4001u);
}

TEST(EventLanes, FiringLaneKeepsItsHeapEntry) {
  Simulation sim;
  WorkLane a{sim};
  WorkLane b{sim};
  WorkLane c{sim};
  std::vector<std::string> order;
  const auto record = [&order](const char* name) {
    return [&order, name] { order.emplace_back(name); };
  };
  // A run of lane events whose successor precedes every other head: the lane
  // fires again next, on the heap entry it already has.
  for (SimTime t = 1; t <= 100; ++t) a.push(t, record("a"));
  c.push(1000, record("c"));
  EXPECT_EQ(sim.head_pushes(), 2u);
  sim.run_until(100);
  EXPECT_EQ(order, std::vector<std::string>(100, "a"));
  EXPECT_EQ(sim.events_processed(), 100u);
  EXPECT_EQ(sim.head_pushes(), 2u);  // no pop-and-push per event
  EXPECT_EQ(sim.peak_heap(), 2u);

  // Same-time pushes from inside a firing lane event. b's head cannot
  // displace a's entry, so it fires after a1; it was pushed before a's
  // successor, so (time, seq) puts it before a2 as well.
  order.clear();
  a.push(200, [&] {
    order.emplace_back("a1");
    b.push(200, record("b"));
    a.push(200, record("a2"));
  });
  sim.run_until_idle();
  EXPECT_EQ(order, (std::vector<std::string>{"a1", "b", "a2", "c"}));
  EXPECT_EQ(sim.head_pushes(), 4u);  // a, emptied, then b; not a2
  EXPECT_EQ(sim.peak_heap(), 3u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// peak_heap counts pending entries only. A firing timer has left the heap
// before its handler runs, and a firing lane's entry, which stays at the root
// while its event runs, is not counted meanwhile.
TEST(EventLanes, FiringTimerLeavesTheHeapBeforeItRuns) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(1, [&] {
    sim.schedule_at(2, [&fired] { ++fired; });
    ++fired;
  });
  sim.run_until_idle();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.peak_heap(), 1u);
}

TEST(EventLanes, FiringLaneEntryIsNotCountedInPeakHeap) {
  Simulation sim;
  WorkLane lane{sim};
  int fired = 0;
  lane.push(1, [&] {
    sim.schedule_at(2, [&fired] { ++fired; });
    ++fired;
  });
  sim.run_until_idle();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.peak_heap(), 1u);
  EXPECT_EQ(sim.head_pushes(), 1u);
}

TEST(EventLanes, SameTimeEventsFireInScheduleOrderAcrossLanesAndTimers) {
  Simulation sim;
  WorkLane a{sim};
  WorkLane b{sim};
  std::vector<int> order;
  for (int i = 0; i < 9; ++i) {
    const auto record = [&order, i] { order.push_back(i); };
    switch (i % 3) {
      case 0: a.push(7, record); break;
      case 1: sim.schedule_at(7, record); break;
      default: b.push(7, record); break;
    }
  }
  sim.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(EventLanes, PastPushClampsToNow) {
  Simulation sim;
  WorkLane lane{sim};
  SimTime fired_at = 0;
  sim.schedule_at(100, [&] {
    lane.push(50, [&] { fired_at = sim.now(); });  // "in the past"
  });
  sim.run_until_idle();
  EXPECT_EQ(fired_at, 100u);
}

// A lane stores its items in blocks of kItemsPerBlock, today 4 KB of
// 72-byte {key, Task} items.
static_assert(WorkLane::kItemsPerBlock == 56);

TEST(EventLaneBlocks, PushesAndFiresAcrossBlockBoundaries) {
  constexpr std::size_t kItems = 3 * WorkLane::kItemsPerBlock + 5;
  Simulation sim;
  WorkLane lane{sim};
  std::vector<std::size_t> order;
  // Fill and drain twice: the second pass runs on recycled blocks.
  for (int pass = 0; pass < 2; ++pass) {
    order.clear();
    const SimTime base = sim.now();
    for (std::size_t i = 0; i < kItems; ++i) {
      lane.push(base + i / 3, [&order, i] { order.push_back(i); });
    }
    EXPECT_EQ(sim.pending_events(), kItems);
    sim.run_until_idle();
    ASSERT_EQ(order.size(), kItems);
    for (std::size_t i = 0; i < kItems; ++i) ASSERT_EQ(order[i], i);
  }
  EXPECT_EQ(sim.head_pushes(), 2u);  // one per pass: the lane never emptied
}

// The front item runs where it lies while a push from inside it fills its
// block's last slot and then opens a new block: its capture must still be
// intact after both (ASan would flag a moved or freed item).
TEST(EventLaneBlocks, PushFromAFiringItemOpensANewBlock) {
  Simulation sim;
  WorkLane lane{sim};
  std::vector<std::string> order;
  const auto name = std::make_shared<std::string>("front");
  lane.push(1, [&, name] {
    lane.push(2, [&order] { order.emplace_back("fills the block"); });
    lane.push(2, [&order] { order.emplace_back("opens a block"); });
    order.push_back(*name);  // read after the pushes
  });
  for (std::size_t i = 2; i < WorkLane::kItemsPerBlock; ++i) {
    lane.push(1, [] {});
  }
  sim.run_until_idle();
  EXPECT_EQ(order, (std::vector<std::string>{"front", "fills the block",
                                             "opens a block"}));
  EXPECT_EQ(name.use_count(), 1);
  EXPECT_EQ(sim.events_processed(), WorkLane::kItemsPerBlock + 1);
}

// A lane destroyed with items queued in several blocks destroys each
// capture exactly once and frees its blocks (ASan checks the frees). The
// simulation is not run again: its heap still points at the lane.
TEST(EventLaneBlocks, LaneDestroyedWithItemsQueuedReleasesThem) {
  Simulation sim;
  const auto token = std::make_shared<int>(0);
  auto lane = std::make_unique<WorkLane>(sim);
  for (std::size_t i = 0; i < 3 * WorkLane::kItemsPerBlock; ++i) {
    lane->push(i, [token] { ++*token; });
  }
  sim.run_until(WorkLane::kItemsPerBlock + 3);  // drain a block and a bit
  EXPECT_EQ(*token, static_cast<int>(WorkLane::kItemsPerBlock + 4));
  const std::size_t news = g_news;
  const std::size_t deletes = g_deletes;
  lane.reset();
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(g_news, news);
  // The lane, its two live blocks and its spare.
  EXPECT_EQ(g_deletes - deletes, 4u);
}

// A lane whose length hovers recycles its blocks: no allocation per event
// once it has reached its working size, and after a drain it holds its last
// block and one spare, whatever depth it reached.
TEST(EventLaneBlocks, SteadyStateRecyclesBlocksAndCapsTheSpares) {
  constexpr std::size_t kDepth = 3 * WorkLane::kItemsPerBlock + 7;
  Simulation sim;
  WorkLane lane{sim};
  std::size_t fired = 0;
  SimTime t = 0;
  const auto one_in_one_out = [&](std::size_t events) {
    for (std::size_t i = 0; i < events; ++i, ++t) {
      lane.push(t, [&fired] { ++fired; });
      sim.run_until(t - kDepth + 1);
    }
  };
  for (; t < kDepth; ++t) lane.push(t, [&fired] { ++fired; });
  sim.run_until(0);
  // Warm up: the tail may need a block before the head frees its first.
  one_in_one_out(2 * WorkLane::kItemsPerBlock);
  const std::size_t news = g_news;
  one_in_one_out(100 * WorkLane::kItemsPerBlock);
  EXPECT_EQ(g_news - news, 0u);
  EXPECT_EQ(fired, 102 * WorkLane::kItemsPerBlock + 1);

  // Drain, then fill to ten blocks and drain again: every block beyond the
  // lane's last one and the spare goes back to the allocator.
  sim.run_until_idle();
  const std::size_t filled_news = g_news;
  const std::size_t drained_deletes = g_deletes;
  for (std::size_t i = 0; i < 10 * WorkLane::kItemsPerBlock; ++i) {
    lane.push(sim.now(), [&fired] { ++fired; });
  }
  const std::size_t grown = g_news - filled_news;
  EXPECT_EQ(grown, 8u);  // ten blocks: the kept one, the spare, eight new
  sim.run_until_idle();
  EXPECT_EQ(g_deletes - drained_deletes, grown);
}

TEST(EventLanesDeathTest, PushBackInTimeAborts) {
  Simulation sim;
  WorkLane lane{sim};
  lane.push(10, [] {});
  EXPECT_DEATH(lane.push(5, [] {}), "SRBB_CHECK");
}

}  // namespace
}  // namespace srbb::sim
