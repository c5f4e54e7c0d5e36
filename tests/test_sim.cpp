#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/event_loop.hpp"
#include "sim/fault.hpp"
#include "sim/gossip.hpp"
#include "sim/latency.hpp"
#include "sim/network.hpp"

namespace srbb::sim {
namespace {

TEST(Simulation, EventsFireInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(Simulation, SameTimeEventsAreFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  sim.run_until_idle();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulation, HandlersCanScheduleMore) {
  Simulation sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) sim.schedule_after(10, chain);
  };
  sim.schedule_at(0, chain);
  sim.run_until_idle();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.now(), 40u);
}

TEST(Simulation, RunUntilStopsAtBoundary) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(10, [&] { ++fired; });
  sim.schedule_at(20, [&] { ++fired; });
  sim.schedule_at(30, [&] { ++fired; });
  sim.run_until(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20u);
  sim.run_until_idle();
  EXPECT_EQ(fired, 3);
}

TEST(Simulation, PastSchedulingClampsToNow) {
  Simulation sim;
  sim.schedule_at(100, [&] {
    sim.schedule_at(50, [] {});  // "in the past" -> fires at now
  });
  sim.run_until_idle();
  EXPECT_EQ(sim.now(), 100u);
  EXPECT_EQ(sim.events_processed(), 2u);
}

TEST(Latency, AwsGlobalShape) {
  const LatencyModel model = LatencyModel::aws_global();
  EXPECT_EQ(model.region_count(), 10u);
  // Symmetric, near-zero diagonal, Sydney-Stockholm is the long haul.
  for (RegionId i = 0; i < 10; ++i) {
    EXPECT_EQ(model.base(i, i), millis(1));
    for (RegionId j = 0; j < 10; ++j) {
      EXPECT_EQ(model.base(i, j), model.base(j, i));
    }
  }
  EXPECT_GT(model.base(8, 7), millis(100));  // Sydney <-> Stockholm
  EXPECT_LT(model.base(4, 5), millis(10));   // N. Virginia <-> Ohio
}

TEST(Latency, SampleJitterBounded) {
  const LatencyModel model = LatencyModel::aws_global();
  Rng rng{3};
  const SimDuration base = model.base(0, 9);
  for (int i = 0; i < 500; ++i) {
    const SimDuration sample = model.sample(0, 9, rng);
    EXPECT_GE(sample, base * 9 / 10);
    EXPECT_LE(sample, base * 11 / 10);
  }
}

TEST(Latency, RoundRobinAssignmentBalanced) {
  const LatencyModel model = LatencyModel::aws_global();
  const auto regions = model.assign_round_robin(200);
  std::vector<int> counts(10, 0);
  for (const RegionId r : regions) counts[r]++;
  for (const int c : counts) EXPECT_EQ(c, 20);
}

// --- network ---

struct Ping : Message {
  explicit Ping(std::size_t n) : bytes(n) {}
  std::size_t bytes;
  std::size_t size_bytes() const override { return bytes; }
  const char* type() const override { return "ping"; }
};

class EchoNode : public SimNode {
 public:
  using SimNode::SimNode;
  void handle_message(NodeId from, const MessagePtr& message) override {
    received.emplace_back(from, now());
    (void)message;
  }
  std::vector<std::pair<NodeId, SimTime>> received;
};

struct NetFixture {
  Simulation sim;
  NetworkConfig config;
  std::unique_ptr<Network> net;
  std::vector<std::unique_ptr<EchoNode>> nodes;

  explicit NetFixture(std::size_t n, NetworkConfig cfg = {}) : config(cfg) {
    net = std::make_unique<Network>(sim, config);
    const auto regions = config.latency.assign_round_robin(n);
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<EchoNode>(
          sim, static_cast<NodeId>(i), regions[i]));
      net->attach(nodes.back().get());
    }
  }
};

TEST(Network, DeliversWithLatency) {
  NetworkConfig cfg;
  cfg.latency = LatencyModel::uniform(2, millis(50));
  NetFixture f{2, cfg};
  f.nodes[0]->send(1, std::make_shared<Ping>(100));
  f.sim.run_until_idle();
  ASSERT_EQ(f.nodes[1]->received.size(), 1u);
  // 50 ms propagation with +/-10% jitter, plus sub-ms serialization.
  EXPECT_GE(f.nodes[1]->received[0].second, millis(45));
  EXPECT_LT(f.nodes[1]->received[0].second, millis(57));
}

TEST(Network, BandwidthSerializesLargeMessages) {
  NetworkConfig cfg;
  cfg.latency = LatencyModel::uniform(2, 0);
  cfg.bandwidth_bps = 8e6;  // 1 MB/s
  NetFixture f{2, cfg};
  // 1 MB message: ~1 s egress + ~1 s ingress serialization.
  f.nodes[0]->send(1, std::make_shared<Ping>(1'000'000));
  f.sim.run_until_idle();
  ASSERT_EQ(f.nodes[1]->received.size(), 1u);
  EXPECT_GE(f.nodes[1]->received[0].second, seconds(2));
  EXPECT_LT(f.nodes[1]->received[0].second, seconds(2) + millis(10));
}

TEST(Network, EgressQueueDelaysBackToBackSends) {
  NetworkConfig cfg;
  cfg.latency = LatencyModel::uniform(3, 0);
  cfg.bandwidth_bps = 8e6;
  NetFixture f{3, cfg};
  // Two 0.5 MB messages to different receivers share the sender NIC.
  f.nodes[0]->send(1, std::make_shared<Ping>(500'000));
  f.nodes[0]->send(2, std::make_shared<Ping>(500'000));
  f.sim.run_until_idle();
  ASSERT_EQ(f.nodes[1]->received.size(), 1u);
  ASSERT_EQ(f.nodes[2]->received.size(), 1u);
  // Second message waits ~0.5 s behind the first at egress.
  EXPECT_GT(f.nodes[2]->received[0].second, f.nodes[1]->received[0].second);
}

TEST(Network, StatsAccounting) {
  NetFixture f{2};
  f.nodes[0]->send(1, std::make_shared<Ping>(123));
  f.sim.run_until_idle();
  EXPECT_EQ(f.nodes[0]->stats().messages_sent, 1u);
  EXPECT_EQ(f.nodes[0]->stats().bytes_sent, 123u);
  EXPECT_EQ(f.nodes[1]->stats().messages_received, 1u);
  EXPECT_EQ(f.nodes[1]->stats().bytes_received, 123u);
  EXPECT_EQ(f.net->total_messages(), 1u);
  EXPECT_EQ(f.net->total_bytes(), 123u);
}

TEST(Network, DeterministicAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    NetworkConfig cfg;
    cfg.latency = LatencyModel::aws_global();
    cfg.seed = seed;
    NetFixture f{20, cfg};
    for (NodeId i = 0; i < 20; ++i) {
      f.nodes[i]->send((i + 1) % 20, std::make_shared<Ping>(1000 + i));
    }
    f.sim.run_until_idle();
    std::vector<SimTime> times;
    for (const auto& node : f.nodes) {
      for (const auto& [from, at] : node->received) times.push_back(at);
    }
    return times;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(NodeCpu, WorkSerializesFifo) {
  Simulation sim;
  Network net{sim, NetworkConfig{}};
  EchoNode node{sim, 0, 0};
  net.attach(&node);
  std::vector<SimTime> done;
  sim.schedule_at(0, [&] {
    node.post_work(millis(10), [&] { done.push_back(sim.now()); });
    node.post_work(millis(5), [&] { done.push_back(sim.now()); });
  });
  sim.run_until_idle();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], millis(10));
  EXPECT_EQ(done[1], millis(15));  // queued behind the first
  EXPECT_EQ(node.stats().cpu_busy, millis(15));
}

// --- in-flight delivery slots ---

/// Records which message object arrived, in delivery order.
class RecordingNode : public SimNode {
 public:
  using SimNode::SimNode;
  void handle_message(NodeId, const MessagePtr& message) override {
    received.push_back(message.get());
  }
  std::vector<const Message*> received;
};

struct SlotFixture {
  Simulation sim;
  Network net;
  std::vector<std::unique_ptr<RecordingNode>> nodes;

  explicit SlotFixture(std::size_t n, SimDuration latency = millis(50))
      : net(sim, NetworkConfig{LatencyModel::uniform(1, latency), 2.5e9, 7}) {
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back(
          std::make_unique<RecordingNode>(sim, static_cast<NodeId>(i), 0));
      net.attach(nodes.back().get());
    }
  }
};

TEST(NetworkSlots, NormalDeliveryReleasesTheMessage) {
  SlotFixture f{4};
  const auto ping = std::make_shared<Ping>(100);
  for (NodeId to = 1; to < 4; ++to) f.nodes[0]->send(to, ping);
  EXPECT_EQ(ping.use_count(), 4);  // one reference per message in flight
  f.sim.run_until_idle();
  for (NodeId to = 1; to < 4; ++to) {
    ASSERT_EQ(f.nodes[to]->received.size(), 1u);
    EXPECT_EQ(f.nodes[to]->received[0], ping.get());
  }
  EXPECT_EQ(ping.use_count(), 1);
}

TEST(NetworkSlots, DuplicateCopiesReleaseTheMessage) {
  SlotFixture f{2};
  FaultPlan plan;
  plan.default_link.duplicate = 1.0;
  FaultInjector injector{plan};
  f.net.set_fault_injector(&injector);
  const auto ping = std::make_shared<Ping>(100);
  f.nodes[0]->send(1, ping);
  f.sim.run_until_idle();
  EXPECT_EQ(f.nodes[1]->received.size(), 2u);
  EXPECT_EQ(f.nodes[0]->stats().messages_duplicated, 1u);
  EXPECT_EQ(ping.use_count(), 1);
}

TEST(NetworkSlots, CrashInFlightDropReleasesTheMessage) {
  SlotFixture f{2};
  FaultPlan plan;
  // Up when the message is sent at t=0, down when it lands at ~50 ms.
  plan.crashes.push_back(CrashSpec{1, millis(10), 0});
  FaultInjector injector{plan};
  f.net.set_fault_injector(&injector);
  const auto ping = std::make_shared<Ping>(100);
  f.nodes[0]->send(1, ping);
  f.sim.run_until_idle();
  EXPECT_TRUE(f.nodes[1]->received.empty());
  EXPECT_EQ(f.nodes[1]->stats().messages_received, 0u);
  EXPECT_EQ(ping.use_count(), 1);
  // The dropped delivery left the ingress lane: a second message is the
  // only one in flight.
  f.net.set_fault_injector(nullptr);
  f.nodes[0]->send(1, ping);
  f.sim.run_until_idle();
  EXPECT_EQ(f.net.peak_in_flight(), 1u);
  EXPECT_EQ(ping.use_count(), 1);
}

TEST(NetworkSlots, SecondBurstReusesSlots) {
  SlotFixture f{5};
  const auto ping = std::make_shared<Ping>(100);
  auto burst = [&] {
    for (NodeId from = 0; from < 5; ++from) {
      for (NodeId to = 0; to < 5; ++to) {
        if (to != from) f.nodes[from]->send(to, ping);
      }
    }
    f.sim.run_until_idle();
  };
  burst();
  // Every message of the burst was in flight at once.
  EXPECT_EQ(f.net.peak_in_flight(), 20u);
  burst();  // the first burst drained, so the peak does not grow
  EXPECT_EQ(f.net.peak_in_flight(), 20u);
  EXPECT_EQ(f.net.total_messages(), 40u);
  EXPECT_EQ(ping.use_count(), 1);
}

TEST(NetworkSlots, SameTimeDeliveriesFireInSendOrder) {
  // Zero latency and zero-byte messages: every delivery lands at t=0, so
  // only the event loop's insertion order separates them.
  SlotFixture f{3, 0};
  std::vector<MessagePtr> sent;
  for (std::size_t i = 0; i < 6; ++i) {
    sent.push_back(std::make_shared<Ping>(0));
    f.nodes[i % 2]->send(2, sent.back());
  }
  f.sim.run_until_idle();
  ASSERT_EQ(f.nodes[2]->received.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(f.nodes[2]->received[i], sent[i].get()) << i;
  }
  EXPECT_EQ(f.sim.now(), 0);
}

// --- gossip overlay ---

class GossipShape : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GossipShape, ConnectedWithMinFanout) {
  const std::size_t n = GetParam();
  const GossipOverlay overlay{n, 4, 99};
  EXPECT_TRUE(overlay.connected());
  for (NodeId i = 0; i < n; ++i) {
    if (n > 4) {
      EXPECT_GE(overlay.peers(i).size(), 4u) << i;
    }
    for (const NodeId peer : overlay.peers(i)) {
      EXPECT_NE(peer, i);
      EXPECT_LT(peer, n);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GossipShape,
                         ::testing::Values(1u, 2u, 4u, 5u, 20u, 100u, 200u));

TEST(Gossip, EdgesAreSymmetric) {
  const GossipOverlay overlay{50, 6, 1};
  for (NodeId i = 0; i < 50; ++i) {
    for (const NodeId peer : overlay.peers(i)) {
      const auto& back = overlay.peers(peer);
      EXPECT_NE(std::find(back.begin(), back.end(), i), back.end());
    }
  }
}

TEST(Gossip, DeterministicInSeed) {
  const GossipOverlay a{30, 4, 5};
  const GossipOverlay b{30, 4, 5};
  const GossipOverlay c{30, 4, 6};
  for (NodeId i = 0; i < 30; ++i) EXPECT_EQ(a.peers(i), b.peers(i));
  bool any_diff = false;
  for (NodeId i = 0; i < 30; ++i) {
    if (a.peers(i) != c.peers(i)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace srbb::sim
