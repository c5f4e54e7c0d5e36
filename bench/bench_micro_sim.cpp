// Microbenchmarks for the discrete-event substrate: raw event throughput, a
// node's FIFO CPU, message delivery through the latency/bandwidth model, and
// gossip overlay construction. These bound how large a deployment the figure
// benches can simulate per wall-clock second. The allocs_per_event counter
// comes from a replacement operator new in this binary
// (tools/perf_smoke.sh gate 9).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "sim/event_loop.hpp"
#include "sim/gossip.hpp"
#include "sim/network.hpp"

namespace {
std::size_t g_news = 0;  // operator new calls in this binary
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
  std::free(block);
}
[[gnu::noinline]] void operator delete(void* block, std::size_t) noexcept {
  std::free(block);
}

namespace {

using namespace srbb;
using namespace srbb::sim;

/// Heap blocks allocated per event over the timed loop, which began when
/// g_news read `before`.
void count_allocs(benchmark::State& state, std::size_t before,
                  std::size_t events_per_iteration) {
  state.counters["allocs_per_event"] =
      static_cast<double>(g_news - before) /
      static_cast<double>(state.iterations() * events_per_iteration);
}

void BM_EventLoopScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t before = g_news;
  for (auto _ : state) {
    Simulation sim;
    for (std::size_t i = 0; i < n; ++i) {
      sim.schedule_at(i, [] {});
    }
    sim.run_until_idle();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  count_allocs(state, before, n);
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventLoopScheduleRun)->Arg(1000)->Arg(100000);

struct Blob final : Message {
  std::size_t n;
  explicit Blob(std::size_t bytes) : n(bytes) {}
  std::size_t size_bytes() const override { return n; }
  const char* type() const override { return "blob"; }
};

class Sink : public SimNode {
 public:
  using SimNode::SimNode;
  void handle_message(NodeId, const MessagePtr&) override { ++received; }
  std::uint64_t received = 0;
};

// One node's CPU: n post_work items queued at once, then drained. Finish
// times never decrease, so every item rides the node's CPU lane.
void BM_PostWorkFifo(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Simulation sim;
    Sink node{sim, 0, 0};
    for (std::size_t i = 0; i < n; ++i) node.post_work(1, [] {});
    sim.run_until_idle();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PostWorkFifo)->Arg(100000);

// BM_PostWorkFifo with the validator's closure: guarded([this, from, tx])
// captures the node, its crash epoch, the sender and a shared_ptr, 48 bytes
// in all, which std::function would put in a heap block per item.
void BM_PostWorkFifoCaptured(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto tx = std::make_shared<std::uint64_t>(0);
  const std::size_t before = g_news;
  for (auto _ : state) {
    Simulation sim;
    Sink node{sim, 0, 0};
    const std::uint64_t epoch = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto from = static_cast<NodeId>(i);
      auto work = [&node, from, tx] { node.received += from + *tx; };
      node.post_work(1, [&node, epoch, work] {
        if (epoch == node.received >> 63) work();
      });
    }
    sim.run_until_idle();
    benchmark::DoNotOptimize(node.received);
  }
  count_allocs(state, before, n);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PostWorkFifoCaptured)->Arg(100000);

// Args {nodes, all_to_all}. {50, 0}: 2000 point-to-point sends spread over
// 50 nodes. {20, 1}: the consensus-bound workload's shape - 20 validators,
// each multicasting one message to the other 19 (one EST or AUX step of a
// binary instance), 5 steps, so 1900 deliveries per iteration.
void BM_NetworkDelivery(benchmark::State& state) {
  const auto node_count = static_cast<std::size_t>(state.range(0));
  const bool all_to_all = state.range(1) != 0;
  const std::size_t sends =
      all_to_all ? 5 * node_count * (node_count - 1) : 2000;
  std::vector<std::vector<NodeId>> others(node_count);
  for (std::size_t from = 0; from < node_count; ++from) {
    for (std::size_t to = 0; to < node_count; ++to) {
      if (to != from) others[from].push_back(static_cast<NodeId>(to));
    }
  }
  for (auto _ : state) {
    Simulation sim;
    NetworkConfig config;
    config.latency = LatencyModel::aws_global();
    Network net{sim, config};
    std::vector<std::unique_ptr<Sink>> nodes;
    const auto regions = config.latency.assign_round_robin(node_count);
    for (std::size_t i = 0; i < node_count; ++i) {
      nodes.push_back(std::make_unique<Sink>(sim, static_cast<NodeId>(i),
                                             regions[i]));
      net.attach(nodes.back().get());
    }
    auto blob = std::make_shared<Blob>(all_to_all ? 90 : 300);
    if (all_to_all) {
      for (int step = 0; step < 5; ++step) {
        for (std::size_t from = 0; from < node_count; ++from) {
          nodes[from]->multicast(others[from], blob);
        }
      }
    } else {
      for (std::size_t i = 0; i < sends; ++i) {
        nodes[i % node_count]->send(
            static_cast<NodeId>((i * 7) % node_count), blob);
      }
    }
    sim.run_until_idle();
    benchmark::DoNotOptimize(net.total_messages());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sends));
}
BENCHMARK(BM_NetworkDelivery)
    ->ArgNames({"nodes", "all_to_all"})
    ->Args({50, 0})
    ->Args({20, 1});

void BM_GossipOverlayBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    GossipOverlay overlay{n, 8, seed++};
    benchmark::DoNotOptimize(overlay.peers(0).size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GossipOverlayBuild)->Arg(20)->Arg(200);

}  // namespace
