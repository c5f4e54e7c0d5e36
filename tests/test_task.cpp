// sim::Task (sim/event_loop.hpp): the inline, move-only closure every timer
// and lane item is stored as. Its capture must be destroyed exactly once on
// every path, a capture that does not fit must not compile, and a 48-byte
// capture (a network delivery among them) must never reach the heap. A
// replacement operator new in this binary counts the heap blocks.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/event_loop.hpp"
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

namespace srbb::sim {
namespace {

static_assert(sizeof(Task) == 56);
static_assert(std::is_nothrow_move_constructible_v<Task>);
static_assert(!std::is_copy_constructible_v<Task>);

struct Oversized {
  char bytes[Task::kCapacity + 1];
  void operator()() const {}
};
struct OverAligned {
  alignas(16) char bytes[16];
  void operator()() const {}
};
struct ThrowingMove {
  ThrowingMove() = default;
  ThrowingMove(ThrowingMove&&) noexcept(false) {}
  void operator()() const {}
};
struct NotCallable {};
static_assert(!std::is_constructible_v<Task, Oversized>);
static_assert(!std::is_constructible_v<Task, OverAligned>);
static_assert(!std::is_constructible_v<Task, ThrowingMove>);
static_assert(!std::is_constructible_v<Task, NotCallable>);

class IdleNode final : public SimNode {
 public:
  using SimNode::SimNode;
  void handle_message(NodeId, const MessagePtr&) override {}
};

/// The validator's shape: guarded([this, from, tx] {...}), i.e. the node,
/// its crash epoch and a closure holding the sender and a shared_ptr.
auto validator_shaped(const std::shared_ptr<int>& token, int& fired) {
  const std::uint32_t from = 7;
  const std::uint64_t epoch = 3;
  auto inner = [&fired, from, token] { fired += static_cast<int>(from); };
  return [&fired, epoch, inner] {
    if (epoch == 3) inner();
    ++fired;
  };
}

TEST(Task, FortyEightByteCaptureFits) {
  auto token = std::make_shared<int>(0);
  int fired = 0;
  static_assert(sizeof(validator_shaped(token, fired)) == Task::kCapacity);
  Task task = validator_shaped(token, fired);
  EXPECT_EQ(token.use_count(), 2);
  task();
  EXPECT_EQ(fired, 8);
}

TEST(Task, DestroysCaptureOnceWhenTimerFires) {
  auto token = std::make_shared<int>(0);
  Simulation sim;
  int fired = 0;
  sim.schedule_at(5, [token, &fired] { ++fired; });
  EXPECT_EQ(token.use_count(), 2);
  sim.run_until_idle();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Task, DestroysCaptureOnceWhenLaneItemFires) {
  auto token = std::make_shared<int>(0);
  Simulation sim;
  WorkLane lane{sim};
  int fired = 0;
  lane.push(5, [token, &fired] { ++fired; });
  lane.push(6, [token, &fired] { ++fired; });
  EXPECT_EQ(token.use_count(), 3);
  sim.run_until(5);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(token.use_count(), 2);
  sim.run_until_idle();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Task, MoveAssignOverLiveTaskDestroysItsCapture) {
  auto old_token = std::make_shared<int>(0);
  auto new_token = std::make_shared<int>(0);
  Task task = [old_token] {};
  Task other = [new_token] {};
  task = std::move(other);
  EXPECT_EQ(old_token.use_count(), 1);
  EXPECT_EQ(new_token.use_count(), 2);
  EXPECT_FALSE(other);  // NOLINT(bugprone-use-after-move): moved-from is empty
  EXPECT_TRUE(task);
}

TEST(Task, SelfMoveAssignKeepsTheCapture) {
  auto token = std::make_shared<int>(0);
  int fired = 0;
  Task task = [token, &fired] { ++fired; };
  Task& alias = task;
  task = std::move(alias);
  EXPECT_EQ(token.use_count(), 2);
  ASSERT_TRUE(task);
  task();
  EXPECT_EQ(fired, 1);
}

TEST(Task, PendingEventsAreDestroyedWithTheSimulation) {
  auto token = std::make_shared<int>(0);
  {
    Simulation sim;
    IdleNode node{sim, 0, 0};
    for (SimTime t = 0; t < 8; ++t) sim.schedule_at(t, [token] {});
    for (int i = 0; i < 8; ++i) node.post_work(1, [token] {});
    // Fire some, so free timer slots and a half-drained lane are left too:
    // timers 0..3 and the work done at 1..3 fire, 4 + 5 stay queued.
    sim.run_until(3);
    sim.schedule_at(9, [token] {});
    EXPECT_EQ(token.use_count(), 1 + 10);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Task, PendingLaneItemsAreDestroyedWithTheLane) {
  auto token = std::make_shared<int>(0);
  Simulation sim;
  {
    WorkLane lane{sim};
    for (SimTime t = 0; t < 8; ++t) lane.push(t, [token] {});
    EXPECT_EQ(token.use_count(), 9);
  }
  EXPECT_EQ(token.use_count(), 1);
}

struct Ping final : Message {
  std::size_t size_bytes() const override { return 100; }
  const char* type() const override { return "ping"; }
};

// A delivery is a Task on the receiver's ingress lane, its capture inline:
// the only blocks a burst costs are the lane deque's, about one per seven
// queued deliveries. The bound is the one bench_micro_sim's allocs_per_event
// must meet (tools/perf_smoke.sh gate 9).
TEST(Task, DeliveryAllocatesNothingOfItsOwn) {
  constexpr std::size_t kDeliveries = 7000;
  Simulation sim;
  Network net{sim, NetworkConfig{}};
  IdleNode sender{sim, 0, 0};
  IdleNode receiver{sim, 1, 0};
  net.attach(&sender);
  net.attach(&receiver);
  const MessagePtr ping = std::make_shared<Ping>();
  // Warm up: the lanes reach their working size. Queuing 7,000 deliveries
  // at once still takes a block per 56 of them, about 0.018 per delivery.
  for (std::size_t i = 0; i < kDeliveries; ++i) net.send(0, 1, ping);
  sim.run_until_idle();

  const std::size_t before = g_news;
  for (std::size_t i = 0; i < kDeliveries; ++i) net.send(0, 1, ping);
  EXPECT_EQ(ping.use_count(), static_cast<long>(1 + kDeliveries));
  sim.run_until_idle();
  const std::size_t news = g_news - before;

  EXPECT_EQ(receiver.stats().messages_received, 2 * kDeliveries);
  EXPECT_EQ(ping.use_count(), 1);
  EXPECT_LT(static_cast<double>(news) / kDeliveries, 0.05) << news;
}

TEST(Task, ConstructMoveAndInvokeNeverAllocate) {
  auto token = std::make_shared<int>(0);
  int fired = 0;
  const std::size_t before = g_news;
  {
    Task task = validator_shaped(token, fired);
    Task moved{std::move(task)};
    Task assigned = [] {};
    assigned = std::move(moved);
    assigned();
  }
  EXPECT_EQ(g_news - before, 0u);
  EXPECT_EQ(fired, 8);
  EXPECT_EQ(token.use_count(), 1);

  // The counter sees what std::function does with the same capture. The
  // asm keeps the optimizer from eliding the new/delete pair.
  const std::size_t function_before = g_news;
  {
    std::function<void()> boxed = validator_shaped(token, fired);
    asm volatile("" : : "g"(&boxed) : "memory");
  }
  EXPECT_GE(g_news - function_before, 1u);
}

}  // namespace
}  // namespace srbb::sim
