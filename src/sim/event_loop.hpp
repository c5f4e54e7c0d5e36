// Deterministic discrete-event engine. Events fire in (time, insertion)
// order, so a run is a pure function of its seed — the property every
// experiment in EXPERIMENTS.md relies on for reproducibility.
//
// Most events come from sources that are already in time order: a node's
// CPU finishes work FIFO, a receiver's NIC finishes deliveries FIFO, a client
// submits on a sorted schedule. Each such source is a lane, a FIFO of events
// pushed in non-decreasing time. The heap holds the free-form timers plus
// one entry for the head of each non-empty lane, so it stays about as large
// as the number of nodes however many events are pending (docs/PERF.md §9).
// Every event, timer or lane item, draws its tie-break seq from one counter
// at schedule time, so the firing order is the same as one heap of all
// events. Each event's closure is a Task, stored inline: scheduling and
// firing allocate nothing per event (docs/PERF.md §10). A firing lane keeps
// its heap entry: its successor's key replaces the root and sifts down once,
// so a lane event costs one sift, not a pop and a push (docs/PERF.md §14).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <new>
#include <optional>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/invariant.hpp"
#include "common/time.hpp"

namespace srbb::sim {

/// A move-only void() callable whose capture lives inline, in a
/// kCapacity-byte buffer beside one ops-table pointer. There is no heap
/// fallback: a capture that is larger, over-aligned or throws on move does
/// not compile, so box what does not fit (a shared_ptr is 16 bytes).
class Task {
 public:
  static constexpr std::size_t kCapacity = 48;
  static constexpr std::size_t kAlign = 8;

  template <typename Fn>
    requires(!std::is_same_v<Fn, Task> && std::is_invocable_r_v<void, Fn&> &&
             sizeof(Fn) <= kCapacity && alignof(Fn) <= kAlign &&
             std::is_nothrow_move_constructible_v<Fn>)
  Task(Fn fn) noexcept : ops_(&kOps<Fn>) {  // implicit: a lambda converts
    ::new (static_cast<void*>(buf_)) Fn(std::move(fn));
  }
  Task(Task&& other) noexcept { take(other); }
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }
  void operator()() { ops_->invoke(buf_); }

 private:
  struct Ops {
    void (*invoke)(void* fn);
    /// Move the capture at `from` into `to`, then destroy it at `from`.
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* fn) noexcept;
  };
  /// The Fn that placement new built in a buffer.
  template <typename Fn>
  static Fn& held(void* buf) noexcept {
    return *std::launder(static_cast<Fn*>(buf));
  }
  template <typename Fn>
  static constexpr Ops kOps{
      [](void* fn) { held<Fn>(fn)(); },
      [](void* from, void* to) noexcept {
        ::new (to) Fn(std::move(held<Fn>(from)));
        held<Fn>(from).~Fn();
      },
      [](void* fn) noexcept { held<Fn>(fn).~Fn(); }};

  void take(Task& other) noexcept {
    ops_ = std::exchange(other.ops_, nullptr);
    if (ops_ != nullptr) ops_->relocate(other.buf_, buf_);
  }
  void reset() noexcept {
    if (ops_ != nullptr) std::exchange(ops_, nullptr)->destroy(buf_);
  }

  alignas(kAlign) unsigned char buf_[kCapacity];
  const Ops* ops_ = nullptr;
};

class Lane;

class Simulation {
 public:
  SimTime now() const { return now_; }

  void schedule_at(SimTime time, Task fn);
  void schedule_after(SimDuration delay, Task fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  /// Process events up to and including `end`; the clock lands on `end`.
  void run_until(SimTime end);
  /// Process until the queue drains.
  void run_until_idle();

  std::uint64_t events_processed() const { return processed_; }
  /// Events scheduled and not yet fired: timers plus every lane's queue.
  std::size_t pending_events() const { return pending_; }
  std::size_t peak_pending() const { return peak_pending_; }
  /// Peak heap size: timers plus one head per lane with a pending event.
  std::size_t peak_heap() const { return peak_heap_; }
  /// Lane heads pushed onto the heap: one each time a lane goes from empty
  /// to non-empty. A lane that stays busy re-keys its entry instead.
  std::uint64_t head_pushes() const { return head_pushes_; }

 private:
  friend class Lane;

  /// A timer's heap entry; its Task waits in timer_fns_[slot], so a sift
  /// moves 24 bytes and calls no closure code.
  struct Timer {
    SimTime time;
    std::uint64_t seq;  // tie-break: FIFO among same-time events
    std::uint32_t slot;
  };
  /// The (time, seq) an event fires at; unique per event.
  struct Key {
    SimTime time;
    std::uint64_t seq;
  };
  struct Head {
    SimTime time;
    std::uint64_t seq;
    Lane* lane;
  };
  struct Later {
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Clamp `time` to now and count one more pending event.
  SimTime admit(SimTime time);
  void push_head(Head head);
  /// Give the root head the key `next` and sift it down to its place.
  void sift_root(Key next);
  void note_heap_size();
  bool idle() const { return timers_.empty() && heads_.empty(); }
  bool next_is_timer() const {
    return heads_.empty() ||
           (!timers_.empty() && Later{}(heads_.front(), timers_.top()));
  }
  SimTime next_time() const {
    return next_is_timer() ? timers_.top().time : heads_.front().time;
  }
  void fire_next();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::size_t pending_ = 0;
  std::size_t peak_pending_ = 0;
  std::size_t peak_heap_ = 0;
  std::uint64_t head_pushes_ = 0;
  // One heap in two parts, merged on (time, seq) at every pop: the timers,
  // and the heads of the non-empty lanes (a binary heap by std::push_heap).
  // While a lane's event runs, its entry stays at heads_'s root: whatever the
  // event schedules is later in (time, seq), so nothing can displace it.
  std::priority_queue<Timer, std::vector<Timer>, Later> timers_;
  std::vector<Head> heads_;
  // 1 while a lane event runs: its root entry is not pending and does not
  // count toward peak_heap.
  std::size_t firing_lane_ = 0;
  std::vector<Task> timer_fns_;  // by Timer::slot; free ones are empty
  std::vector<std::uint32_t> free_slots_;
};

/// A FIFO event source, in non-decreasing time. While it is non-empty it
/// keeps exactly one heap entry, for its head, and that entry points at the
/// lane: a lane with queued events must outlive the run, as the node that
/// owns it does.
class Lane {
 public:
  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;

 protected:
  explicit Lane(Simulation& simulation) : sim_(simulation) {}
  ~Lane() = default;

  using Key = Simulation::Key;

  /// The (time, seq) of an event pushed at `time`, clamped to now.
  Key stamp(SimTime time) {
    time = sim_.admit(time);
    // The heap orders lanes by their heads alone, which is only sound while
    // every lane is sorted.
    SRBB_CHECK(time >= last_time_);
    last_time_ = time;
    return {time, sim_.next_seq_++};
  }
  /// Called when the lane goes from empty to non-empty.
  void queue_head(Key key) {
    sim_.push_head(Simulation::Head{key.time, key.seq, this});
  }

 private:
  friend class Simulation;
  /// Run and pop the head; the successor's key, or none when the lane
  /// emptied. The lane's heap entry stays put meanwhile: the Simulation
  /// re-keys or pops it after this returns.
  virtual std::optional<Key> fire_front() = 0;

  Simulation& sim_;
  SimTime last_time_ = 0;
};

/// A lane of `Payload`s, each consumed by `run` when its time comes.
/// Pushes must come in non-decreasing time (an SRBB_CHECK).
template <typename Payload>
class EventLane : public Lane {
 public:
  /// Queue the Payload built from `args`, in place.
  template <typename... Args>
  void push(SimTime time, Args&&... args) {
    const Key key = stamp(time);
    items_.emplace_back(key, std::forward<Args>(args)...);
    if (items_.size() == 1) queue_head(key);
  }

 protected:
  using Lane::Lane;
  ~EventLane() = default;
  virtual void run(Payload& payload) = 0;

 private:
  struct Item {
    template <typename... Args>
    Item(Key stamp_key, Args&&... args)
        : key(stamp_key), payload(std::forward<Args>(args)...) {}
    Key key;
    Payload payload;
  };

  /// Runs the front item where it lies: a push from inside `run` appends,
  /// which leaves it in place and, as the lane is non-empty, pushes no head.
  std::optional<Key> fire_front() final {
    run(items_.front().payload);
    items_.pop_front();
    if (items_.empty()) return std::nullopt;
    return items_.front().key;
  }

  std::deque<Item> items_;
};

/// A lane of closures: a node's CPU, whose work finishes in FIFO order.
class WorkLane final : public EventLane<Task> {
 public:
  explicit WorkLane(Simulation& simulation) : EventLane(simulation) {}

 private:
  void run(Task& fn) override { fn(); }
};

}  // namespace srbb::sim
