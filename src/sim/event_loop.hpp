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

class WorkLane;

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
  friend class WorkLane;

  /// The (time, seq) an event fires at; unique per event.
  struct Key {
    SimTime time;
    std::uint64_t seq;  // tie-break: FIFO among same-time events
  };
  /// One heap entry: the head of a non-empty lane, or a timer (lane null)
  /// whose Task waits in timer_fns_[slot], so a sift moves 32 bytes and
  /// calls no closure code.
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    WorkLane* lane;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Clamp `time` to now and count one more pending event.
  SimTime admit(SimTime time);
  void push(Entry entry);
  /// Give the root entry the key `next` and sift it down to its place.
  void sift_root(Key next);
  void fire_next();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::size_t pending_ = 0;
  std::size_t peak_pending_ = 0;
  std::size_t peak_heap_ = 0;
  std::uint64_t head_pushes_ = 0;
  // A binary heap on (time, seq), by std::push_heap. A timer's entry is
  // popped before its Task runs. A lane's entry stays at the root while its
  // event runs: whatever the event schedules is later in (time, seq), so
  // nothing can displace it, and one sift re-keys it afterwards.
  std::vector<Entry> heap_;
  // 1 while a lane event runs: its root entry is not pending and does not
  // count toward peak_heap.
  std::size_t firing_lane_ = 0;
  std::vector<Task> timer_fns_;  // by Entry::slot; free ones are empty
  std::vector<std::uint32_t> free_slots_;
};

/// A FIFO of closures in non-decreasing time: a node's CPU, whose work
/// finishes in FIFO order; its NIC, whose deliveries finish in FIFO order; a
/// client's submission schedule. While it is non-empty it keeps exactly one
/// heap entry, for its head, and that entry points at the lane: a lane with
/// queued events must outlive the run, as the node that owns it does.
class WorkLane {
 public:
  explicit WorkLane(Simulation& simulation) : sim_(simulation) {}
  WorkLane(const WorkLane&) = delete;
  WorkLane& operator=(const WorkLane&) = delete;

  /// Queue `fn` to run at `time` (clamped to now), its Task built in place.
  /// Pushes must come in non-decreasing time (an SRBB_CHECK): the heap
  /// orders lanes by their heads alone, which is only sound while every
  /// lane is sorted.
  template <typename Fn>
  void push(SimTime time, Fn&& fn) {
    time = sim_.admit(time);
    SRBB_CHECK(time >= last_time_);
    last_time_ = time;
    const Key key{time, sim_.next_seq_++};
    items_.emplace_back(key, std::forward<Fn>(fn));
    if (items_.size() == 1) {
      ++sim_.head_pushes_;
      sim_.push(Simulation::Entry{key.time, key.seq, this, 0});
    }
  }

 private:
  friend class Simulation;
  using Key = Simulation::Key;

  struct Item {
    template <typename Fn>
    Item(Key stamp, Fn&& work) : key(stamp), fn(std::forward<Fn>(work)) {}
    Key key;
    Task fn;
  };

  /// Run the front item where it lies, then pop it; the successor's key, or
  /// none when the lane emptied. A push from inside the Task appends, which
  /// leaves it in place and, as the lane is non-empty, pushes no head.
  std::optional<Key> fire_front() {
    items_.front().fn();
    items_.pop_front();
    if (items_.empty()) return std::nullopt;
    return items_.front().key;
  }

  Simulation& sim_;
  SimTime last_time_ = 0;
  std::deque<Item> items_;
};

}  // namespace srbb::sim
