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
// A lane keeps its items in fixed-size blocks and recycles a drained one, so
// a busy lane calls the allocator about once per block of events
// (docs/PERF.md §16).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
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

/// A FIFO kept in a chain of fixed-size blocks of about 4 KB. An element
/// never moves once built, so one can run in place while more are appended
/// behind it. A drained block becomes the one spare (a second is freed), and
/// an emptied FIFO keeps its last block, so a FIFO whose length hovers calls
/// the allocator about once per block's worth of elements and never holds
/// more than one block it is not using.
template <typename T>
class BlockFifo {
 public:
  static constexpr std::size_t kBlockBytes = 4096;
  static constexpr std::size_t kPerBlock = std::max<std::size_t>(
      1, (kBlockBytes - sizeof(void*)) / sizeof(T));

  BlockFifo() = default;
  BlockFifo(const BlockFifo&) = delete;
  BlockFifo& operator=(const BlockFifo&) = delete;
  ~BlockFifo() {
    clear();
    delete head_;  // the emptied FIFO's last block, if any
    delete spare_;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  T& front() { return head_->at(head_index_); }

  template <typename... Args>
  void emplace_back(Args&&... args) {
    if (tail_ == nullptr || tail_index_ == kPerBlock) grow();
    ::new (tail_->slot(tail_index_)) T(std::forward<Args>(args)...);
    ++tail_index_;
    ++size_;
  }

  void pop_front() {
    front().~T();
    if (--size_ == 0) {
      // The last element was the tail block's: start that block over.
      head_index_ = tail_index_ = 0;
    } else if (++head_index_ == kPerBlock) {
      Block* drained = std::exchange(head_, head_->next);
      head_index_ = 0;
      if (spare_ == nullptr) {
        spare_ = drained;
      } else {
        delete drained;
      }
    }
  }

  void clear() {
    while (!empty()) pop_front();
  }

 private:
  struct Block {
    Block* next = nullptr;
    alignas(T) unsigned char bytes[kPerBlock * sizeof(T)];
    void* slot(std::size_t i) { return bytes + i * sizeof(T); }
    T& at(std::size_t i) { return *std::launder(static_cast<T*>(slot(i))); }
  };

  /// Link a block (the spare, else a new one) after the tail.
  void grow() {
    Block* block = spare_ != nullptr ? std::exchange(spare_, nullptr)
                                     : new Block;
    block->next = nullptr;
    if (tail_ == nullptr) {
      head_ = block;
    } else {
      tail_->next = block;
    }
    tail_ = block;
    tail_index_ = 0;
  }

  Block* head_ = nullptr;  // holds the front, at head_index_
  Block* tail_ = nullptr;  // the next element goes at tail_index_
  Block* spare_ = nullptr;
  std::size_t head_index_ = 0;
  std::size_t tail_index_ = 0;
  std::size_t size_ = 0;
};

class WorkLane;

class Simulation {
 public:
  /// The (time, seq) an event fires at; unique per event.
  struct Key {
    SimTime time;
    std::uint64_t seq;  // tie-break: FIFO among same-time events
  };

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

  /// The key an event at `time` (clamped to now) would get if it were
  /// scheduled now, its seq drawn from the one counter, for an event whose
  /// outcome is known when it is scheduled: its owner queues nothing and
  /// settles it once passed() holds. It does not count as pending.
  Key claim_key(SimTime time) {
    return Key{std::max(time, now_), next_seq_++};
  }
  /// Whether an event keyed `key` would have fired by now. Inside an event,
  /// the events before it have; between runs, every event up to the end of
  /// the last run_until has, and after run_until_idle every event up to the
  /// last one that fired.
  bool passed(Key key) const {
    return key.time < frontier_.time ||
           (key.time == frontier_.time && key.seq < frontier_.seq);
  }

 private:
  friend class WorkLane;
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
  // passed() holds for every key before this one: the firing event's key,
  // or, after a run, the end of the run and the next seq.
  Key frontier_{0, 0};
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
  using Key = Simulation::Key;
  struct Item {
    template <typename Fn>
    Item(Key stamp, Fn&& work) : key(stamp), fn(std::forward<Fn>(work)) {}
    Key key;
    Task fn;
  };

 public:
  /// Items per storage block: 56 of today's 72-byte items.
  static constexpr std::size_t kItemsPerBlock = BlockFifo<Item>::kPerBlock;

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

  /// Run the front item where it lies, then pop it; the successor's key, or
  /// none when the lane emptied. A push from inside the Task appends, which
  /// leaves it in place (a full block links a new one; none moves) and, as
  /// the lane is non-empty, pushes no head.
  std::optional<Key> fire_front() {
    items_.front().fn();
    items_.pop_front();
    if (items_.empty()) return std::nullopt;
    return items_.front().key;
  }

  Simulation& sim_;
  SimTime last_time_ = 0;
  BlockFifo<Item> items_;
};

}  // namespace srbb::sim
