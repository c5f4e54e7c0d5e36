#include "sim/event_loop.hpp"

#include <algorithm>
#include <utility>

namespace srbb::sim {

SimTime Simulation::admit(SimTime time) {
  peak_pending_ = std::max(peak_pending_, ++pending_);
  return std::max(time, now_);  // no scheduling into the past
}

void Simulation::push(Entry entry) {
  heap_.push_back(entry);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  peak_heap_ = std::max(peak_heap_, heap_.size() - firing_lane_);
}

void Simulation::schedule_at(SimTime time, Task fn) {
  time = admit(time);
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(timer_fns_.size());
    timer_fns_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    timer_fns_[slot] = std::move(fn);
  }
  push(Entry{time, next_seq_++, nullptr, slot});
}

void Simulation::sift_root(Key next) {
  Entry moving = heap_.front();
  moving.time = next.time;
  moving.seq = next.seq;
  const std::size_t size = heap_.size();
  std::size_t hole = 0;
  // std::push_heap's layout: the children of i sit at 2i + 1 and 2i + 2, and
  // no child is earlier than its parent.
  for (std::size_t child = 1; child < size; child = 2 * hole + 1) {
    if (child + 1 < size && Later{}(heap_[child], heap_[child + 1])) {
      ++child;
    }
    if (!Later{}(moving, heap_[child])) break;
    heap_[hole] = heap_[child];
    hole = child;
  }
  heap_[hole] = moving;
}

void Simulation::fire_next() {
  ++processed_;
  --pending_;
  const Entry next = heap_.front();
  now_ = next.time;
  frontier_ = Key{next.time, next.seq};
  if (next.lane == nullptr) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    // Move out and free the slot first: the handler may schedule, which can
    // reuse the slot or grow timer_fns_.
    Task fn = std::move(timer_fns_[next.slot]);
    free_slots_.push_back(next.slot);
    fn();
    return;
  }
  // The entry stays at the root while its event runs (see heap_), so one
  // sift re-keys it for the lane's next event.
  firing_lane_ = 1;
  const std::optional<Key> successor = next.lane->fire_front();
  firing_lane_ = 0;
  if (successor.has_value()) {
    sift_root(*successor);
    peak_heap_ = std::max(peak_heap_, heap_.size());
  } else {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

void Simulation::run_until(SimTime end) {
  while (!heap_.empty() && heap_.front().time <= end) fire_next();
  if (now_ < end) now_ = end;
  // Every event up to `end` has fired, and any claimed key has a seq below
  // next_seq_.
  if (end >= frontier_.time) frontier_ = Key{end, next_seq_};
}

void Simulation::run_until_idle() {
  while (!heap_.empty()) fire_next();
  frontier_ = Key{now_, next_seq_};
}

}  // namespace srbb::sim
