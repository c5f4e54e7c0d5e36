#include "sim/event_loop.hpp"

#include <algorithm>
#include <utility>

namespace srbb::sim {

SimTime Simulation::admit(SimTime time) {
  peak_pending_ = std::max(peak_pending_, ++pending_);
  return std::max(time, now_);  // no scheduling into the past
}

void Simulation::note_heap_size() {
  peak_heap_ =
      std::max(peak_heap_, timers_.size() + heads_.size() - firing_lane_);
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
  timers_.push(Timer{time, next_seq_++, slot});
  note_heap_size();
}

void Simulation::push_head(Head head) {
  ++head_pushes_;
  heads_.push_back(head);
  std::push_heap(heads_.begin(), heads_.end(), Later{});
  note_heap_size();
}

void Simulation::sift_root(Key next) {
  Head moving = heads_.front();
  moving.time = next.time;
  moving.seq = next.seq;
  const std::size_t size = heads_.size();
  std::size_t hole = 0;
  // std::push_heap's layout: the children of i sit at 2i + 1 and 2i + 2, and
  // no child is earlier than its parent.
  for (std::size_t child = 1; child < size; child = 2 * hole + 1) {
    if (child + 1 < size && Later{}(heads_[child], heads_[child + 1])) {
      ++child;
    }
    if (!Later{}(moving, heads_[child])) break;
    heads_[hole] = heads_[child];
    hole = child;
  }
  heads_[hole] = moving;
}

void Simulation::fire_next() {
  ++processed_;
  --pending_;
  if (next_is_timer()) {
    const Timer timer = timers_.top();
    timers_.pop();
    now_ = timer.time;
    // Move out and free the slot first: the handler may schedule, which can
    // reuse the slot or grow timer_fns_.
    Task fn = std::move(timer_fns_[timer.slot]);
    free_slots_.push_back(timer.slot);
    fn();
  } else {
    // The entry stays at the root while its event runs (see heads_), so one
    // sift re-keys it for the lane's next event.
    Lane* lane = heads_.front().lane;
    now_ = heads_.front().time;
    firing_lane_ = 1;
    const std::optional<Key> next = lane->fire_front();
    firing_lane_ = 0;
    if (next.has_value()) {
      sift_root(*next);
      note_heap_size();
    } else {
      std::pop_heap(heads_.begin(), heads_.end(), Later{});
      heads_.pop_back();
    }
  }
}

void Simulation::run_until(SimTime end) {
  while (!idle() && next_time() <= end) fire_next();
  if (now_ < end) now_ = end;
}

void Simulation::run_until_idle() {
  while (!idle()) fire_next();
}

}  // namespace srbb::sim
