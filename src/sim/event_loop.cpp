#include "sim/event_loop.hpp"

#include <algorithm>
#include <utility>

namespace srbb::sim {

SimTime Simulation::admit(SimTime time) {
  peak_pending_ = std::max(peak_pending_, ++pending_);
  return std::max(time, now_);  // no scheduling into the past
}

void Simulation::note_heap_size() {
  peak_heap_ = std::max(peak_heap_, timers_.size() + heads_.size());
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
  heads_.push_back(head);
  std::push_heap(heads_.begin(), heads_.end(), Later{});
  note_heap_size();
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
    std::pop_heap(heads_.begin(), heads_.end(), Later{});
    const Head head = heads_.back();
    heads_.pop_back();
    now_ = head.time;
    head.lane->fire_front();
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
