// Differential oracle: the event loop as it stood before lanes
// (sim/event_loop.hpp), one std::priority_queue holding every pending event,
// each a std::function, kept verbatim apart from the class name and the
// inline definitions. Beside it, the network's queueing arithmetic as it was
// scheduled on that loop: SimNode::post_work's FIFO CPU, NIC egress and
// ingress serialization, the FaultInjector verdict, the crash-in-flight drop
// and the recycled in-flight slot pool, each event a plain timer. Only tests
// include this file.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "sim/fault.hpp"
#include "sim/latency.hpp"
#include "sim/network.hpp"

namespace srbb::sim::oracle {

/// The closure type the engine used before sim::Task: the differential
/// compares the lanes and their inline Tasks against this one.
using EventFn = std::function<void()>;

class HeapSimulation {
 public:
  SimTime now() const { return now_; }

  void schedule_at(SimTime time, EventFn fn) {
    if (time < now_) time = now_;  // no scheduling into the past
    queue_.push(Event{time, next_seq_++, std::move(fn)});
  }
  void schedule_after(SimDuration delay, EventFn fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  /// Process events up to and including `end`; the clock lands on `end`.
  void run_until(SimTime end) {
    while (!queue_.empty() && queue_.top().time <= end) {
      // Copy out before pop so the handler may schedule freely.
      Event event = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      now_ = event.time;
      ++processed_;
      event.fn();
    }
    if (now_ < end) now_ = end;
  }
  /// Process until the queue drains.
  void run_until_idle() {
    while (!queue_.empty()) {
      Event event = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      now_ = event.time;
      ++processed_;
      event.fn();
    }
  }

  std::uint64_t events_processed() const { return processed_; }
  std::size_t pending_events() const { return queue_.size(); }

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;  // tie-break: FIFO among same-time events
    EventFn fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

/// Nodes' CPUs and NICs over HeapSimulation: Network::send/deliver_copy/
/// deliver and SimNode::post_work without the stats, link matrix and trace,
/// which do not touch the schedule.
class HeapNetwork {
 public:
  using Receive =
      std::function<void(NodeId from, NodeId to, const MessagePtr& message)>;

  HeapNetwork(HeapSimulation& simulation, NetworkConfig config,
              std::vector<RegionId> regions, FaultInjector* faults,
              Receive receive)
      : sim_(simulation),
        config_(std::move(config)),
        rng_(config_.seed),
        regions_(std::move(regions)),
        faults_(faults),
        receive_(std::move(receive)),
        nics_(regions_.size()),
        cpu_free_at_(regions_.size(), 0) {}

  void post_work(NodeId node, SimDuration cpu_cost, EventFn fn) {
    const SimTime start = std::max(sim_.now(), cpu_free_at_[node]);
    const SimTime done = start + cpu_cost;
    cpu_free_at_[node] = done;
    sim_.schedule_at(done, std::move(fn));
  }

  void send(NodeId from, NodeId to, MessagePtr message) {
    const std::size_t bytes = message->size_bytes();
    FaultInjector::Verdict verdict;
    if (faults_ != nullptr) {
      verdict = faults_->judge(from, to, sim_.now());
      if (!verdict.deliver) {
        Nic& sender_nic = nics_[from];
        sender_nic.egress_free_at =
            std::max(sim_.now(), sender_nic.egress_free_at) +
            transmission_delay(bytes);
        return;
      }
    }
    for (std::uint32_t copy = 0; copy < verdict.copies; ++copy) {
      deliver_copy(from, to, message, bytes, verdict.extra_delay);
    }
  }

  std::size_t in_flight_slots() const { return in_flight_.size(); }

 private:
  struct Nic {
    SimTime egress_free_at = 0;
    SimTime ingress_free_at = 0;
  };
  struct InFlight {
    NodeId from = 0;
    NodeId to = 0;
    std::size_t bytes = 0;
    MessagePtr message;
  };

  SimDuration transmission_delay(std::size_t bytes) const {
    return static_cast<SimDuration>(static_cast<double>(bytes) * 8.0 /
                                    config_.bandwidth_bps * kSecond);
  }

  void deliver_copy(NodeId from, NodeId to, const MessagePtr& message,
                    std::size_t bytes, SimDuration extra_delay) {
    const SimDuration tx_delay = transmission_delay(bytes);
    Nic& sender_nic = nics_[from];
    const SimTime egress_done =
        std::max(sim_.now(), sender_nic.egress_free_at) + tx_delay;
    sender_nic.egress_free_at = egress_done;

    const SimDuration propagation =
        config_.latency.sample(regions_[from], regions_[to], rng_) +
        extra_delay;

    Nic& receiver_nic = nics_[to];
    const SimTime arrival = egress_done + propagation;
    const SimTime ingress_done =
        std::max(arrival, receiver_nic.ingress_free_at) + tx_delay;
    receiver_nic.ingress_free_at = ingress_done;

    std::uint32_t slot = 0;
    if (free_slots_.empty()) {
      slot = static_cast<std::uint32_t>(in_flight_.size());
      in_flight_.emplace_back();
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
    in_flight_[slot] = InFlight{from, to, bytes, message};
    sim_.schedule_at(ingress_done, [this, slot] { deliver(slot); });
  }

  void deliver(std::uint32_t slot) {
    InFlight& entry = in_flight_[slot];
    const NodeId from = entry.from;
    const NodeId to = entry.to;
    const MessagePtr message = std::move(entry.message);
    free_slots_.push_back(slot);

    if (faults_ != nullptr && faults_->node_down(to, sim_.now())) return;
    receive_(from, to, message);
  }

  HeapSimulation& sim_;
  NetworkConfig config_;
  Rng rng_;
  std::vector<RegionId> regions_;
  FaultInjector* faults_;
  Receive receive_;
  std::vector<Nic> nics_;
  std::vector<SimTime> cpu_free_at_;
  std::vector<InFlight> in_flight_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace srbb::sim::oracle
