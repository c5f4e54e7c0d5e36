#include "sim/network.hpp"

#include <algorithm>

#include "common/invariant.hpp"
#include "sim/fault.hpp"

namespace srbb::sim {

SimTime SimNode::reserve_cpu(SimDuration cpu_cost) {
  const SimTime start = std::max(now(), cpu_free_at_);
  cpu_free_at_ = start + cpu_cost;
  stats_.cpu_busy += cpu_cost;
  return cpu_free_at_;
}

void SimNode::send(NodeId to, const MessagePtr& message) {
  network_->send(id_, to, message);
}

void SimNode::multicast(std::span<const NodeId> to,
                        const MessagePtr& message) {
  network_->multicast(id_, to, message);
}

void Network::attach(SimNode* node) {
  SRBB_CHECK(node != nullptr);
  // Double-attach would alias two slots onto one node and corrupt every
  // per-node stat and NIC queue below; ids must equal registration order so
  // nodes_[id] indexing stays total.
  SRBB_CHECK(node->network_ == nullptr);
  SRBB_CHECK(node->id() == nodes_.size());
  node->network_ = this;
  nodes_.push_back(node);
}

void Network::multicast(NodeId from, std::span<const NodeId> to,
                        const MessagePtr& message) {
  SRBB_CHECK(from < nodes_.size());
  const std::size_t bytes = message->size_bytes();
  const SimDuration tx_delay = transmission_delay(bytes);
  for (const NodeId receiver : to) {
    send_one(from, receiver, message, bytes, tx_delay);
  }
}

void Network::send_one(NodeId from, NodeId to, const MessagePtr& message,
                       std::size_t bytes, SimDuration tx_delay) {
  SRBB_CHECK(to < nodes_.size());
  SimNode* sender = nodes_[from];

  sender->stats_.messages_sent += 1;
  sender->stats_.bytes_sent += bytes;
  total_messages_ += 1;
  total_bytes_ += bytes;

  FaultInjector::Verdict verdict;
  if (faults_ != nullptr) {
    const FaultStats before = faults_->stats();
    verdict = faults_->judge(from, to, sim_.now());
    // Mirror every injector decision into the trace, one event per stats
    // increment, so a trace's `net.*` counts reconcile exactly with
    // FaultStats (asserted by tests/test_chaos.cpp ChaosTrace).
    if (trace_ != nullptr && trace_->enabled()) {
      const FaultStats& after = faults_->stats();
      if (after.dropped != before.dropped) {
        trace_->emit(sim_.now(), 0, from, "net", "net.drop", "to", to);
      }
      if (after.partition_blocked != before.partition_blocked) {
        trace_->emit(sim_.now(), 0, from, "net", "net.partition_block", "to",
                     to);
      }
      if (after.crash_blocked != before.crash_blocked) {
        trace_->emit(sim_.now(), 0, from, "net", "net.crash_block", "to", to);
      }
      if (after.duplicated != before.duplicated) {
        trace_->emit(sim_.now(), 0, from, "net", "net.dup", "to", to);
      }
      if (after.reordered != before.reordered) {
        trace_->emit(sim_.now(), 0, from, "net", "net.reorder", "to", to,
                     "delay", verdict.extra_delay);
      }
    }
    if (!verdict.deliver) {
      // Attribute the loss on the sender: a cut link (partition or crashed
      // endpoint) vs an in-flight drop. The packet still left the NIC, so
      // egress serialization is charged either way.
      const FaultStats& after = faults_->stats();
      if (after.partition_blocked != before.partition_blocked ||
          after.crash_blocked != before.crash_blocked) {
        sender->stats_.partition_blocked += 1;
      } else {
        sender->stats_.messages_dropped += 1;
      }
      sender->egress_free_at_ =
          std::max(sim_.now(), sender->egress_free_at_) + tx_delay;
      return;
    }
    if (verdict.copies > 1) {
      sender->stats_.messages_duplicated += verdict.copies - 1;
    }
  }

  for (std::uint32_t copy = 0; copy < verdict.copies; ++copy) {
    deliver_copy(from, to, message, bytes, tx_delay, verdict.extra_delay);
  }
}

void Network::deliver_copy(NodeId from, NodeId to, const MessagePtr& message,
                           std::size_t bytes, SimDuration tx_delay,
                           SimDuration extra_delay) {
  SimNode* sender = nodes_[from];
  SimNode* receiver = nodes_[to];

  // Egress serialization: the sender's NIC pushes one message at a time
  // (a duplicated copy is a real retransmission, so it queues too).
  const SimTime egress_done =
      std::max(sim_.now(), sender->egress_free_at_) + tx_delay;
  sender->egress_free_at_ = egress_done;

  // Propagation across the wire, plus any injected reorder/spike delay.
  const SimDuration propagation =
      config_.latency.sample(sender->region(), receiver->region(), rng_) +
      extra_delay;

  // Ingress serialization at the receiver.
  const SimTime arrival = egress_done + propagation;
  const SimTime ingress_done =
      std::max(arrival, receiver->ingress_free_at_) + tx_delay;
  receiver->ingress_free_at_ = ingress_done;

  // The init-capture makes the copy a non-const shared_ptr, so moving the
  // closure into its Task moves the pointer instead of copying it.
  auto delivery = [this, receiver, from, bytes, msg = message] {
    deliver(receiver, from, bytes, msg);
  };
  static_assert(sizeof(delivery) <= Task::kCapacity,
                "a delivery must fit inline in its Task");
  receiver->ingress_.push(ingress_done, std::move(delivery));
  peak_in_flight_ = std::max(peak_in_flight_, ++in_flight_);
}

void Network::deliver(SimNode* receiver, NodeId from, std::size_t bytes,
                      const MessagePtr& message) {
  --in_flight_;
  // A node that crashed while the message was in flight loses it.
  if (faults_ != nullptr && faults_->node_down(receiver->id(), sim_.now())) {
    return;
  }
  receiver->stats_.messages_received += 1;
  receiver->stats_.bytes_received += bytes;
  receiver->handle_message(from, message);
}

}  // namespace srbb::sim
