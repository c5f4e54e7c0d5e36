// The simulated machine and wire: nodes with a FIFO CPU (one core of work at
// a time, matching the per-validator service queue the paper's congestion
// argument is about) and NICs with finite bandwidth, connected by the latency
// model. All three contended resources — CPU cycles spent on eager
// validation, bandwidth spent on per-transaction gossip, and pool slots —
// live above this layer; this layer provides the queueing.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "obs/trace.hpp"
#include "sim/event_loop.hpp"
#include "sim/latency.hpp"

namespace srbb::sim {

using NodeId = std::uint32_t;

/// Every shipped wire message type, one tag each. Receivers dispatch on the
/// tag (a byte compare) instead of a dynamic_cast chain per message.
enum class MsgKind : std::uint8_t {
  kOther,  // untagged: test- and bench-local payloads
  kPropose,
  kEcho,
  kPull,
  kBin,
  kDecided,
  kClientTx,
  kGossipTx,
  kCommitAck,
  kSyncRequest,
  kSyncResponse,
  kGossipBlock,
};

/// Wire payloads: immutable, shared, size-accounted.
struct Message {
  Message() = default;
  explicit Message(MsgKind message_kind) : kind(message_kind) {}
  virtual ~Message() = default;
  virtual std::size_t size_bytes() const = 0;
  virtual const char* type() const = 0;

  const MsgKind kind = MsgKind::kOther;
};
using MessagePtr = std::shared_ptr<const Message>;

/// Base of a shipped message type: declares its tag once, as T::kKind.
template <MsgKind K>
struct TaggedMessage : Message {
  static constexpr MsgKind kKind = K;
  TaggedMessage() : Message(K) {}
};

/// The message as `T` when its tag is T's, else null. `T` must be a final
/// TaggedMessage type, so the tag compare is exact.
template <typename T>
const T* msg_cast(const MessagePtr& message) {
  static_assert(std::is_final_v<T> && T::kKind != MsgKind::kOther);
  return message != nullptr && message->kind == T::kKind
             ? static_cast<const T*>(message.get())
             : nullptr;
}

struct NodeStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  SimDuration cpu_busy = 0;
  // Fault attribution (sender side), filled when a FaultInjector is armed:
  // in-flight losses, extra copies delivered, and sends blocked because a
  // partition (or a crashed endpoint) cut the link. Lets DIABLO reports and
  // benches attribute loss instead of lumping it into "not committed".
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_duplicated = 0;
  std::uint64_t partition_blocked = 0;
};

class Network;
class FaultInjector;

/// Actor base class. Protocol nodes (validators, clients, load balancers)
/// derive from this and receive messages via handle_message.
class SimNode {
 public:
  SimNode(Simulation& simulation, NodeId id, RegionId region)
      : sim_(simulation), id_(id), region_(region) {}
  virtual ~SimNode() = default;

  NodeId id() const { return id_; }
  RegionId region() const { return region_; }
  Simulation& sim() { return sim_; }
  const Simulation& sim() const { return sim_; }
  SimTime now() const { return sim_.now(); }
  const NodeStats& stats() const { return stats_; }

  virtual void handle_message(NodeId from, const MessagePtr& message) = 0;

  /// Serialize `cpu_cost` of work on this node's single core, then run `fn`.
  /// Work queues FIFO behind whatever the node is already doing — this is
  /// where validation cost turns into queueing delay under load. Finish
  /// times never decrease, so the work rides this node's CPU lane, which
  /// builds the Task from `fn` in place.
  template <typename Fn>
  void post_work(SimDuration cpu_cost, Fn&& fn) {
    cpu_.push(reserve_cpu(cpu_cost), std::forward<Fn>(fn));
  }

  /// Charge `cpu_cost` on this node's core as post_work would, but queue
  /// nothing: for work whose outcome is known when it is charged. Returns
  /// the key its event would have fired at; Simulation::passed says when
  /// that is.
  Simulation::Key charge_work(SimDuration cpu_cost) {
    return sim_.claim_key(reserve_cpu(cpu_cost));
  }

  /// Convenience: send via the attached network.
  void send(NodeId to, const MessagePtr& message);
  /// Convenience: one message to each of `to`, in order, via the attached
  /// network (Network::multicast).
  void multicast(std::span<const NodeId> to, const MessagePtr& message);

 private:
  friend class Network;
  /// Charge `cpu_cost` behind the work already queued; its finish time.
  SimTime reserve_cpu(SimDuration cpu_cost);

  Simulation& sim_;
  NodeId id_;
  RegionId region_;
  Network* network_ = nullptr;
  SimTime cpu_free_at_ = 0;
  // The NIC, which the Network drives: one message serialized out and one
  // serialized in at a time.
  SimTime egress_free_at_ = 0;
  SimTime ingress_free_at_ = 0;
  // Every lane of this node: the CPU's work, and the deliveries its NIC has
  // serialized in (their finish times never decrease: each is
  // max(arrival, ingress_free_at_) + wire time, and ingress_free_at_ is the
  // previous one's). Queued events point at these lanes, so a node must
  // outlive the run it takes part in.
  WorkLane cpu_{sim_};
  WorkLane ingress_{sim_};
  NodeStats stats_;
};

struct NetworkConfig {
  LatencyModel latency = LatencyModel::uniform(1, millis(1));
  /// Per-node egress and ingress line rate. c5.2xlarge sustains ~2.5 Gbit/s;
  /// the default is deliberately in that range.
  double bandwidth_bps = 2.5e9;
  std::uint64_t seed = 42;
};

class Network {
 public:
  Network(Simulation& simulation, NetworkConfig config)
      : sim_(simulation), config_(std::move(config)), rng_(config_.seed) {}

  /// Register a node (not owned). Its id must equal its registration order;
  /// out-of-order ids and double-attach are SRBB_CHECK violations.
  void attach(SimNode* node);

  /// One copy of `message` to `to`: multicast to a single recipient.
  void send(NodeId from, NodeId to, const MessagePtr& message) {
    multicast(from, std::span<const NodeId>(&to, 1), message);
  }
  /// `message` to each of `to`, in order. Reads the size and computes the
  /// wire time once, then runs the per-copy routine (send_one) for each
  /// recipient, so the stats, fault verdicts, RNG draws and NIC times are
  /// exactly those of one send per recipient in the same order.
  void multicast(NodeId from, std::span<const NodeId> to,
                 const MessagePtr& message);

  /// Route every subsequent send through `injector` (not owned; nullptr
  /// disables injection). The injector decides drops, duplicates, reorder
  /// delays, and partition/crash blocking; the Network stays the sole owner
  /// of the queueing model.
  void set_fault_injector(FaultInjector* injector) { faults_ = injector; }

  std::size_t node_count() const { return nodes_.size(); }
  SimNode* node(NodeId id) { return nodes_[id]; }
  Simulation& sim() { return sim_; }
  const LatencyModel& latency() const { return config_.latency; }

  std::uint64_t total_messages() const { return total_messages_; }
  /// The peak number of messages in flight at once: deliveries queued on
  /// the receivers' ingress lanes, summed over receivers.
  std::size_t peak_in_flight() const { return peak_in_flight_; }
  std::uint64_t total_bytes() const { return total_bytes_; }

  /// Emit `net.*` trace events (fault drops, duplicates, partition/crash
  /// blocking) into `trace`. Null disables (the default).
  void set_trace(obs::TraceSink* trace) { trace_ = trace; }

 private:
  SimDuration transmission_delay(std::size_t bytes) const {
    return static_cast<SimDuration>(static_cast<double>(bytes) * 8.0 /
                                    config_.bandwidth_bps * kSecond);
  }

  /// The per-copy routine: sender stats, the fault verdict when an injector
  /// is armed, then each copy onto the wire.
  void send_one(NodeId from, NodeId to, const MessagePtr& message,
                std::size_t bytes, SimDuration tx_delay);
  /// Egress, propagation and ingress of one copy, then its lane push.
  void deliver_copy(NodeId from, NodeId to, const MessagePtr& message,
                    std::size_t bytes, SimDuration tx_delay,
                    SimDuration extra_delay);
  /// One copy off `receiver`'s ingress lane and into its handler.
  void deliver(SimNode* receiver, NodeId from, std::size_t bytes,
               const MessagePtr& message);

  Simulation& sim_;
  NetworkConfig config_;
  Rng rng_;
  FaultInjector* faults_ = nullptr;
  obs::TraceSink* trace_ = nullptr;
  std::vector<SimNode*> nodes_;
  std::size_t in_flight_ = 0;
  std::size_t peak_in_flight_ = 0;
  std::uint64_t total_messages_ = 0;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace srbb::sim
