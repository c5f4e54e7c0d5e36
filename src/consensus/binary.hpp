// Binary Byzantine consensus in the style of DBFT's underlying
// binary-value broadcast protocol (Crain, Gramoli, Larrea, Raynal):
//
//   round r:  BV-broadcast EST(est) — echo a value on t+1 copies, add it to
//             bin_values on 2t+1;
//             once bin_values is non-empty, broadcast AUX(w), w in bin_values;
//             on n-t AUX values all within bin_values: vals = their union;
//             if vals == {v}: decide v when v == (r mod 2), else est = v;
//             if vals == {0,1}: est = r mod 2; next round.
//
// Safety (agreement + validity) is unconditional. The deterministic
// round-parity replaces DBFT's weak-coordinator fast path — a documented
// simplification: termination is guaranteed under the simulator's fair
// scheduling rather than against an adaptive network adversary. A DECIDED
// announcement lets nodes finish on t+1 matching decisions, so early
// deciders cannot stall the rest.
//
// This class is a pure state machine: it emits messages through callbacks
// and never touches the network or the clock directly, which makes it unit
// testable in isolation and reusable across node types.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "consensus/quorum.hpp"

namespace srbb::consensus {

class BinaryConsensus {
 public:
  struct Callbacks {
    /// Broadcast EST/AUX for a round (delivered to every validator
    /// including, immediately, this one).
    std::function<void(std::uint32_t round, bool value)> send_est;
    std::function<void(std::uint32_t round, bool value)> send_aux;
    /// Broadcast the decision announcement.
    std::function<void(bool value)> send_decided;
    /// Point-to-point decision hint to a straggler.
    std::function<void(std::uint32_t peer, bool value)> send_decided_to;
    /// Fired exactly once on decision.
    std::function<void(bool value)> on_decide;
  };

  /// (n, f) may be a static committee or the *effective* values of a
  /// MembershipView; the machine itself is membership-agnostic — the caller
  /// (SuperblockInstance) filters non-member senders before feeding it.
  BinaryConsensus(std::uint32_t n, std::uint32_t f, Callbacks callbacks)
      : quorums_{n, f}, cb_(std::move(callbacks)) {}

  /// Begin with this node's proposal. Idempotent.
  void start(bool input);

  bool started() const { return started_; }
  bool decided() const { return decided_; }
  bool decision() const { return decision_; }
  std::uint32_t round() const { return round_; }
  /// DECIDED announcements received for `value` (harness diagnostics).
  std::size_t decided_votes(bool value) const {
    return decided_count_[value ? 1 : 0];
  }

  // Message inputs (from peer `from`, deduplicated internally).
  void on_est(std::uint32_t from, std::uint32_t round, bool value);
  void on_aux(std::uint32_t from, std::uint32_t round, bool value);
  void on_decided(std::uint32_t from, bool value);

  /// Re-emit this node's current protocol messages: the EST values and AUX
  /// already sent for the current round, or the DECIDED announcement once
  /// decided. Receivers deduplicate, so rebroadcasting is always safe; it is
  /// how rounds stalled by message loss or a healed partition make progress
  /// (driven by the superblock layer's rebroadcast timer).
  void rebroadcast();

 private:
  /// SenderFlags bits, indexed by value where the value matters. A round's
  /// flags record EST per value and the first AUX (whose value is counted
  /// in aux_count); decided_from_ records DECIDED per value.
  static constexpr std::uint8_t kEstFrom[2] = {1, 2};
  static constexpr std::uint8_t kAuxFrom = 4;
  static constexpr std::uint8_t kDecidedFrom[2] = {1, 2};

  struct RoundState {
    explicit RoundState(std::uint32_t n) : from(n) {}
    SenderFlags from;
    std::uint32_t est_count[2] = {0, 0};  // distinct EST senders per value
    std::uint32_t aux_count[2] = {0, 0};  // first AUX per sender, by value
    bool est_sent[2] = {false, false};
    bool bin_values[2] = {false, false};
    bool aux_sent = false;
    bool aux_value = false;  // what we sent, for rebroadcast()
  };

  /// The state of round r, created on first use. Rounds stay in an ordered
  /// map: peers choose round numbers, and rebroadcast() walks them in order.
  RoundState& round_state(std::uint32_t r) {
    return rounds_.try_emplace(r, quorums_.n).first->second;
  }
  void broadcast_est(std::uint32_t r, bool value);
  /// Reentrancy-safe: a callback that synchronously self-delivers a message
  /// (re-entering on_est/on_aux) only marks the machine dirty; the outer
  /// invocation re-runs the advance loop.
  void try_advance();
  void advance_loop();
  void decide(bool value);

  QuorumParams quorums_;
  Callbacks cb_;

  bool started_ = false;
  bool decided_ = false;
  bool decision_ = false;
  bool est_ = false;
  std::uint32_t round_ = 0;
  std::map<std::uint32_t, RoundState> rounds_;
  SenderFlags decided_from_{quorums_.n};
  std::uint32_t decided_count_[2] = {0, 0};
  bool advancing_ = false;
  bool dirty_ = false;
};

}  // namespace srbb::consensus
