// Differential oracle: the binary DBFT machine as it stood before its round
// state moved to per-rank flags and running counts (consensus/binary.hpp).
// Kept verbatim apart from the class name and the inline definitions: the
// per-round sender sets and the AUX map walk are the reference semantics,
// including for sender ranks at or above n. Only tests include this file.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>

#include "consensus/binary.hpp"
#include "consensus/quorum.hpp"

namespace srbb::consensus::oracle {

class SetBinaryConsensus {
 public:
  using Callbacks = BinaryConsensus::Callbacks;

  /// (n, f) may be a static committee or the *effective* values of a
  /// MembershipView; the machine itself is membership-agnostic — the caller
  /// (SuperblockInstance) filters non-member senders before feeding it.
  SetBinaryConsensus(std::uint32_t n, std::uint32_t f, Callbacks callbacks)
      : quorums_{n, f}, cb_(std::move(callbacks)) {}

  /// Begin with this node's proposal. Idempotent.
  void start(bool input);

  bool started() const { return started_; }
  bool decided() const { return decided_; }
  bool decision() const { return decision_; }
  std::uint32_t round() const { return round_; }
  /// DECIDED announcements received for `value` (harness diagnostics).
  std::size_t decided_votes(bool value) const {
    return decided_from_[value ? 1 : 0].size();
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
  struct RoundState {
    std::set<std::uint32_t> est_from[2];
    bool est_sent[2] = {false, false};
    bool bin_values[2] = {false, false};
    std::map<std::uint32_t, bool> aux_from;
    bool aux_sent = false;
    bool aux_value = false;  // what we sent, for rebroadcast()
  };

  RoundState& round_state(std::uint32_t r) { return rounds_[r]; }
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
  std::set<std::uint32_t> decided_from_[2];
  bool advancing_ = false;
  bool dirty_ = false;
};


inline void SetBinaryConsensus::start(bool input) {
  if (started_) return;
  started_ = true;
  est_ = input;
  broadcast_est(0, est_);
  try_advance();
}

inline void SetBinaryConsensus::broadcast_est(std::uint32_t r, bool value) {
  RoundState& state = round_state(r);
  if (state.est_sent[value ? 1 : 0]) return;
  state.est_sent[value ? 1 : 0] = true;
  cb_.send_est(r, value);
}

inline void SetBinaryConsensus::on_est(std::uint32_t from, std::uint32_t r, bool value) {
  if (decided_) {
    cb_.send_decided_to(from, decision_);
    return;
  }
  RoundState& state = round_state(r);
  state.est_from[value ? 1 : 0].insert(from);
  // BV-broadcast echo rule: t+1 copies of a value we have not yet sent.
  if (state.est_from[value ? 1 : 0].size() >= quorums_.amplify()) {
    broadcast_est(r, value);
  }
  // Binding rule: 2t+1 copies -> the value enters bin_values.
  if (state.est_from[value ? 1 : 0].size() >= quorums_.binding()) {
    state.bin_values[value ? 1 : 0] = true;
  }
  try_advance();
}

inline void SetBinaryConsensus::on_aux(std::uint32_t from, std::uint32_t r, bool value) {
  if (decided_) {
    cb_.send_decided_to(from, decision_);
    return;
  }
  RoundState& state = round_state(r);
  state.aux_from.emplace(from, value);  // first AUX per peer counts
  try_advance();
}

inline void SetBinaryConsensus::on_decided(std::uint32_t from, bool value) {
  if (decided_) return;
  decided_from_[value ? 1 : 0].insert(from);
  // t+1 matching decisions include one from a correct node, whose decision
  // is safe to adopt.
  if (decided_from_[value ? 1 : 0].size() >= quorums_.adoption()) {
    decide(value);
  }
}

inline void SetBinaryConsensus::try_advance() {
  if (!started_ || decided_) return;
  if (advancing_) {
    dirty_ = true;
    return;
  }
  advancing_ = true;
  do {
    dirty_ = false;
    advance_loop();
  } while (dirty_ && !decided_);
  advancing_ = false;
}

inline void SetBinaryConsensus::advance_loop() {
  // A single message can unlock several steps (echo -> bin_values -> aux ->
  // round completion), so loop to a fixed point.
  for (;;) {
    if (decided_) return;
    RoundState& state = round_state(round_);

    if (!state.est_sent[est_ ? 1 : 0]) broadcast_est(round_, est_);

    if (!state.aux_sent) {
      if (state.bin_values[0] || state.bin_values[1]) {
        state.aux_sent = true;
        // Send an AUX carrying a value from bin_values (prefer our estimate
        // when it is bound).
        state.aux_value =
            state.bin_values[est_ ? 1 : 0] ? est_ : state.bin_values[1];
        cb_.send_aux(round_, state.aux_value);
      } else {
        return;  // wait for bin_values
      }
    }

    // Completion check: n-t AUX values all inside bin_values.
    std::size_t in_bin = 0;
    bool saw[2] = {false, false};
    for (const auto& [peer, value] : state.aux_from) {
      if (state.bin_values[value ? 1 : 0]) {
        ++in_bin;
        saw[value ? 1 : 0] = true;
      }
    }
    if (in_bin < quorums_.supermajority()) return;  // wait for more AUX

    const bool coin = (round_ % 2) == 1;  // deterministic round parity
    if (saw[0] != saw[1]) {
      const bool v = saw[1];
      if (v == coin) {
        decide(v);
        return;
      }
      est_ = v;
    } else {
      est_ = coin;
    }
    ++round_;
  }
}

inline void SetBinaryConsensus::rebroadcast() {
  if (!started_) return;
  if (decided_) {
    // Peers adopt on f+1 matching DECIDEDs; re-announcing is idempotent.
    cb_.send_decided(decision_);
    return;
  }
  // Re-send EVERY round's EST/AUX, not just the current round's. Peers can
  // be starved in different rounds (one node advanced to round r+1 while
  // another still waits for a lost round-r AUX); re-sending only the current
  // round would leave the laggard starved forever, deadlocking the instance
  // even though everyone rebroadcasts. Rounds stay few (the parity coin
  // converges quickly), and receivers deduplicate via per-round sender sets,
  // so re-sending the full history is cheap and always safe. Iterating the
  // std::map is deterministic (ordered by round).
  for (const auto& [r, state] : rounds_) {
    if (r > round_) break;  // buffered future-round state is not ours to send
    for (const bool value : {false, true}) {
      if (state.est_sent[value ? 1 : 0]) cb_.send_est(r, value);
    }
    if (state.aux_sent) cb_.send_aux(r, state.aux_value);
  }
}

inline void SetBinaryConsensus::decide(bool value) {
  if (decided_) return;
  decided_ = true;
  decision_ = value;
  cb_.send_decided(value);
  cb_.on_decide(value);
}

}  // namespace srbb::consensus::oracle
