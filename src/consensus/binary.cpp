#include "consensus/binary.hpp"

namespace srbb::consensus {

void BinaryConsensus::start(bool input) {
  if (started_) return;
  started_ = true;
  est_ = input;
  broadcast_est(0, est_);
  try_advance();
}

void BinaryConsensus::broadcast_est(std::uint32_t r, bool value) {
  RoundState& state = round_state(r);
  if (state.est_sent[value ? 1 : 0]) return;
  state.est_sent[value ? 1 : 0] = true;
  cb_.send_est(r, value);
}

void BinaryConsensus::on_est(std::uint32_t from, std::uint32_t r, bool value) {
  if (decided_) {
    cb_.send_decided_to(from, decision_);
    return;
  }
  RoundState& state = round_state(r);
  const int v = value ? 1 : 0;
  if (state.from.set(from, kEstFrom[v])) ++state.est_count[v];
  // BV-broadcast echo rule: t+1 copies of a value we have not yet sent.
  if (state.est_count[v] >= quorums_.amplify()) broadcast_est(r, value);
  // Binding rule: 2t+1 copies -> the value enters bin_values.
  if (state.est_count[v] >= quorums_.binding()) state.bin_values[v] = true;
  try_advance();
}

void BinaryConsensus::on_aux(std::uint32_t from, std::uint32_t r, bool value) {
  if (decided_) {
    cb_.send_decided_to(from, decision_);
    return;
  }
  RoundState& state = round_state(r);
  // First AUX per peer counts.
  if (state.from.set(from, kAuxFrom)) ++state.aux_count[value ? 1 : 0];
  try_advance();
}

void BinaryConsensus::on_decided(std::uint32_t from, bool value) {
  if (decided_) return;
  const int v = value ? 1 : 0;
  if (decided_from_.set(from, kDecidedFrom[v])) ++decided_count_[v];
  // t+1 matching decisions include one from a correct node, whose decision
  // is safe to adopt.
  if (decided_count_[v] >= quorums_.adoption()) decide(value);
}

void BinaryConsensus::try_advance() {
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

void BinaryConsensus::advance_loop() {
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
    std::uint32_t in_bin = 0;
    bool saw[2] = {false, false};
    for (const int v : {0, 1}) {
      if (!state.bin_values[v]) continue;
      in_bin += state.aux_count[v];
      saw[v] = state.aux_count[v] > 0;
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

void BinaryConsensus::rebroadcast() {
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
  // converges quickly), and receivers deduplicate via per-round sender flags,
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

void BinaryConsensus::decide(bool value) {
  if (decided_) return;
  decided_ = true;
  decision_ = value;
  cb_.send_decided(value);
  cb_.on_decide(value);
}

}  // namespace srbb::consensus
