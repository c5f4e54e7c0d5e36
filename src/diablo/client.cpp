#include "diablo/client.hpp"

#include <algorithm>

namespace srbb::diablo {

void ClientNode::set_observability(obs::TraceSink* trace,
                                   obs::MetricsRegistry* metrics) {
  trace_ = trace;
  hist_e2e_ = metrics != nullptr ? &metrics->histogram("lat.e2e_commit")
                                 : nullptr;
}

void ClientNode::add_submission(SimTime at, txn::TxPtr tx, sim::NodeId target) {
  schedule_.push_back(Submission{at, std::move(tx), target});
}

void ClientNode::start() {
  // A lane takes its events in time order. The stable sort keeps same-time
  // submissions in registration order, and the lane stamps them from one
  // run of the global seq counter, so they fire exactly when, and in the
  // order, one timer per submission would.
  std::stable_sort(
      schedule_.begin(), schedule_.end(),
      [](const Submission& a, const Submission& b) { return a.at < b.at; });
  for (const Submission& submission : schedule_) {
    submissions_.push(
        submission.at, [this, tx = submission.tx, target = submission.target] {
          ++sent_;
          first_send_ = std::min(first_send_, now());
          sent_at_.try_emplace(tx->hash, now());
          dispatch(tx, target, 0);
        });
  }
  schedule_.clear();
}

void ClientNode::dispatch(const txn::TxPtr& tx, sim::NodeId target,
                          std::uint32_t attempt) {
  auto msg = std::make_shared<node::ClientTxMsg>();
  msg->tx = tx;
  SRBB_TRACE(trace_, now(), 0, static_cast<std::uint32_t>(id()), "client",
             "client.send", "tx", obs::trace_id(tx->hash), "attempt", attempt);
  send(target, msg);
  if (resend_timeout_ == 0 || attempt >= max_resends_) return;
  // §VI: without a transaction receipt within the period, resend to another
  // validator; randomness is replaced by round-robin for determinism.
  sim().schedule_after(resend_timeout_, [this, tx, target, attempt] {
    if (committed_.contains(tx->hash)) return;
    ++resends_;
    // validator_count == 1 means a single fixed endpoint (e.g. a load
    // balancer that does its own spreading): resend to the same place.
    const sim::NodeId next =
        validator_count_ <= 1 ? target : (target + 1) % validator_count_;
    dispatch(tx, next, attempt + 1);
  });
}

void ClientNode::handle_message(sim::NodeId, const sim::MessagePtr& message) {
  const auto* ack = sim::msg_cast<node::CommitAckMsg>(message);
  if (ack == nullptr) return;
  const SimTime* sent_at = sent_at_.find(ack->tx_hash);
  if (sent_at == nullptr) return;                              // not ours
  if (!committed_.try_emplace(ack->tx_hash).second) return;  // duplicate ack
  last_commit_ = std::max(last_commit_, now());
  const SimDuration e2e = now() - *sent_at;
  latencies_.push_back(to_seconds(e2e));
  if (hist_e2e_ != nullptr) hist_e2e_->observe(e2e);
  SRBB_TRACE(trace_, now(), 0, static_cast<std::uint32_t>(id()), "client",
             "client.ack", "tx", obs::trace_id(ack->tx_hash), "latency", e2e);
}

}  // namespace srbb::diablo
