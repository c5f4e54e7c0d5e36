#include "consensus/superblock.hpp"

#include <algorithm>

#include "common/invariant.hpp"

namespace srbb::consensus {

SuperblockInstance::SuperblockInstance(const SuperblockConfig& config,
                                       std::uint64_t index,
                                       SuperblockCallbacks callbacks)
    : config_(config), index_(index), cb_(std::move(callbacks)) {
  // An unset view means the static committee; quorums then reduce to the
  // classic (n, f) thresholds and counted() passes every rank.
  if (config_.membership.committee_n() == 0) {
    config_.membership = MembershipView(config_.n, config_.f);
  }
  SRBB_CHECK(config_.membership.committee_n() == config_.n);
  quorums_ = config_.membership.quorums();
  // Every slot keeps its binary instance regardless of membership status:
  // slots_ is indexed by committee rank, only the quorum sizes shrink.
  slots_.resize(config_.n);
}

BinaryConsensus& SuperblockInstance::bin_for(std::uint32_t proposer) {
  ProposalSlot& slot = slots_[proposer];
  if (!slot.bin) {
    BinaryConsensus::Callbacks bin_cb;
    bin_cb.send_est = [this, proposer](std::uint32_t round, bool value) {
      auto msg = std::make_shared<BinMsg>();
      msg->index = index_;
      msg->proposer = proposer;
      msg->round = round;
      msg->phase = BinPhase::kEst;
      msg->value = value;
      cb_.broadcast(msg);
      // Self-delivery: our own EST counts toward our quorums — unless we are
      // not a counting member, in which case peers ignore it and so must we.
      if (counted(config_.self)) {
        slots_[proposer].bin->on_est(config_.self, round, value);
      }
    };
    bin_cb.send_aux = [this, proposer](std::uint32_t round, bool value) {
      auto msg = std::make_shared<BinMsg>();
      msg->index = index_;
      msg->proposer = proposer;
      msg->round = round;
      msg->phase = BinPhase::kAux;
      msg->value = value;
      cb_.broadcast(msg);
      if (counted(config_.self)) {
        slots_[proposer].bin->on_aux(config_.self, round, value);
      }
    };
    bin_cb.send_decided = [this, proposer](bool value) {
      cb_.broadcast(decided_msg(proposer, value));
    };
    bin_cb.send_decided_to = [this, proposer](std::uint32_t peer, bool value) {
      if (peer == config_.self) return;
      cb_.send_to(peer, decided_msg(proposer, value));
    };
    bin_cb.on_decide = [this, proposer](bool value) {
      ProposalSlot& s = slots_[proposer];
      s.bin_decided = true;
      s.bin_value = value;
      SRBB_TRACE(config_.trace, trace_now(), 0, config_.self, "consensus",
                 "consensus.bin_decided", "proposer", proposer, "value",
                 value ? 1 : 0);
      if (value && !slot_ready(s)) request_pull(proposer);
      maybe_complete();
    };
    slot.bin = std::make_unique<BinaryConsensus>(
        quorums_.n, quorums_.f, std::move(bin_cb));
  }
  return *slot.bin;
}

const sim::MessagePtr& SuperblockInstance::decided_msg(std::uint32_t proposer,
                                                      bool value) {
  sim::MessagePtr& decided = slots_[proposer].decided;
  if (decided == nullptr) {
    auto msg = std::make_shared<DecidedMsg>();
    msg->index = index_;
    msg->proposer = proposer;
    msg->value = value;
    decided = std::move(msg);
  }
  SRBB_CHECK(sim::msg_cast<DecidedMsg>(decided)->value == value);
  return decided;
}

void SuperblockInstance::arm_timer(SimDuration delay,
                                   std::function<void()> fn) {
  cb_.set_timer(delay, [weak = std::weak_ptr<bool>(alive_),
                        fn = std::move(fn)] {
    if (weak.lock()) fn();
  });
}

void SuperblockInstance::begin(txn::BlockPtr own_proposal) {
  if (began_) return;
  began_ = true;
  SRBB_TRACE(config_.trace, trace_now(), 0, config_.self, "consensus",
             "consensus.begin", "index", index_, "own",
             own_proposal != nullptr ? 1 : 0);
  if (cb_.expect_proposal) {
    for (std::uint32_t i = 0; i < config_.n; ++i) {
      if (!slots_[i].bin_started && !cb_.expect_proposal(i)) {
        start_bin(i, false);
      }
    }
  }
  if (own_proposal != nullptr) {
    own_proposal_ = own_proposal;
    auto msg = std::make_shared<ProposeMsg>();
    msg->index = index_;
    msg->block = own_proposal;
    cb_.broadcast(msg);
    on_propose(config_.self, *msg);  // self-delivery
  }
  arm_timer(config_.proposal_timeout, [this] { on_proposal_timeout(); });
  if (config_.rebroadcast_interval != 0) {
    arm_timer(config_.rebroadcast_interval, [this] { on_rebroadcast_timer(); });
  }
}

void SuperblockInstance::handle(std::uint32_t from,
                                const sim::MessagePtr& message) {
  switch (message->kind) {
    case sim::MsgKind::kPropose:
      on_propose(from, *sim::msg_cast<ProposeMsg>(message));
      break;
    case sim::MsgKind::kEcho:
      on_echo(from, *sim::msg_cast<EchoMsg>(message));
      break;
    case sim::MsgKind::kPull:
      on_pull(from, *sim::msg_cast<PullMsg>(message));
      break;
    case sim::MsgKind::kBin:
      on_bin_msg(from, *sim::msg_cast<BinMsg>(message));
      break;
    case sim::MsgKind::kDecided:
      on_decided_msg(from, *sim::msg_cast<DecidedMsg>(message));
      break;
    default:
      break;  // not a consensus message
  }
}

void SuperblockInstance::on_propose(std::uint32_t from, const ProposeMsg& msg) {
  if (msg.block == nullptr) return;
  const std::uint64_t proposer64 = msg.block->header.proposer;
  if (proposer64 >= config_.n) return;
  const auto proposer = static_cast<std::uint32_t>(proposer64);
  // Only the proposer itself may push its proposal unsolicited; anyone may
  // answer a PULL, which also lands here.
  (void)from;
  ProposalSlot& slot = slots_[proposer];
  if (slot.block != nullptr) return;  // first valid body wins
  const Hash32 block_hash = msg.block->hash();
  if (slot.delivered_hash.has_value() && *slot.delivered_hash != block_hash) {
    return;  // body does not match the echo-quorum hash
  }
  // Discard blocks with invalid headers before consensus (Alg. 1 line 16).
  if (!txn::verify_block_certificate(*msg.block, *config_.scheme)) return;
  if (cb_.validate_header && !cb_.validate_header(*msg.block)) return;
  if (msg.block->header.index != index_) return;

  slot.block = msg.block;
  if (!slot.echoed) {
    slot.echoed = true;
    slot.echoed_hash = block_hash;
    auto echo = std::make_shared<EchoMsg>();
    echo->index = index_;
    echo->proposer = proposer;
    echo->block_hash = block_hash;
    cb_.broadcast(echo);
    record_echo(proposer, config_.self, block_hash);
  }
  // Body may have been the missing piece for delivery/completion.
  if (slot.delivered_hash.has_value() && *slot.delivered_hash == block_hash) {
    if (!slot.bin_started && !timeout_fired_) start_bin(proposer, true);
    maybe_complete();
  }
}

void SuperblockInstance::record_echo(std::uint32_t proposer, std::uint32_t from,
                                     const Hash32& hash) {
  SRBB_CHECK(proposer < config_.n && from < config_.n);
  // Only counting members contribute to echo quorums. This includes our own
  // echo when we are disabled: we still broadcast it (it is useful PULL
  // collateral) but must not count it, or our delivery quorum would run one
  // ahead of every member's.
  if (!counted(from)) return;
  ProposalSlot& slot = slots_[proposer];
  EchoSenders& senders = slot.echoes.try_emplace(hash, config_.n).first->second;
  if (senders.from.set(from, kEchoFrom)) ++senders.count;
  // Quorum sizes are bounded by the validator set; more echoers than ranks
  // means sender accounting is corrupt and every quorum below is suspect.
  SRBB_CHECK(senders.count <= config_.n);

  // Bracha amplification: f+1 echoes for a hash we have not echoed -> echo
  // it too (without needing the body), so every correct node reaches the
  // delivery quorum when any does.
  if (!slot.echoed && senders.count >= quorums_.amplify()) {
    slot.echoed = true;
    slot.echoed_hash = hash;
    auto echo = std::make_shared<EchoMsg>();
    echo->index = index_;
    echo->proposer = proposer;
    echo->block_hash = hash;
    cb_.broadcast(echo);
    record_echo(proposer, config_.self, hash);
    return;  // recursion handled the quorum check
  }

  if (!slot.delivered_hash.has_value() &&
      senders.count >= quorums_.supermajority()) {
    // Quorum intersection makes this hash unique for the slot.
    slot.delivered_hash = hash;
    const bool have_body = slot.block != nullptr && slot.block->hash() == hash;
    if (have_body) {
      if (!slot.bin_started && !timeout_fired_) start_bin(proposer, true);
    } else if (slot.block != nullptr) {
      slot.block = nullptr;  // stored body contradicts the quorum hash
    }
    if (slot.bin_decided && slot.bin_value && !slot_ready(slot)) {
      request_pull(proposer);
    }
    maybe_complete();
  }
}

void SuperblockInstance::on_echo(std::uint32_t from, const EchoMsg& msg) {
  if (msg.proposer >= config_.n) return;
  if (from >= config_.n) return;  // not a validator rank: ignore
  record_echo(msg.proposer, from, msg.block_hash);
}

void SuperblockInstance::on_pull(std::uint32_t from, const PullMsg& msg) {
  if (msg.proposer >= config_.n) return;
  const ProposalSlot& slot = slots_[msg.proposer];
  if (slot.block == nullptr) return;
  auto reply = std::make_shared<ProposeMsg>();
  reply->index = index_;
  reply->block = slot.block;
  cb_.send_to(from, reply);
  // The puller may be missing ECHOes as well as the body (slot readiness
  // requires the quorum); re-assert ours so a node that rejoined after the
  // echo phase can still assemble one. Echoes are idempotent per sender.
  if (slot.echoed && slot.echoed_hash.has_value()) {
    auto echo = std::make_shared<EchoMsg>();
    echo->index = index_;
    echo->proposer = msg.proposer;
    echo->block_hash = *slot.echoed_hash;
    cb_.send_to(from, echo);
  }
}

void SuperblockInstance::on_bin_msg(std::uint32_t from, const BinMsg& msg) {
  if (msg.proposer >= config_.n) return;
  if (!counted(from)) return;  // non-members feed no quorum
  BinaryConsensus& bin = bin_for(msg.proposer);
  // A peer's EST can arrive before our own instance started; the binary
  // machine buffers per-round state, and start() later folds it in.
  if (msg.phase == BinPhase::kEst) {
    bin.on_est(from, msg.round, msg.value);
  } else {
    bin.on_aux(from, msg.round, msg.value);
  }
}

void SuperblockInstance::on_decided_msg(std::uint32_t from,
                                        const DecidedMsg& msg) {
  if (msg.proposer >= config_.n) return;
  if (!counted(from)) return;  // adoption quorum counts members only
  bin_for(msg.proposer).on_decided(from, msg.value);
}

void SuperblockInstance::on_proposal_timeout() {
  if (timeout_fired_ || completed_) return;
  timeout_fired_ = true;
  for (std::uint32_t i = 0; i < config_.n; ++i) {
    if (!slots_[i].bin_started) {
      const bool delivered = slot_ready(slots_[i]);
      start_bin(i, delivered);
    }
  }
}

void SuperblockInstance::on_rebroadcast_timer() {
  if (completed_) return;  // done; let the timer chain die
  rebroadcast();
  arm_timer(config_.rebroadcast_interval, [this] { on_rebroadcast_timer(); });
}

void SuperblockInstance::rebroadcast() {
  // Everything re-sent here is idempotent at the receiver (first-body-wins,
  // echo sender sets, per-round EST/AUX sets, DECIDED f+1 sets), so the only
  // cost of a redundant rebroadcast is bandwidth. This is what lets a round
  // stranded by message loss — or split by a partition — finish after the
  // network heals: the lost PROPOSE/ECHO/EST/AUX/DECIDED messages are simply
  // sent again.
  if (own_proposal_ != nullptr &&
      !slots_[config_.self].delivered_hash.has_value()) {
    auto msg = std::make_shared<ProposeMsg>();
    msg->index = index_;
    msg->block = own_proposal_;
    cb_.broadcast(msg);
  }
  for (std::uint32_t i = 0; i < config_.n; ++i) {
    ProposalSlot& slot = slots_[i];
    if (slot.echoed && slot.echoed_hash.has_value()) {
      auto echo = std::make_shared<EchoMsg>();
      echo->index = index_;
      echo->proposer = i;
      echo->block_hash = *slot.echoed_hash;
      cb_.broadcast(echo);
    }
    if (slot.bin != nullptr && slot.bin->started()) slot.bin->rebroadcast();
  }
}

void SuperblockInstance::start_bin(std::uint32_t proposer, bool input) {
  ProposalSlot& slot = slots_[proposer];
  if (slot.bin_started) return;
  slot.bin_started = true;
  bin_for(proposer).start(input);
}

bool SuperblockInstance::slot_ready(const ProposalSlot& slot) const {
  return slot.delivered_hash.has_value() && slot.block != nullptr &&
         slot.block->hash() == *slot.delivered_hash;
}

bool SuperblockInstance::quorum_certified(const ProposalSlot& slot) const {
  if (!slot.delivered_hash.has_value()) return false;
  const auto it = slot.echoes.find(*slot.delivered_hash);
  return it != slot.echoes.end() &&
         it->second.count >= quorums_.supermajority();
}

void SuperblockInstance::request_pull(std::uint32_t proposer) {
  ProposalSlot& slot = slots_[proposer];
  if (slot.pulling || completed_) return;
  slot.pulling = true;
  SRBB_TRACE(config_.trace, trace_now(), 0, config_.self, "consensus",
             "consensus.pull", "proposer", proposer);
  // Ask every known echoer (at least one correct node holds the body when a
  // binary instance decided 1); retry until the body lands.
  auto attempt = std::make_shared<std::function<void()>>();
  slot.pull_attempt = attempt;  // lifetime bound to the slot, not itself
  const std::weak_ptr<std::function<void()>> weak_attempt = attempt;
  *attempt = [this, proposer, weak_attempt] {
    // Weak capture: a self-referencing shared_ptr would cycle and leak one
    // closure per pull (found by the LeakSanitizer leg of the matrix).
    const auto self_fn = weak_attempt.lock();
    if (!self_fn) return;  // instance/slot gone
    ProposalSlot& s = slots_[proposer];
    if (completed_ || slot_ready(s)) return;
    auto pull = std::make_shared<PullMsg>();
    pull->index = index_;
    pull->proposer = proposer;
    const std::uint32_t attempt_no = s.pull_attempt_count++;
    // Target the delivered hash's echoers when the quorum is known; they
    // claimed the body at echo time.
    std::vector<std::uint32_t> candidates;
    if (s.delivered_hash.has_value()) {
      const auto quorum = s.echoes.find(*s.delivered_hash);
      if (quorum != s.echoes.end()) {
        const SenderFlags& echoers = quorum->second.from;
        for (std::uint32_t peer = 0; peer < config_.n; ++peer) {
          if (peer != config_.self && echoers.test(peer, kEchoFrom)) {
            candidates.push_back(peer);
          }
        }
      }
    }
    if (candidates.empty() || attempt_no % 4 == 3) {
      // Either readiness still needs echoes too (a node that rejoined after
      // the echo phase may hold neither body nor quorum — replies carry the
      // replier's echo alongside the body), or several targeted rounds went
      // unanswered: ask everyone.
      cb_.broadcast(pull);
    } else {
      // Rotate through the quorum's echoers across retries. An echoer can
      // itself have lost the body since echoing (crash wipe, or a conflicting
      // re-proposal discarded against the quorum hash), so a static
      // first-f-plus-one choice can starve forever even though some correct
      // node still holds the block.
      const std::size_t ask =
          std::min<std::size_t>(candidates.size(), quorums_.adoption());
      for (std::size_t i = 0; i < ask; ++i) {
        cb_.send_to(candidates[(attempt_no + i) % candidates.size()], pull);
      }
    }
    arm_timer(config_.pull_retry, *self_fn);
  };
  (*attempt)();
}

std::uint32_t SuperblockInstance::decided_count() const {
  std::uint32_t count = 0;
  for (const ProposalSlot& slot : slots_) count += slot.bin_decided ? 1 : 0;
  return count;
}

std::uint32_t SuperblockInstance::ones_decided() const {
  std::uint32_t count = 0;
  for (const ProposalSlot& slot : slots_) {
    count += (slot.bin_decided && slot.bin_value) ? 1 : 0;
  }
  return count;
}

std::vector<txn::BlockPtr> SuperblockInstance::undecided_blocks() const {
  std::vector<txn::BlockPtr> out;
  for (const ProposalSlot& slot : slots_) {
    if (slot.bin_decided && !slot.bin_value && slot.block != nullptr) {
      out.push_back(slot.block);
    }
  }
  return out;
}

SuperblockInstance::SlotDebug SuperblockInstance::slot_debug(
    std::uint32_t proposer) const {
  SlotDebug out;
  if (proposer >= config_.n) return out;
  const ProposalSlot& slot = slots_[proposer];
  out.bin_decided = slot.bin_decided;
  out.bin_value = slot.bin_value;
  out.has_block = slot.block != nullptr;
  out.delivered = slot.delivered_hash.has_value();
  out.pulling = slot.pulling;
  for (const auto& [hash, senders] : slot.echoes) {
    out.echoers = std::max<std::size_t>(out.echoers, senders.count);
  }
  out.bin_started = slot.bin_started;
  if (slot.bin != nullptr) {
    out.bin_round = slot.bin->round();
    out.decided_votes[0] = slot.bin->decided_votes(false);
    out.decided_votes[1] = slot.bin->decided_votes(true);
  }
  return out;
}

void SuperblockInstance::maybe_complete() {
  if (completed_) return;
  std::vector<txn::BlockPtr> blocks;
  for (std::uint32_t i = 0; i < config_.n; ++i) {
    const ProposalSlot& slot = slots_[i];
    if (!slot.bin_decided) return;
    if (slot.bin_value) {
      if (!slot_ready(slot)) return;  // body still being pulled
      // Every included block's delivered hash must be backed by its n-f echo
      // quorum — the certificate the reliable-broadcast stage promised.
      SRBB_PARANOID(quorum_certified(slot));
      blocks.push_back(slot.block);
    }
  }
  completed_ = true;
  SRBB_TRACE(config_.trace, trace_now(), 0, config_.self, "consensus",
             "consensus.decide", "index", index_, "ones", blocks.size());
  cb_.on_superblock(std::move(blocks));
}

}  // namespace srbb::consensus
