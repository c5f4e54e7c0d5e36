// Red Belly-style superblock consensus for one index k (§IV-C stage 2):
//
//  1. every validator reliably broadcasts its block proposal b_i
//     (PROPOSE + hash ECHO with Bracha-style amplification on f+1 echoes;
//     n-f echoes fix the unique hash for proposer i);
//  2. one binary DBFT instance per proposer decides whether b_i enters the
//     superblock (input 1 iff the proposal was delivered before the local
//     proposal timeout);
//  3. the decided superblock is the set of blocks whose instance decided 1,
//     ordered by proposer id. Nodes that decided 1 without holding the block
//     body PULL it from an echoer.
//
// Like BinaryConsensus this is a pure state machine driven by callbacks, so
// it can be unit tested without a network and reused by both the SRBB node
// and the EVM+DBFT baseline.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/time.hpp"
#include "consensus/binary.hpp"
#include "consensus/messages.hpp"
#include "consensus/quorum.hpp"
#include "obs/trace.hpp"

namespace srbb::consensus {

struct SuperblockConfig {
  std::uint32_t n = 4;     // validators (ranks 0..n-1)
  std::uint32_t f = 1;     // tolerated Byzantine validators, f < n/3
  std::uint32_t self = 0;  // this validator's rank
  /// How long to wait for proposals before inputting 0 for the missing ones.
  SimDuration proposal_timeout = millis(800);
  /// Retry interval for PULLing a decided-but-missing block body.
  SimDuration pull_retry = millis(200);
  /// While the instance is incomplete, re-broadcast this node's protocol
  /// state (echoes, undelivered own proposal, current binary round, DECIDED
  /// announcements) every interval, so rounds stalled by message loss or a
  /// partition finish once the network heals. 0 disables (unit-test mode —
  /// an incomplete instance would otherwise re-arm timers forever and
  /// run_until_idle() would not terminate).
  SimDuration rebroadcast_interval = 0;
  const crypto::SignatureScheme* scheme = &crypto::SignatureScheme::ed25519();
  /// Emit `consensus.*` trace events (begin / per-slot binary decisions /
  /// superblock decide / body pulls). Null disables (the default). Timestamps
  /// come from SuperblockCallbacks::now; without it events are stamped 0.
  obs::TraceSink* trace = nullptr;
  /// Adaptive-membership view governing this index (DESIGN.md §13): every
  /// quorum below runs over the effective (n', f') of this view, and
  /// messages from non-counting ranks (disabled/removed validators) are
  /// ignored for quorum purposes. Every slot — including disabled proposers'
  /// — still gets its binary instance; a disabled proposer's decided-1 slot
  /// is its re-admission evidence. Default-constructed (unset) means the
  /// static all-active committee: bit-identical to the pre-membership
  /// behaviour.
  MembershipView membership{};
};

struct SuperblockCallbacks {
  /// Broadcast to every *other* validator (self-delivery is internal).
  std::function<void(const sim::MessagePtr&)> broadcast;
  std::function<void(std::uint32_t peer, const sim::MessagePtr&)> send_to;
  /// Extra block-header validity beyond the certificate (e.g. RPM exclusion
  /// of slashed proposers). Blocks failing this are discarded before
  /// consensus (Alg. 1 line 16).
  std::function<bool(const txn::Block&)> validate_header;
  /// Optional: return false when no proposal should be awaited from this
  /// rank (e.g. RPM-excluded validators); its instance starts with input 0
  /// at begin() instead of burning the proposal timeout.
  std::function<bool(std::uint32_t proposer)> expect_proposal;
  /// Decided superblock, ordered by proposer rank. Fired exactly once.
  std::function<void(std::vector<txn::BlockPtr>)> on_superblock;
  /// One-shot timer; the instance may request several.
  std::function<void(SimDuration, std::function<void()>)> set_timer;
  /// Current simulated time, used only to stamp trace events. Optional; a
  /// traced instance without it stamps everything 0.
  std::function<SimTime()> now;
};

class SuperblockInstance {
 public:
  SuperblockInstance(const SuperblockConfig& config, std::uint64_t index,
                     SuperblockCallbacks callbacks);

  /// Start this node's participation: broadcast our proposal and arm the
  /// proposal timeout. `own_proposal` may be null (propose nothing).
  void begin(txn::BlockPtr own_proposal);

  /// Route any consensus message for this index.
  void handle(std::uint32_t from, const sim::MessagePtr& message);

  bool complete() const { return completed_; }
  std::uint64_t index() const { return index_; }

  // Introspection for tests/metrics.
  std::uint32_t decided_count() const;
  std::uint32_t ones_decided() const;

  /// Blocks received locally whose binary instance decided 0 — the set C of
  /// Alg. 1 line 27, whose valid transactions get recycled into the pool.
  std::vector<txn::BlockPtr> undecided_blocks() const;

  /// Per-slot progress snapshot for harness diagnostics.
  struct SlotDebug {
    bool bin_decided = false;
    bool bin_value = false;
    bool has_block = false;
    bool delivered = false;
    bool pulling = false;
    std::size_t echoers = 0;  // senders of the most-echoed hash
    bool bin_started = false;
    std::uint32_t bin_round = 0;
    std::size_t decided_votes[2] = {0, 0};
  };
  SlotDebug slot_debug(std::uint32_t proposer) const;

 private:
  /// The distinct senders that echoed one hash, and how many there are.
  struct EchoSenders {
    explicit EchoSenders(std::uint32_t n) : from(n) {}
    SenderFlags from;
    std::uint32_t count = 0;
  };
  static constexpr std::uint8_t kEchoFrom = 1;

  struct ProposalSlot {
    txn::BlockPtr block;            // body as received (hash-checked)
    std::optional<Hash32> delivered_hash;  // fixed by n-f echoes
    std::map<Hash32, EchoSenders> echoes;
    bool echoed = false;
    std::optional<Hash32> echoed_hash;  // what we echoed, for rebroadcast
    bool bin_started = false;
    bool bin_decided = false;
    bool bin_value = false;
    std::unique_ptr<BinaryConsensus> bin;
    /// The DECIDED message for this slot, built when the first one goes out
    /// and shared by every later announcement and hint: a decision never
    /// changes.
    sim::MessagePtr decided;
    bool pulling = false;
    std::uint32_t pull_attempt_count = 0;  // rotates the peers asked
    // Owns the PULL retry closure; the timer copies capture it weakly so
    // the closure cannot keep itself alive (shared_ptr cycle = leak).
    std::shared_ptr<std::function<void()>> pull_attempt;
  };

  void on_propose(std::uint32_t from, const ProposeMsg& msg);
  void on_echo(std::uint32_t from, const EchoMsg& msg);
  void on_pull(std::uint32_t from, const PullMsg& msg);
  void on_bin_msg(std::uint32_t from, const BinMsg& msg);
  void on_decided_msg(std::uint32_t from, const DecidedMsg& msg);
  void on_proposal_timeout();
  void on_rebroadcast_timer();
  void rebroadcast();
  /// set_timer wrapper whose callback no-ops once this instance is
  /// destroyed. Instances die while timers are pending (commit-window
  /// pruning, node crash wiping instances_), so raw `this` captures in
  /// timer closures would be use-after-free.
  void arm_timer(SimDuration delay, std::function<void()> fn);

  /// Trace timestamp: the callback's clock when wired, else 0.
  SimTime trace_now() const { return cb_.now ? cb_.now() : 0; }

  /// True when `rank`'s messages count toward quorums under this instance's
  /// membership view (uniform for peers AND self-delivery: a disabled node
  /// does not count its own echoes/ESTs either, so its quorum arithmetic
  /// never diverges from the members').
  bool counted(std::uint32_t rank) const {
    return config_.membership.counts(rank);
  }

  void record_echo(std::uint32_t proposer, std::uint32_t from,
                   const Hash32& hash);
  void start_bin(std::uint32_t proposer, bool input);
  void request_pull(std::uint32_t proposer);
  bool slot_ready(const ProposalSlot& slot) const;
  /// True when the slot's delivered hash is backed by an n-f echo quorum —
  /// the certificate every included block must carry (invariant checks).
  bool quorum_certified(const ProposalSlot& slot) const;
  void maybe_complete();
  BinaryConsensus& bin_for(std::uint32_t proposer);
  /// The slot's DECIDED message for `value`, built once.
  const sim::MessagePtr& decided_msg(std::uint32_t proposer, bool value);

  SuperblockConfig config_;
  /// Effective quorum thresholds: derived from config_.membership (or the
  /// static (n, f) when no view is set). The single source for every
  /// threshold in this file.
  QuorumParams quorums_;
  std::uint64_t index_;
  SuperblockCallbacks cb_;
  std::vector<ProposalSlot> slots_;
  bool began_ = false;
  bool timeout_fired_ = false;
  bool completed_ = false;
  txn::BlockPtr own_proposal_;  // kept for rebroadcast until delivered
  /// Liveness sentinel for timer closures (see arm_timer).
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace srbb::consensus
