#include "srbb/validator.hpp"

#include <algorithm>

#include "common/invariant.hpp"
#include "crypto/sha256.hpp"
#include "txn/validation.hpp"

namespace srbb::node {

using consensus::SuperblockCallbacks;
using consensus::SuperblockConfig;
using consensus::SuperblockInstance;

ValidatorNode::ValidatorNode(sim::Simulation& simulation, sim::NodeId id,
                             sim::RegionId region, ValidatorConfig config,
                             std::shared_ptr<ExecutionOracle> oracle,
                             std::shared_ptr<rpm::RewardPenaltyMechanism> rpm,
                             sim::GossipOverlay* overlay)
    : sim::SimNode(simulation, id, region),
      config_(std::move(config)),
      identity_(config_.scheme->make_identity(config_.self)),
      oracle_(std::move(oracle)),
      rpm_(std::move(rpm)),
      overlay_(overlay),
      pool_(config_.pool),
      pipeline_(*config_.scheme, config_.validation, config_.metrics) {
  committee_.reserve(config_.n);
  for (std::uint32_t rank = 0; rank < config_.n; ++rank) {
    const crypto::Identity member = config_.scheme->make_identity(rank);
    committee_.push_back(CommitteeKey{member.public_key, member.address()});
    if (rank != config_.self) peers_.push_back(rank);
  }
  CatchUpConfig sync_config;
  sync_config.n = config_.n;
  sync_config.self = config_.self;
  sync_config.request_timeout = config_.sync_request_timeout;
  sync_config.backoff_cap = config_.sync_backoff_cap;
  CatchUpCallbacks sync_cb;
  sync_cb.send_to = [this](std::uint32_t peer, sim::MessagePtr msg) {
    if (peer != config_.self) send(peer, std::move(msg));
  };
  sync_cb.set_timer = [this](SimDuration delay, std::function<void()> fn) {
    // CatchUpSync disarms stale timers via its generation counter; the epoch
    // guard additionally kills timers armed before a second crash.
    sim().schedule_after(delay, guarded(std::move(fn)));
  };
  sync_cb.on_superblock = [this](std::uint64_t index,
                                 std::vector<txn::BlockPtr> blocks) {
    on_synced_superblock(index, std::move(blocks));
  };
  sync_cb.on_caught_up = [this](std::uint64_t frontier) {
    on_caught_up(frontier);
  };
  sync_ = std::make_unique<CatchUpSync>(sync_config, std::move(sync_cb));
  if (config_.adaptive_membership) {
    config_.reliability.n = config_.n;
    config_.reliability.f = config_.f;
    tracker_ = std::make_unique<rpm::ReliabilityTracker>(config_.reliability);
  }
  register_obs();
}

void ValidatorNode::register_obs() {
  pool_.set_observability(config_.trace, config_.metrics, config_.self);
  if (config_.metrics != nullptr) {
    hist_propose_to_decide_ =
        &config_.metrics->histogram("lat.propose_to_decide");
    hist_decide_to_commit_ = &config_.metrics->histogram("lat.decide_to_commit");
    ctr_spec_runs_ = &config_.metrics->counter("exec.speculative_runs");
    ctr_spec_aborts_ = &config_.metrics->counter("exec.aborts");
    ctr_fallback_txs_ = &config_.metrics->counter("exec.fallback_txs");
    g_state_hits_ = &config_.metrics->gauge("state.snapshot_hits");
    g_state_faults_ = &config_.metrics->gauge("state.snapshot_faults");
    g_state_evictions_ = &config_.metrics->gauge("state.snapshot_evictions");
    g_state_resident_ = &config_.metrics->gauge("state.resident_accounts");
  }
}

void ValidatorNode::publish_state_obs() {
  if (g_state_hits_ == nullptr) return;
  const state::StateDB::BackingStats backing = oracle_->db().backing_stats();
  g_state_hits_->set(static_cast<std::int64_t>(backing.hits));
  g_state_faults_->set(static_cast<std::int64_t>(backing.faults));
  g_state_evictions_->set(static_cast<std::int64_t>(backing.evictions));
  g_state_resident_->set(
      static_cast<std::int64_t>(oracle_->db().resident_accounts()));
}

void ValidatorNode::start() {
  if (started_ || config_.behavior.silent) return;
  started_ = true;
  begin_round(0);
}

// ---------------------------------------------------------------------------
// Reception (Alg. 1 lines 4-9)
// ---------------------------------------------------------------------------

void ValidatorNode::handle_message(sim::NodeId from,
                                   const sim::MessagePtr& message) {
  if (config_.behavior.silent) return;
  if (crashed_) return;  // down: anything still in flight is lost
  // Consensus traffic is routed by index below. Instances exist lazily so
  // early messages for future rounds are absorbed by their (not yet begun)
  // instance; PULLs for completed instances are answered by them too.
  const consensus::PullMsg* pull = nullptr;
  const consensus::BinMsg* bin = nullptr;
  const consensus::DecidedMsg* dec = nullptr;
  std::uint64_t index = 0;
  switch (message->kind) {
    case sim::MsgKind::kClientTx:
      on_client_tx(from, sim::msg_cast<ClientTxMsg>(message)->tx);
      return;
    case sim::MsgKind::kGossipTx:
      on_gossip_tx(from, sim::msg_cast<GossipTxMsg>(message)->tx);
      return;
    case sim::MsgKind::kSyncRequest:
      on_sync_request(from, *sim::msg_cast<SyncRequestMsg>(message));
      return;
    case sim::MsgKind::kSyncResponse:
      sync_->on_response(static_cast<std::uint32_t>(from),
                         *sim::msg_cast<SyncResponseMsg>(message));
      return;
    case sim::MsgKind::kPull:
      pull = sim::msg_cast<consensus::PullMsg>(message);
      index = pull->index;
      break;
    case sim::MsgKind::kBin:
      bin = sim::msg_cast<consensus::BinMsg>(message);
      index = bin->index;
      break;
    case sim::MsgKind::kDecided:
      dec = sim::msg_cast<consensus::DecidedMsg>(message);
      index = dec->index;
      break;
    case sim::MsgKind::kPropose:
      index = sim::msg_cast<consensus::ProposeMsg>(message)->index;
      break;
    case sim::MsgKind::kEcho:
      index = sim::msg_cast<consensus::EchoMsg>(message)->index;
      break;
    default:
      return;  // not a validator message
  }
  const auto instance = instances_.find(index);
  if (instance == instances_.end() && index < next_commit_) {
    // The index is committed and its instance pruned (or never rebuilt after
    // a crash wiped it). Don't resurrect a zombie instance; a straggler still
    // working the index is answered from the decided store instead: PULLs
    // with the body plus our echo, bin traffic with the decision the network
    // certified. Without the latter a straggler can starve: with one peer
    // syncing and one already decided, the two still ESTing never reach the
    // 2f+1 binding quorum, and a single retained instance's DECIDED hint is
    // one short of the f+1 adoption threshold.
    if (pull != nullptr) {
      on_stale_pull(from, *pull);
    } else if (bin != nullptr) {
      on_stale_bin(from, index, bin->proposer);
    } else if (dec != nullptr) {
      on_stale_bin(from, index, dec->proposer);
    }
    return;
  }
  // Falling-behind detection: traffic for an index two or more superblocks
  // past our commit frontier means the network decided superblocks we missed
  // entirely. Peers prune completed instances and stop rebroadcasting them,
  // so the consensus layer can no longer heal a gap that old — fall back to
  // catch-up sync (served from the peers' decided stores) and rejoin at the
  // frontier. The message still reaches its instance below: live consensus
  // keeps flowing through passive instances while we replay.
  if (started_ && !syncing_ && index >= next_commit_ + 2) {
    syncing_ = true;
    sync_->start(next_commit_);
  }
  // Adaptive membership: the view governing index k is a pure function of
  // the commits up to k - kViewLag, so an instance may only exist once those
  // commits landed locally. Traffic beyond the derivable horizon is dropped
  // (NOT buffered in a passive instance — it would run under a stale view
  // and could complete with the wrong quorums); the sync started above
  // replays the gap, and the peers' rebroadcast timers re-deliver the live
  // rounds afterwards. With a static committee every view is the same, so no
  // drop is needed and behaviour is unchanged.
  if (tracker_ != nullptr && index > tracker_->max_view_index()) return;
  // Nothing above touched instances_ (a sync start only sends and arms a
  // timer), so the lookup still stands.
  (instance != instances_.end() ? *instance->second : make_instance(index))
      .handle(from, message);
}

void ValidatorNode::on_stale_pull(sim::NodeId from,
                                  const consensus::PullMsg& msg) {
  const auto it = decided_store_.find(msg.index);
  if (it == decided_store_.end()) return;
  for (const txn::BlockPtr& block : it->second) {
    if (block->header.proposer == msg.proposer) {
      auto reply = std::make_shared<consensus::ProposeMsg>();
      reply->index = msg.index;
      reply->block = block;
      send(from, std::move(reply));
      // Vouch for the hash too: the committed superblock carries the echo
      // quorum's certificate, so re-asserting it is safe and lets the
      // puller rebuild slot readiness (body + echo quorum) from scratch.
      auto echo = std::make_shared<consensus::EchoMsg>();
      echo->index = msg.index;
      echo->proposer = msg.proposer;
      echo->block_hash = block->hash();
      send(from, std::move(echo));
      return;
    }
  }
}

void ValidatorNode::on_client_tx(sim::NodeId from, const txn::TxPtr& tx) {
  ++metrics_.client_txs_received;
  // Eager validation burns CPU before the admission decision (this queueing
  // is the congestion the paper measures).
  post_work(config_.costs.eager_validation, guarded([this, from, tx] {
    ++metrics_.eager_validations;
    if (oracle_->committed_below(tx->hash, next_commit_) ||
        pool_.contains(tx->hash)) {
      return;
    }
    const Status valid = pipeline_.validate_one(*tx, oracle_->db());
    // Span covering the validation CPU charge: post_work delivered us at the
    // completion instant, so the span starts one cost earlier.
    SRBB_TRACE(config_.trace, now() - config_.costs.eager_validation,
               config_.costs.eager_validation, config_.self, "pool",
               "tx.eager_validate", "tx", obs::trace_id(tx->hash), "ok",
               valid ? 1 : 0);
    if (!valid) {
      ++metrics_.eager_failures;
      return;  // drop (Alg. 1: failed eager validation)
    }
    client_origins_.try_emplace(tx->hash, from);
    admit_to_pool(tx);
    if (!config_.tvpr) {
      // Modern blockchain: propagate the individual transaction (line 9).
      gossip_tx(tx, std::nullopt);
    }
  }));
}

void ValidatorNode::on_gossip_tx(sim::NodeId from, const txn::TxPtr& tx) {
  ++metrics_.gossip_txs_received;
  // Cheap dedup before the expensive validation, as Geth does. This is what
  // makes duplicated/reordered gossip (fault injection) harmless: a second
  // copy costs one seen-ledger lookup, never a second validation or pool
  // slot. Gossip travels only over the overlay, which owns the ledger.
  SRBB_CHECK(overlay_ != nullptr);
  settle_dedup_credits();
  // A copy whose hash is already in this node's seen row is a duplicate
  // whatever happens before its lookup finishes: the row only grows until
  // crash(), which also disarms the lookup. So charge the lookup's CPU and
  // count it when it would have finished, without queuing it.
  if (overlay_->seen_ledger().seen(id(), tx->hash)) {
    dedup_credits_.emplace_back(charge_work(config_.costs.gossip_dedup));
    return;
  }
  post_work(config_.costs.gossip_dedup, guarded([this, from, tx] {
    if (overlay_->seen_ledger().seen(id(), tx->hash) ||
        oracle_->committed_below(tx->hash, next_commit_) ||
        pool_.contains(tx->hash)) {
      ++metrics_.gossip_dups_suppressed;
      return;
    }
    overlay_->seen_ledger().mark(id(), tx->hash);
    post_work(config_.costs.eager_validation, guarded([this, from, tx] {
      ++metrics_.eager_validations;  // the redundant validation TVPR removes
      const Status valid = pipeline_.validate_one(*tx, oracle_->db());
      if (!valid) {
        ++metrics_.eager_failures;
        return;
      }
      admit_to_pool(tx);
      gossip_tx(tx, from);
    }));
  }));
}

void ValidatorNode::settle_dedup_credits() const {
  while (!dedup_credits_.empty() && sim().passed(dedup_credits_.front())) {
    dedup_credits_.pop_front();
    ++metrics_.gossip_dups_suppressed;
  }
}

void ValidatorNode::admit_to_pool(const txn::TxPtr& tx) {
  pool_.add(tx, now());
}

void ValidatorNode::gossip_tx(const txn::TxPtr& tx,
                              std::optional<sim::NodeId> skip) {
  if (overlay_ == nullptr) return;
  overlay_->seen_ledger().mark(id(), tx->hash);
  auto msg = std::make_shared<GossipTxMsg>();
  msg->tx = tx;
  // Only validators gossip.
  metrics_.gossip_txs_sent += overlay_->gossip(*this, config_.n, skip, msg);
}

// ---------------------------------------------------------------------------
// Consensus (Alg. 1 lines 10-18)
// ---------------------------------------------------------------------------

SuperblockInstance& ValidatorNode::instance_for(std::uint64_t index) {
  const auto it = instances_.find(index);
  return it != instances_.end() ? *it->second : make_instance(index);
}

SuperblockInstance& ValidatorNode::make_instance(std::uint64_t index) {
  SuperblockConfig sb_config;
  sb_config.n = config_.n;
  sb_config.f = config_.f;
  sb_config.self = config_.self;
  sb_config.proposal_timeout = config_.proposal_timeout;
  sb_config.pull_retry = config_.pull_retry;
  sb_config.rebroadcast_interval = config_.rebroadcast_interval;
  sb_config.scheme = config_.scheme;
  sb_config.trace = config_.trace;
  // Snapshot the governing view once: the instance keeps it for its whole
  // life, so a later tracker advance (pruning old views) cannot affect it.
  const consensus::MembershipView view =
      tracker_ != nullptr ? tracker_->view_for(index)
                          : consensus::MembershipView{};
  sb_config.membership = view;

  SuperblockCallbacks cb;
  cb.broadcast = [this](const sim::MessagePtr& msg) {
    multicast(peers_, msg);
  };
  cb.send_to = [this](std::uint32_t peer, const sim::MessagePtr& msg) {
    if (peer != config_.self && peer < config_.n) send(peer, msg);
  };
  cb.validate_header = [this](const txn::Block& block) {
    return validate_header(block);
  };
  cb.expect_proposal = [this, view](std::uint32_t proposer) {
    // Removed validators propose nothing ever again; disabled ones keep
    // their slot (a decided-1 slot is their re-admission evidence), so only
    // removal short-circuits the proposal timeout.
    if (view.committee_n() != 0 && view.removed(proposer)) return false;
    if (rpm_ == nullptr || !config_.rpm) return true;
    return !rpm_->is_excluded(committee_[proposer].address);
  };
  cb.on_superblock = [this, index](std::vector<txn::BlockPtr> blocks) {
    on_superblock(index, std::move(blocks));
  };
  cb.set_timer = [this](SimDuration delay, std::function<void()> fn) {
    // The instance's own alive_ sentinel already no-ops timers of destroyed
    // instances; the epoch guard covers the crash-wipes-instances_ case too.
    sim().schedule_after(delay, guarded(std::move(fn)));
  };
  cb.now = [this] { return now(); };

  const auto [it, inserted] = instances_.emplace(
      index,
      std::make_unique<SuperblockInstance>(sb_config, index, std::move(cb)));
  SRBB_CHECK(inserted);
  return *it->second;
}

void ValidatorNode::begin_round(std::uint64_t index) {
  current_round_ = index;
  last_round_start_ = now();
  if (obs_on()) round_began_at_[index] = now();
  txn::BlockPtr proposal = build_proposal(index);
  SRBB_TRACE(config_.trace, now(), 0, config_.self, "consensus",
             "round.propose", "index", index, "txs", proposal->txs.size());
  instance_for(index).begin(std::move(proposal));
}

txn::BlockPtr ValidatorNode::build_proposal(std::uint64_t index) {
  std::vector<txn::TxPtr> txs;
  if (!config_.behavior.censor) {
    txs = pool_.take_batch(config_.max_block_txs, config_.max_block_bytes,
                           now());
  }
  // Flooding attack: a Byzantine proposer stuffs invalid transactions into
  // its block, skipping eager validation to save cost (§III-B, §V-B).
  for (std::uint32_t i = 0; i < config_.behavior.flood_invalid_per_block; ++i) {
    if (config_.behavior.flood_total_limit != 0 &&
        metrics_.invalid_txs_flooded >= config_.behavior.flood_total_limit) {
      break;
    }
    txs.push_back(make_invalid_tx());
    ++metrics_.invalid_txs_flooded;
  }
  ++metrics_.blocks_proposed;
  return txn::seal(txn::make_block(index, config_.self, now(), parent_hash_,
                                   std::move(txs), identity_, *config_.scheme));
}

txn::TxPtr ValidatorNode::make_invalid_tx() {
  // Properly signed, but the sender has 0 balance (the paper's construction)
  // so lazy validation / execution rejects it.
  const crypto::Identity broke = config_.scheme->make_identity(
      0xF000'0000'0000'0000ull + (static_cast<std::uint64_t>(config_.self) << 32) +
      invalid_tx_counter_++);
  txn::TxParams params;
  params.kind = txn::TxKind::kTransfer;
  params.nonce = 0;
  params.gas_price = U256{1};
  params.gas_limit = 21'000;
  params.to = identity_.address();
  params.value = U256{1};
  return txn::make_signed_tx(params, broke, *config_.scheme);
}

bool ValidatorNode::validate_header(const txn::Block& block) const {
  if (block.header.proposer >= config_.n) return false;
  // The certificate key must be the known key of the claimed rank, so a
  // Byzantine validator cannot propose under another's slot.
  const CommitteeKey& expected = committee_[block.header.proposer];
  if (block.header.cert.proposer_pubkey != expected.public_key) return false;
  // RPM exclusion (Alg. 2 line 42): correct validators drop blocks from
  // slashed proposers.
  if (rpm_ != nullptr && config_.rpm && rpm_->is_excluded(expected.address)) {
    return false;
  }
  // Adaptive membership: removal is permanent (slash-beats-disable), so a
  // removed rank's blocks are invalid under the view governing their index.
  // handle_message already dropped traffic beyond the derivable horizon, so
  // the view lookup cannot miss.
  if (tracker_ != nullptr &&
      tracker_->view_for(block.header.index).removed(
          static_cast<std::uint32_t>(block.header.proposer))) {
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Commit (Alg. 1 lines 19-31)
// ---------------------------------------------------------------------------

void ValidatorNode::on_superblock(std::uint64_t index,
                                  std::vector<txn::BlockPtr> blocks) {
  // The decided set is recorded before commit so a restarted peer can fetch
  // it; the commit pipeline then drains pending_superblocks_ in order.
  decided_store_[index] = blocks;
  if (index < next_commit_) return;  // already committed (sync + passive dup)
  if (obs_on() && round_began_at_.contains(index)) {
    decided_at_[index] = now();
    if (hist_propose_to_decide_ != nullptr) {
      hist_propose_to_decide_->observe(now() - round_began_at_[index]);
    }
  }
  pending_superblocks_[index] = std::move(blocks);
  try_commit();
}

void ValidatorNode::try_commit() {
  if (commit_in_flight_) return;
  const auto it = pending_superblocks_.find(next_commit_);
  if (it == pending_superblocks_.end()) return;
  commit_in_flight_ = true;

  const std::uint64_t index = it->first;
  // Execute (memoized in shared mode, deterministic either way) to learn the
  // attempt/valid split, then charge the commit-path CPU before finalizing:
  // every attempt pays lazy validation + signature recovery, valid
  // transactions additionally pay the EVM apply.
  const bool first_exec = !oracle_->executed(index);
  const IndexExecResult& result = oracle_->execute(
      index, it->second,
      ExecutionOracle::ExecContext{config_.trace, now(), config_.self});
  if (first_exec) {
    // Parallel-execution counters land once per index (the first executor;
    // memoized replays on a shared oracle did no speculative work).
    if (ctr_spec_runs_ != nullptr) {
      ctr_spec_runs_->inc(result.parallel.speculative_runs);
    }
    if (ctr_spec_aborts_ != nullptr) ctr_spec_aborts_->inc(result.parallel.aborts);
    if (ctr_fallback_txs_ != nullptr) {
      ctr_fallback_txs_->inc(result.parallel.fallback_txs);
    }
  }
  std::size_t attempts = 0;
  for (const txn::BlockPtr& block : it->second) attempts += block->txs.size();
  const SimDuration cost =
      static_cast<SimDuration>(attempts) *
          (config_.costs.lazy_validation + config_.costs.sig_check_exec) +
      static_cast<SimDuration>(result.total_valid) *
          config_.costs.execution_per_tx;
  post_work(cost, guarded([this, index] {
    const auto pending = pending_superblocks_.find(index);
    commit_index(index, pending->second);
    pending_superblocks_.erase(pending);
    commit_in_flight_ = false;
    try_commit();  // next superblock may already be waiting
  }));
}

void ValidatorNode::commit_index(std::uint64_t index,
                                 const std::vector<txn::BlockPtr>& blocks) {
  const IndexExecResult& result = oracle_->execute(index, blocks);
  publish_state_obs();

  std::vector<Hash32> committed_hashes;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const txn::BlockPtr& block = blocks[b];
    const BlockExecResult& block_result = result.blocks[b];
    for (std::size_t t = 0; t < block->txs.size(); ++t) {
      const TxOutcome& outcome = block_result.outcomes[t];
      if (outcome.valid) {
        ++metrics_.txs_committed_valid;
        committed_hashes.push_back(outcome.hash);
        if (const sim::NodeId* origin = client_origins_.find(outcome.hash)) {
          auto ack = std::make_shared<CommitAckMsg>();
          ack->tx_hash = outcome.hash;
          ack->executed_ok = outcome.executed_ok;
          SRBB_TRACE(config_.trace, now(), 0, config_.self, "commit",
                     "commit.ack", "tx", obs::trace_id(outcome.hash), "ok",
                     outcome.executed_ok ? 1 : 0);
          send(*origin, ack);
          client_origins_.erase(outcome.hash);
        }
      } else {
        ++metrics_.txs_discarded_invalid;
      }
    }
  }
  pool_.remove_committed(committed_hashes);

  // Chain digest for safety checks: previous digest + block hashes + root.
  crypto::Sha256 digest;
  digest.update(parent_hash_.view());
  for (const txn::BlockPtr& block : blocks) {
    digest.update(block->hash().view());
  }
  digest.update(result.state_root.view());
  parent_hash_ = digest.finish();
  chain_.push_back(parent_hash_);
  last_state_root_ = result.state_root;
  ++metrics_.superblocks_committed;
  SRBB_TRACE(config_.trace, now(), 0, config_.self, "commit",
             "superblock.commit", "index", index, "valid", result.total_valid);
  if (obs_on()) {
    const auto decided = decided_at_.find(index);
    if (decided != decided_at_.end()) {
      if (hist_decide_to_commit_ != nullptr) {
        hist_decide_to_commit_->observe(now() - decided->second);
      }
      decided_at_.erase(decided);
    }
    round_began_at_.erase(index);
  }

  // Adaptive membership: fold this committed superblock into the reliability
  // tracker — including during catch-up replay (the tracker is per-node and
  // must observe every index exactly once to regrow the identical view
  // sequence). Evidence is consensus-visible only: which ranks contributed a
  // decided block, and each block's deterministic invalid-transaction count.
  if (tracker_ != nullptr) {
    std::vector<bool> contributed(config_.n, false);
    std::vector<std::uint32_t> invalid_txs(config_.n, 0);
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      const auto proposer =
          static_cast<std::uint32_t>(blocks[b]->header.proposer);
      contributed[proposer] = true;
      // Removal evidence counts only *provably* invalid transactions: ones
      // whose sender is a virgin account (balance 0, nonce 0) — an account
      // that could never have produced a valid transaction at any chain
      // state, which is exactly the paper's flooding construction (§V-B).
      // Honest blocks also carry invalid transactions under load — duplicate
      // resends and cross-endpoint nonce races — but those come from funded
      // senders, so they never accumulate toward removal. The predicate is
      // evaluation-state-stable (flood senders are never funded, workload
      // senders are genesis-funded), so every replica counts identically.
      std::uint32_t invalid = 0;
      const std::vector<TxOutcome>& outcomes = result.blocks[b].outcomes;
      for (std::size_t t = 0; t < outcomes.size(); ++t) {
        if (outcomes[t].valid) continue;
        const Address& sender = blocks[b]->txs[t]->sender;
        if (oracle_->db().balance(sender).is_zero() &&
            oracle_->db().nonce(sender) == 0) {
          ++invalid;
        }
      }
      invalid_txs[proposer] += invalid;
    }
    const std::vector<rpm::MembershipEvent> events =
        tracker_->on_superblock_committed(index, contributed, invalid_txs);
    for (const rpm::MembershipEvent& event : events) {
      switch (event.kind) {
        case rpm::MembershipEvent::Kind::kDisabled:
          ++metrics_.membership_disables;
          break;
        case rpm::MembershipEvent::Kind::kReadmitted:
          ++metrics_.membership_readmissions;
          break;
        case rpm::MembershipEvent::Kind::kRemoved:
          ++metrics_.membership_removals;
          break;
      }
      SRBB_TRACE(config_.trace, now(), 0, config_.self, "membership",
                 "membership.event", "rank", event.rank, "kind",
                 static_cast<std::uint64_t>(event.kind));
    }
  }

  // During catch-up replay the RPM hooks are skipped: the pre-crash run (and
  // every live peer) already reported these indices to the shared contract,
  // so replaying the reports would double-count them.
  if (rpm_ != nullptr && config_.rpm && !syncing_) {
    run_rpm_hooks(index, blocks, result);
  }
  recycle_undecided(index);

  // A live commit always comes from its instance completing; an instance
  // still incomplete here is a passive husk built from traffic that raced a
  // catch-up replay. Keeping it would swallow stragglers' messages for this
  // index that the decided store can actually answer — drop it.
  const auto husk = instances_.find(index);
  if (husk != instances_.end() && !husk->second->complete()) {
    instances_.erase(husk);
  }

  ++next_commit_;
  if (syncing_) {
    // Replay only: consensus resumes once the commit frontier reaches the
    // fetch frontier (begin_round for an old index would propose doomed
    // blocks into rounds the peers finished long ago).
    if (sync_caught_up_ && !sync_->active() && next_commit_ >= sync_frontier_) {
      finish_sync();
    }
    return;
  }
  if (!started_) return;
  // Schedule the next round, pacing by the configured block interval.
  const std::uint64_t next_round = index + 1;
  if (next_round > current_round_) {
    const SimTime earliest = last_round_start_ + config_.min_block_interval;
    if (now() >= earliest) {
      begin_round(next_round);
    } else {
      sim().schedule_at(earliest, guarded([this, next_round] {
        if (next_round > current_round_) begin_round(next_round);
      }));
    }
  }
}

void ValidatorNode::recycle_undecided(std::uint64_t index) {
  // Alg. 1 lines 27-31: transactions of received-but-undecided blocks are
  // eagerly validated and returned to the pool for a future block. Each
  // block goes through ValidationPipeline::validate as one batch — one
  // verify_batch call per block instead of one verify per transaction — and
  // the survivors are re-admitted in one add_batch call. Candidate selection
  // and metric accounting match the old per-transaction loop exactly:
  // in-block duplicates are screened by `in_batch` (the sequential loop
  // caught them via pool_.contains after the first admission), and admission
  // between blocks keeps cross-block duplicates on the pool_.contains path.
  const auto it = instances_.find(index);
  if (it == instances_.end()) return;
  // Runs inside commit_index before ++next_commit_, so `index` itself counts
  // as committed.
  const std::uint64_t frontier = index + 1;
  std::vector<txn::TxPtr> candidates;
  std::vector<txn::TxPtr> admit;
  FlatSet<32> in_batch;
  for (const txn::BlockPtr& block : it->second->undecided_blocks()) {
    candidates.clear();
    admit.clear();
    in_batch.clear();
    for (const txn::TxPtr& tx : block->txs) {
      if (oracle_->committed_below(tx->hash, frontier) ||
          pool_.contains(tx->hash) ||
          !in_batch.try_emplace(tx->hash).second) {
        continue;
      }
      candidates.push_back(tx);
    }
    if (candidates.empty()) continue;
    metrics_.eager_validations += candidates.size();
    const std::vector<Status> results =
        pipeline_.validate(candidates, oracle_->db());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (results[i].is_ok()) {
        admit.push_back(candidates[i]);
      } else {
        ++metrics_.eager_failures;
      }
    }
    metrics_.txs_recycled += pool_.add_batch(admit, now()).added;
  }
  // The instance has served its purpose; keep only a window for late PULLs.
  if (index >= 4) instances_.erase(instances_.begin(),
                                   instances_.lower_bound(index - 3));
}

// ---------------------------------------------------------------------------
// Crash / recovery (DESIGN.md §7)
// ---------------------------------------------------------------------------

void ValidatorNode::crash() {
  if (crashed_) return;
  crashed_ = true;
  started_ = false;
  syncing_ = false;
  sync_caught_up_ = false;
  sync_frontier_ = 0;
  // Decided dedups whose lookup has not finished die with the closures.
  settle_dedup_credits();
  dedup_credits_.clear();
  ++epoch_;  // disarm every queued closure (CPU work, timers, round pacing)
  ++metrics_.crashes;
  sync_->cancel();

  // Volatile state is gone: pool, seen-gossip bits, chain, consensus
  // instances, decided-block store, execution state. Destroying the instances
  // also orphans their pending timers via the alive_ sentinels. Resetting
  // next_commit_ to 0 also empties the committed-transaction test
  // (oracle_->committed_below asks with this node's own height).
  pool_ = pool::TxPool(config_.pool);
  register_obs();  // the fresh pool needs its sink/counters re-attached
  round_began_at_.clear();
  decided_at_.clear();
  if (overlay_ != nullptr) overlay_->seen_ledger().forget(id());
  client_origins_.clear();
  instances_.clear();
  pending_superblocks_.clear();
  decided_store_.clear();
  current_round_ = 0;
  next_commit_ = 0;
  commit_in_flight_ = false;
  last_round_start_ = 0;
  parent_hash_ = Hash32{};
  chain_.clear();
  last_state_root_ = Hash32{};
  if (tracker_ != nullptr) {
    // Rebuilt from genesis; the catch-up replay feeds it every committed
    // index again, regrowing the identical deterministic view sequence.
    tracker_ = std::make_unique<rpm::ReliabilityTracker>(config_.reliability);
  }
  if (config_.oracle_private) oracle_->reset();
}

void ValidatorNode::restart() {
  if (!crashed_) return;
  crashed_ = false;
  ++metrics_.restarts;
  if (config_.behavior.silent) return;
  syncing_ = true;
  sync_->start(next_commit_);  // 0 after a full wipe
}

void ValidatorNode::on_stale_bin(sim::NodeId from, std::uint64_t index,
                                 std::uint32_t proposer) {
  const auto it = decided_store_.find(index);
  if (it == decided_store_.end()) return;
  bool value = false;
  for (const txn::BlockPtr& block : it->second) {
    if (block->header.proposer == proposer) {
      value = true;
      break;
    }
  }
  auto msg = std::make_shared<consensus::DecidedMsg>();
  msg->index = index;
  msg->proposer = proposer;
  msg->value = value;
  send(from, std::move(msg));
}

void ValidatorNode::on_sync_request(sim::NodeId from,
                                    const SyncRequestMsg& msg) {
  ++metrics_.sync_requests_served;
  auto resp = std::make_shared<SyncResponseMsg>();
  resp->index = msg.index;
  resp->height = next_commit_;
  const auto it = decided_store_.find(msg.index);
  if (it != decided_store_.end()) {
    resp->have = true;
    resp->blocks = it->second;
  }
  send(from, std::move(resp));
}

void ValidatorNode::on_synced_superblock(std::uint64_t index,
                                         std::vector<txn::BlockPtr> blocks) {
  ++metrics_.superblocks_synced;
  // Feed the fetched superblock through the regular commit pipeline: the
  // replay re-executes (or reuses the memoized result of) every index, so
  // the rebuilt chain digest is bit-for-bit the one the node lost.
  on_superblock(index, std::move(blocks));
}

void ValidatorNode::on_caught_up(std::uint64_t frontier) {
  sync_caught_up_ = true;
  sync_frontier_ = frontier;
  // Resume only once the replay drained. If a commit is in flight it is for
  // next_commit_ itself; its continuation re-runs this check.
  if (next_commit_ >= sync_frontier_ && !commit_in_flight_) finish_sync();
}

void ValidatorNode::finish_sync() {
  if (!syncing_) return;
  syncing_ = false;
  sync_caught_up_ = false;
  started_ = true;
  // While we replayed, live consensus kept flowing through the passive
  // instances; the frontier superblock may therefore already be decided.
  // Commit it instead of proposing into a finished round.
  if (pending_superblocks_.contains(next_commit_)) {
    try_commit();
  } else {
    begin_round(next_commit_);
  }
}

void ValidatorNode::run_rpm_hooks(std::uint64_t index,
                                  const std::vector<txn::BlockPtr>& blocks,
                                  const IndexExecResult& result) {
  // Adaptive membership composes with RPM through the quorum context: the
  // propReceived / report thresholds run over the effective committee of the
  // view governing this index, and a disabled proposer accrues no reward
  // (its key is still consumed). Without a tracker the contract keeps its
  // static n - f thresholds.
  rpm::QuorumContext ctx;
  const rpm::QuorumContext* ctx_ptr = nullptr;
  consensus::MembershipView view;
  if (tracker_ != nullptr) {
    view = tracker_->view_for(index);
    ctx.quorums = view.quorums();
    ctx_ptr = &ctx;
  }
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const txn::BlockPtr& block = blocks[b];
    if (ctx_ptr != nullptr) {
      ctx.proposer_reward_eligible =
          view.counts(static_cast<std::uint32_t>(block->header.proposer));
    }
    rpm::BlockSummary summary;
    summary.proposer_pubkey = block->header.cert.proposer_pubkey;
    summary.signed_tx_root = block->header.cert.signed_tx_root;
    summary.tx_root = block->header.tx_root;
    summary.tx_count = static_cast<std::uint32_t>(block->txs.size());
    for (const TxOutcome& outcome : result.blocks[b].outcomes) {
      summary.total_fees += outcome.fee;
    }
    rpm_->prop_received(identity_.address(), summary,
                        static_cast<std::uint32_t>(b), index, ctx_ptr);

    // Report every invalid transaction with its Merkle inclusion proof.
    std::vector<Hash32> leaves;
    leaves.reserve(block->txs.size());
    for (const txn::TxPtr& tx : block->txs) leaves.push_back(tx->hash);
    for (std::size_t t = 0; t < block->txs.size(); ++t) {
      if (result.blocks[b].outcomes[t].valid) continue;
      const crypto::MerkleProof proof = crypto::merkle_prove(leaves, t);
      rpm_->report(identity_.address(), summary, index, leaves[t], proof,
                   ctx_ptr);
    }
  }
}

}  // namespace srbb::node
