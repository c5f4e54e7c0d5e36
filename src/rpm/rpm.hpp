// The Reward-Penalty Mechanism of Alg. 2, implemented as a deterministic
// protocol module (the paper deploys it as a smart contract; the state
// machine is identical — see DESIGN.md for the substitution note).
//
//  - propReceived: validators invoke it for each block of a decided
//    superblock; at n-f matching invocations the proposer's deposit grows by
//    R = I - C with I = r_b + sum(fees) and C = c * |T| (§IV-F reward
//    design).
//  - report: validators report an invalid transaction inside a decided
//    block, proving membership with a Merkle proof against the certified
//    tx root; at n-f matching reports the proposer loses its whole deposit
//    (P = K[address]), the penalty is redistributed to the other validators,
//    and an exclusion event is emitted (Alg. 2 line 42) — correct validators
//    drop the culprit from future committees.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/bytes.hpp"
#include "common/u256.hpp"
#include "consensus/quorum.hpp"
#include "crypto/merkle.hpp"
#include "crypto/signature.hpp"

namespace srbb::rpm {

struct RpmConfig {
  std::uint32_t n = 4;
  std::uint32_t f = 1;
  /// r_b: constant block reward (in wei-like units).
  U256 block_reward = U256{2'000'000};
  /// c: modelled cost of eagerly validating one transaction.
  U256 validation_cost_per_tx = U256{10};
  const crypto::SignatureScheme* scheme = &crypto::SignatureScheme::ed25519();
};

/// What a validator passes to propReceived/report: the block certificate
/// Cert_B plus the summary data the mechanism charges/rewards on.
struct BlockSummary {
  crypto::PublicKey proposer_pubkey{};   // P_k
  crypto::Signature signed_tx_root{};    // (h_t)_Sk
  Hash32 tx_root;                        // hash(T)
  std::uint32_t tx_count = 0;            // |T|
  U256 total_fees;                       // sum of tx fees in the block
};

struct SlashEvent {
  Address validator;
  U256 penalty;
  std::uint64_t block_number = 0;
};

/// Adaptive-membership context for one propReceived/report invocation
/// (DESIGN.md §13): the effective quorums of the MembershipView governing
/// the decided superblock, plus whether the proposer may accrue rewards
/// (disabled validators accrue none). All correct callers derive the same
/// view for a given index, so thresholds stay consistent per key. Null
/// context = the static config (n, f) — the pre-membership behaviour.
struct QuorumContext {
  consensus::QuorumParams quorums{};
  bool proposer_reward_eligible = true;
};

class RewardPenaltyMechanism {
 public:
  explicit RewardPenaltyMechanism(RpmConfig config) : config_(config) {}

  /// Register a committee member and its deposit. Address must match the
  /// key the validator proposes blocks with.
  void register_validator(const Address& addr, const U256& deposit);

  bool is_excluded(const Address& addr) const {
    return excluded_.contains(addr);
  }
  U256 deposit_of(const Address& addr) const;

  /// Alg. 2 propReceived. `caller` is the invoking validator's address;
  /// (slot, round) identify the block position in the decided superblock.
  /// Returns true when this invocation was counted.
  bool prop_received(const Address& caller, const BlockSummary& block,
                     std::uint32_t slot, std::uint64_t round,
                     const QuorumContext* ctx = nullptr);

  /// Alg. 2 report. `proof` shows `invalid_tx` under `block.tx_root`.
  /// Returns the slash event when this report crossed the n-f threshold.
  std::optional<SlashEvent> report(const Address& caller,
                                   const BlockSummary& block,
                                   std::uint64_t block_number,
                                   const Hash32& invalid_tx,
                                   const crypto::MerkleProof& proof,
                                   const QuorumContext* ctx = nullptr);

  const std::vector<SlashEvent>& slash_events() const { return events_; }

  /// Total rewards credited so far (diagnostics / tests).
  U256 total_rewards_paid() const { return total_rewards_; }

 private:
  /// Validate Cert_B: proposer is a registered validator and the signature
  /// over the tx root verifies.
  bool certificate_valid(const BlockSummary& block, Address* proposer) const;

  RpmConfig config_;
  std::unordered_map<Address, U256, AddressHasher> deposits_;
  std::unordered_set<Address, AddressHasher> excluded_;

  struct Key {
    Hash32 digest;
    bool operator==(const Key&) const = default;
  };
  struct KeyHasher {
    std::size_t operator()(const Key& k) const { return Hash32Hasher{}(k.digest); }
  };

  // count[hash(P_k, T, i, r)] -> distinct invokers (Alg. 2 line 21).
  std::unordered_map<Key, std::set<Address>, KeyHasher> prop_counts_;
  std::unordered_set<Key, KeyHasher> rewarded_;
  // count[hash(P_k, N_B, t)] -> distinct reporters (Alg. 2 line 36).
  std::unordered_map<Key, std::set<Address>, KeyHasher> report_counts_;
  std::unordered_set<Key, KeyHasher> slashed_keys_;

  std::vector<SlashEvent> events_;
  U256 total_rewards_;
};

}  // namespace srbb::rpm
