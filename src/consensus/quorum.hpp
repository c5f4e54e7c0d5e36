// Quorum arithmetic and membership views — the single seam for every
// threshold the protocol stack derives from (n, f).
//
// QuorumParams centralizes the f+1 / 2f+1 / n-f expressions that were
// previously re-derived inline in binary.cpp, superblock.cpp, and rpm.cpp.
// With a static committee the values are the classic DBFT ones; with
// adaptive membership (rpm/reliability.hpp) they are computed from the
// *effective* committee — the registered ranks minus the on-chain disabled
// list and removed (slashed) validators — so shrinking the membership
// shrinks every quorum in lock-step.
//
// SenderFlags is the per-sender dedup under every quorum count: the binary
// machine's EST/AUX/DECIDED senders and the superblock's echo senders.
//
// MembershipView is one snapshot of that committee: per-rank
// Active/Disabled/Removed status plus the derived effective (n, f). Views
// are pure values; the reliability tracker owns their evolution and the
// lag rule that makes every correct node use the identical view for a
// given consensus index.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/invariant.hpp"

namespace srbb::consensus {

/// The four quorum thresholds of the DBFT/Red Belly stack, derived from one
/// (n, f) pair. Callers never write `n - f` or `2 * f + 1` inline again.
struct QuorumParams {
  std::uint32_t n = 4;
  std::uint32_t f = 1;

  /// BV-broadcast echo amplification: f+1 copies of a value include one from
  /// a correct node, so echoing it is safe.
  std::uint32_t amplify() const { return f + 1; }
  /// Binding: 2f+1 copies put the value into bin_values (any two such
  /// quorums intersect in a correct node).
  std::uint32_t binding() const { return 2 * f + 1; }
  /// Delivery / completion: n-f responses are the most a node can wait for
  /// without risking a permanent stall on the f faulty ones. Used for the
  /// reliable-broadcast echo certificate, the AUX completion rule, and the
  /// RPM propReceived/report counts.
  std::uint32_t supermajority() const { return n - f; }
  /// Adoption: f+1 matching DECIDED announcements (or pull targets) include
  /// one correct node, whose decision/body is safe to take.
  std::uint32_t adoption() const { return f + 1; }

  /// Largest f with 3f < n — what a committee of `n` can actually tolerate.
  static std::uint32_t max_faults(std::uint32_t n) {
    return n >= 4 ? (n - 1) / 3 : 0;
  }

  bool operator==(const QuorumParams&) const = default;
};

/// Per-sender flag bits, so a quorum counts each sender once. Sender ranks
/// are chosen by peers and may reach past n (a membership view's effective n
/// is below the committee size), so ranks below kDenseRanks index a byte
/// array grown on demand and any larger rank falls back to a map.
class SenderFlags {
 public:
  explicit SenderFlags(std::uint32_t n) : dense_(n, 0) {}
  /// Set `bit` for `rank`; true when it was not set before.
  bool set(std::uint32_t rank, std::uint8_t bit) {
    std::uint8_t& bits = at(rank);
    if ((bits & bit) != 0) return false;
    bits |= bit;
    return true;
  }
  /// True when `bit` is set for `rank`.
  bool test(std::uint32_t rank, std::uint8_t bit) const {
    if (rank < dense_.size()) return (dense_[rank] & bit) != 0;
    const auto it = sparse_.find(rank);
    return it != sparse_.end() && (it->second & bit) != 0;
  }

 private:
  static constexpr std::uint32_t kDenseRanks = 1024;
  std::uint8_t& at(std::uint32_t rank) {
    if (rank >= dense_.size()) {
      if (rank >= kDenseRanks) return sparse_[rank];
      dense_.resize(rank + 1, 0);
    }
    return dense_[rank];
  }
  std::vector<std::uint8_t> dense_;
  std::map<std::uint32_t, std::uint8_t> sparse_;
};

enum class MemberStatus : std::uint8_t {
  kActive = 0,    // counts toward quorums, expected to propose
  kDisabled = 1,  // on the disabled list: keeps its slot, counts nowhere
  kRemoved = 2,   // slashed: out for good, proposals rejected
};

/// One committee snapshot. Default-constructed views are *unset*
/// (committee_n() == 0); consumers substitute the all-active static view.
class MembershipView {
 public:
  MembershipView() = default;
  MembershipView(std::uint32_t n, std::uint32_t f)
      : n_(n), f_(f), status_(n, MemberStatus::kActive) {}

  std::uint32_t committee_n() const { return n_; }

  MemberStatus status(std::uint32_t rank) const {
    SRBB_CHECK(rank < n_);
    return status_[rank];
  }
  void set_status(std::uint32_t rank, MemberStatus status) {
    SRBB_CHECK(rank < n_);
    status_[rank] = status;
  }

  /// True when messages from `rank` count toward quorums. Out-of-range ranks
  /// (clients, unknown ids) never count.
  bool counts(std::uint32_t rank) const {
    return rank < n_ && status_[rank] == MemberStatus::kActive;
  }
  bool disabled(std::uint32_t rank) const {
    return rank < n_ && status_[rank] == MemberStatus::kDisabled;
  }
  bool removed(std::uint32_t rank) const {
    return rank < n_ && status_[rank] == MemberStatus::kRemoved;
  }

  std::uint32_t disabled_count() const {
    std::uint32_t count = 0;
    for (const MemberStatus s : status_) count += s == MemberStatus::kDisabled;
    return count;
  }
  std::uint32_t removed_count() const {
    std::uint32_t count = 0;
    for (const MemberStatus s : status_) count += s == MemberStatus::kRemoved;
    return count;
  }

  /// Effective committee size: the ranks whose messages count.
  std::uint32_t effective_n() const {
    std::uint32_t count = 0;
    for (const MemberStatus s : status_) count += s == MemberStatus::kActive;
    return count;
  }
  /// Effective fault tolerance: never more than the committee's configured f
  /// (disabling trades Byzantine margin for crash liveness, it does not mint
  /// new tolerance) and never more than the shrunken committee can bear.
  std::uint32_t effective_f() const {
    const std::uint32_t cap = QuorumParams::max_faults(effective_n());
    return f_ < cap ? f_ : cap;
  }

  QuorumParams quorums() const { return {effective_n(), effective_f()}; }

  /// Negative-UNL bound: at most floor((n-1)/4) validators may ever sit on
  /// the disabled list, so quorums over the effective committee still
  /// intersect in a correct node (rippled's 25% safety argument).
  static std::uint32_t disable_cap(std::uint32_t n) {
    return n == 0 ? 0 : (n - 1) / 4;
  }

  bool operator==(const MembershipView&) const = default;

 private:
  std::uint32_t n_ = 0;
  std::uint32_t f_ = 0;
  std::vector<MemberStatus> status_;
};

}  // namespace srbb::consensus
