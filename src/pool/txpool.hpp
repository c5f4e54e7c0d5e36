// Bounded transaction pool: the pending queue `p` of Alg. 1. Saturation of
// this queue under load is the paper's congestion mechanism — when it fills,
// transactions are dropped and counted as lost. Entries also carry a TTL
// (Alg. 1 line 8).
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "common/flat_table.hpp"
#include "common/time.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "txn/txref.hpp"

namespace srbb::pool {

struct TxPoolConfig {
  /// Pending-slot capacity (Geth defaults to 4096 executable + 1024 queued).
  std::size_t capacity = 5120;
  /// Entries older than this are dropped on access; 0 disables expiry.
  SimDuration ttl = 0;
};

class TxPool {
 public:
  explicit TxPool(TxPoolConfig config = {}) : config_(config) {}

  /// Attach the observability layer (DESIGN.md §8): admit/drop trace events
  /// tagged with `node`, plus registry counters and the `pool.wait`
  /// histogram (admission -> extraction, the Alg. 1 queueing delay). Either
  /// pointer may be null; with both null the pool behaves exactly as before.
  void set_observability(obs::TraceSink* trace, obs::MetricsRegistry* metrics,
                         std::uint32_t node);

  enum class AddResult : std::uint8_t { kAdded, kDuplicate, kFull };

  AddResult add(txn::TxPtr tx, SimTime now);

  /// Aggregate outcome of a batch admission.
  struct AddBatchResult {
    std::size_t added = 0;
    std::size_t duplicates = 0;
    std::size_t dropped_full = 0;
  };

  /// Admit a batch in order. Exactly equivalent to calling add() once per
  /// entry — same trace events, counters and drop accounting — so the
  /// pipelined validators can admit a validated batch in one call without
  /// perturbing the observable stream.
  AddBatchResult add_batch(std::span<txn::TxPtr> txs, SimTime now);

  bool contains(const Hash32& hash) const { return index_.contains(hash); }

  /// Pop up to `max_count` transactions whose total wire size stays within
  /// `max_bytes` (0 = unlimited), skipping expired entries.
  std::vector<txn::TxPtr> take_batch(std::size_t max_count,
                                     std::size_t max_bytes, SimTime now);

  /// Drop any pending transactions that appear in `committed` (they made it
  /// into a decided block proposed by someone else).
  void remove_committed(const std::vector<Hash32>& committed);

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  std::size_t capacity() const { return config_.capacity; }

  // Congestion accounting.
  std::uint64_t dropped_full() const { return dropped_full_; }
  std::uint64_t dropped_expired() const { return dropped_expired_; }
  std::uint64_t admitted() const { return admitted_; }

 private:
  struct Entry {
    txn::TxPtr tx;
    SimTime added_at = 0;
  };

  bool expired(const Entry& entry, SimTime now) const {
    return config_.ttl != 0 && entry.added_at + config_.ttl <= now;
  }

  /// Invariant: the hash index and the pending deque describe the same set
  /// of transactions. Checked after every mutating operation (O(1) size
  /// check always, full containment sweep under SRBB_PARANOID).
  void check_coherence() const;

  TxPoolConfig config_;
  std::deque<Entry> entries_;
  FlatSet<32> index_;
  std::uint64_t dropped_full_ = 0;
  std::uint64_t dropped_expired_ = 0;
  std::uint64_t admitted_ = 0;

  // Observability (all optional; null = disabled, branch-predicted away).
  obs::TraceSink* trace_ = nullptr;
  std::uint32_t obs_node_ = 0;
  obs::Counter* ctr_admitted_ = nullptr;
  obs::Counter* ctr_dropped_full_ = nullptr;
  obs::Counter* ctr_dropped_expired_ = nullptr;
  obs::Counter* ctr_duplicates_ = nullptr;
  obs::Histogram* hist_wait_ = nullptr;
};

}  // namespace srbb::pool
