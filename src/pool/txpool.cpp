#include "pool/txpool.hpp"

#include "common/invariant.hpp"

namespace srbb::pool {

void TxPool::set_observability(obs::TraceSink* trace,
                               obs::MetricsRegistry* metrics,
                               std::uint32_t node) {
  trace_ = trace;
  obs_node_ = node;
  if (metrics != nullptr) {
    ctr_admitted_ = &metrics->counter("pool.admitted");
    ctr_dropped_full_ = &metrics->counter("pool.dropped_full");
    ctr_dropped_expired_ = &metrics->counter("pool.dropped_expired");
    ctr_duplicates_ = &metrics->counter("pool.duplicates");
    hist_wait_ = &metrics->histogram("pool.wait");
  } else {
    ctr_admitted_ = nullptr;
    ctr_dropped_full_ = nullptr;
    ctr_dropped_expired_ = nullptr;
    ctr_duplicates_ = nullptr;
    hist_wait_ = nullptr;
  }
}

void TxPool::check_coherence() const {
  SRBB_CHECK(index_.size() == entries_.size());
#ifdef SRBB_PARANOID_CHECKS
  for (const Entry& entry : entries_) {
    SRBB_PARANOID(index_.contains(entry.tx->hash));
  }
#endif
}

TxPool::AddResult TxPool::add(txn::TxPtr tx, SimTime now) {
  // One probe per call: a full pool only asks, an open one inserts and
  // learns from the insert whether the hash was already there.
  const bool full = entries_.size() >= config_.capacity;
  if (full ? index_.contains(tx->hash)
           : !index_.try_emplace(tx->hash).second) {
    if (ctr_duplicates_ != nullptr) ctr_duplicates_->inc();
    return AddResult::kDuplicate;
  }
  if (full) {
    ++dropped_full_;
    if (ctr_dropped_full_ != nullptr) ctr_dropped_full_->inc();
    SRBB_TRACE(trace_, now, 0, obs_node_, "pool", "pool.drop_full", "tx",
               obs::trace_id(tx->hash));
    return AddResult::kFull;
  }
  SRBB_TRACE(trace_, now, 0, obs_node_, "pool", "pool.admit", "tx",
             obs::trace_id(tx->hash), "occupancy", entries_.size() + 1);
  entries_.push_back(Entry{std::move(tx), now});
  ++admitted_;
  if (ctr_admitted_ != nullptr) ctr_admitted_->inc();
  check_coherence();
  return AddResult::kAdded;
}

TxPool::AddBatchResult TxPool::add_batch(std::span<txn::TxPtr> txs,
                                         SimTime now) {
  AddBatchResult result;
  for (txn::TxPtr& tx : txs) {
    switch (add(std::move(tx), now)) {
      case AddResult::kAdded: ++result.added; break;
      case AddResult::kDuplicate: ++result.duplicates; break;
      case AddResult::kFull: ++result.dropped_full; break;
    }
  }
  return result;
}

std::vector<txn::TxPtr> TxPool::take_batch(std::size_t max_count,
                                           std::size_t max_bytes, SimTime now) {
  std::vector<txn::TxPtr> batch;
  std::size_t bytes = 0;
  while (!entries_.empty() && batch.size() < max_count) {
    Entry& front = entries_.front();
    if (expired(front, now)) {
      index_.erase(front.tx->hash);
      entries_.pop_front();
      ++dropped_expired_;
      if (ctr_dropped_expired_ != nullptr) ctr_dropped_expired_->inc();
      continue;
    }
    if (max_bytes != 0 && bytes + front.tx->size > max_bytes) break;
    bytes += front.tx->size;
    if (hist_wait_ != nullptr) hist_wait_->observe(now - front.added_at);
    index_.erase(front.tx->hash);
    batch.push_back(std::move(front.tx));
    entries_.pop_front();
  }
  if (!batch.empty()) {
    SRBB_TRACE(trace_, now, 0, obs_node_, "pool", "pool.take_batch", "txs",
               batch.size(), "bytes", bytes);
  }
  check_coherence();
  return batch;
}

void TxPool::remove_committed(const std::vector<Hash32>& committed) {
  if (entries_.empty() || committed.empty()) return;
  // One O(m) pass drops the committed hashes from the index, then one O(n)
  // in-place sweep drops every entry the index no longer holds. The index and
  // the deque held the same set before (check_coherence), so those entries
  // are exactly the committed ones, and the sweep keeps the order.
  std::size_t hits = 0;
  for (const Hash32& h : committed) hits += index_.erase(h);
  if (hits == 0) return;
  std::erase_if(entries_, [&](const Entry& entry) {
    return !index_.contains(entry.tx->hash);
  });
  check_coherence();
}

}  // namespace srbb::pool
