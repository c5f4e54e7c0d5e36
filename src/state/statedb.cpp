#include "state/statedb.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <utility>

#include "common/invariant.hpp"
#include "crypto/keccak.hpp"
#include "crypto/sha256.hpp"

namespace srbb::state {

namespace {
const Bytes kEmptyCode;

Hash32 keccak_of_code(const Bytes& code) {
  return code.empty() ? Hash32{} : crypto::Keccak256::hash(code);
}

// Root image records (docs/STATE.md "The root image"). Every field is
// big-endian, so byte order is key order and memcmp compares keys.
constexpr std::size_t kHeadBytes = 20 + 8 + 32 + 32;  // addr nonce bal code
constexpr std::size_t kSlotBytes = 32 + 32;           // key value

/// First record at or after `lo` in `run` (`width`-byte records sorted by
/// their first `key` bytes) whose key is not below `probe`'s. Gallops from
/// `lo` before bisecting: sorted probes land near the previous one, so the
/// search stays on nearby cache lines.
std::size_t lower_bound_record(const Bytes& run, std::size_t width,
                               std::size_t key, std::size_t lo,
                               const std::uint8_t* probe) {
  const std::size_t n = run.size() / width;
  const auto below = [&](std::size_t i) {
    return std::memcmp(&run[i * width], probe, key) < 0;
  };
  std::size_t hi = lo;
  for (std::size_t step = 1; hi < n && below(hi); step *= 2) {
    lo = hi + 1;
    hi += step;
  }
  hi = std::min(hi, n);
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (below(mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Sort `keys` and drop repeats.
void sort_unique(std::vector<Hash32>& keys) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
}

/// Sorted, unique edits to a run of records: each replaces or inserts the
/// record with its key, or, when `erase` is set, removes it.
struct RunEdits {
  Bytes records;
  std::vector<bool> erase;
};

/// Apply `edits` to `run` in place. Each edit finds its place by galloping
/// search; replacements are written there, and the records between two
/// removals or two insertions move as one block, so a patch costs
/// O(edits · log run) compares plus at most one memmove pass over the run.
void patch_run(Bytes& run, std::size_t width, std::size_t key,
               const RunEdits& edits) {
  const auto at = [&](std::size_t i) { return &run[i * width]; };
  const auto edit = [&](std::size_t j) { return &edits.records[j * width]; };
  std::size_t n = run.size() / width;
  std::vector<std::size_t> erased;                           // positions
  std::vector<std::pair<std::size_t, std::size_t>> inserts;  // (pos, edit)
  std::size_t pos = 0;
  for (std::size_t j = 0; j < edits.erase.size(); ++j) {
    pos = lower_bound_record(run, width, key, pos, edit(j));
    if (pos < n && std::memcmp(at(pos), edit(j), key) == 0) {
      if (edits.erase[j]) {
        erased.push_back(pos);
      } else {
        std::memcpy(at(pos), edit(j), width);
      }
    } else if (!edits.erase[j]) {
      inserts.emplace_back(pos, j);
    }
  }
  if (!erased.empty()) {
    std::size_t out = erased[0];
    for (std::size_t k = 0; k < erased.size(); ++k) {
      const std::size_t from = erased[k] + 1;
      const std::size_t to = k + 1 < erased.size() ? erased[k + 1] : n;
      std::memmove(at(out), at(from), (to - from) * width);
      out += to - from;
    }
    n = out;
    std::size_t before = 0;  // removals left of each insertion point
    for (auto& [insert_at, j] : inserts) {
      while (before < erased.size() && erased[before] < insert_at) ++before;
      insert_at -= before;
    }
  }
  run.resize((n + inserts.size()) * width);
  // Right to left: the k-th insertion point's tail moves right by k.
  std::size_t end = n;
  for (std::size_t k = inserts.size(); k > 0; --k) {
    const auto [insert_at, j] = inserts[k - 1];
    std::memmove(at(insert_at + k), at(insert_at), (end - insert_at) * width);
    std::memcpy(at(insert_at + k - 1), edit(j), width);
    end = insert_at;
  }
}

void encode_head(const Address& addr, const Account& acc, std::uint8_t* out) {
  std::memcpy(out, addr.data.data(), 20);
  put_be64(out + 20, acc.nonce);
  acc.balance.to_be(out + 28);
  const Hash32& code_hash =
      acc.code.empty() ? empty_code_keccak() : acc.code_keccak;
  std::memcpy(out + 60, code_hash.data.data(), 32);
}

void encode_slot(const Hash32& key, const U256& value, std::uint8_t* out) {
  std::memcpy(out, key.data.data(), 32);
  value.to_be(out + 32);
}
}  // namespace

const Hash32& empty_code_keccak() {
  static const Hash32 hash = crypto::Keccak256::hash(BytesView{});
  return hash;
}

StateDB::StateDB(StateConfig config, std::shared_ptr<StorageBackend> backend)
    : backend_(std::move(backend)) {
  SRBB_CHECK(backend_ != nullptr);
  snapshot_.set_capacity(config.snapshot_capacity);
  live_count_ = backend_->size();  // reopen: backend records are the state
  // The image starts empty, so the first root encodes every record the
  // backend already holds.
  for (const Address& addr : backend_->keys()) {
    root_log_[addr].rebuild = true;
  }
}

// --- read path --------------------------------------------------------------

const Account* StateDB::find(const Address& addr) const {
  if (backend_ == nullptr) {
    const auto it = accounts_.find(addr);
    return it == accounts_.end() ? nullptr : &it->second;
  }
  return fault_in(addr);
}

const Account* StateDB::fault_in(const Address& addr) const {
  {
    std::shared_lock lock{fault_mutex_.m};
    const auto it = accounts_.find(addr);
    if (it != accounts_.end()) {
      hits_.inc();
      // Safe to return after unlock: entries are only erased at commit()
      // (eviction/deletion), never concurrently with reads.
      return &it->second;
    }
    if (deleted_.contains(addr)) {
      misses_.inc();
      return nullptr;
    }
  }
  std::unique_lock lock{fault_mutex_.m};
  // Double-check: another reader may have faulted it in meanwhile.
  const auto it = accounts_.find(addr);
  if (it != accounts_.end()) {
    hits_.inc();
    return &it->second;
  }
  if (deleted_.contains(addr)) {
    misses_.inc();
    return nullptr;
  }
  const std::optional<Bytes> record = backend_->get(addr);
  if (!record.has_value()) {
    misses_.inc();
    return nullptr;
  }
  std::optional<Account> account = decode_account_record(*record);
  // Backend records are this process's own flushes; a decode failure means
  // the backend returned bytes we never wrote.
  SRBB_CHECK(account.has_value());
  const auto inserted = accounts_.emplace(addr, std::move(*account)).first;
  snapshot_.note_resident(addr);
  faults_.inc();
  return &inserted->second;
}

const Account* StateDB::resolve(const Address& addr, Account& scratch) const {
  const auto it = accounts_.find(addr);
  if (it != accounts_.end()) return &it->second;
  if (backend_ == nullptr || deleted_.contains(addr)) return nullptr;
  const std::optional<Bytes> record = backend_->get(addr);
  if (!record.has_value()) return nullptr;
  std::optional<Account> account = decode_account_record(*record);
  SRBB_CHECK(account.has_value());
  scratch = std::move(*account);
  return &scratch;
}

bool StateDB::account_exists(const Address& addr) const {
  return find(addr) != nullptr;
}

U256 StateDB::balance(const Address& addr) const {
  const Account* acc = find(addr);
  return acc ? acc->balance : U256::zero();
}

std::uint64_t StateDB::nonce(const Address& addr) const {
  const Account* acc = find(addr);
  return acc ? acc->nonce : 0;
}

const Bytes& StateDB::code(const Address& addr) const {
  const Account* acc = find(addr);
  return acc ? acc->code : kEmptyCode;
}

Hash32 StateDB::code_keccak(const Address& addr) const {
  const Account* acc = find(addr);
  if (acc == nullptr || acc->code.empty()) return empty_code_keccak();
  return acc->code_keccak;
}

U256 StateDB::storage(const Address& addr, const Hash32& key) const {
  const Account* acc = find(addr);
  if (acc == nullptr) return U256::zero();
  const auto it = acc->storage.find(key);
  return it == acc->storage.end() ? U256::zero() : it->second;
}

void StateDB::prefetch(const Address& addr) const {
  if (backend_ != nullptr) fault_in(addr);
}

// --- write path -------------------------------------------------------------

Account& StateDB::mutable_account(const Address& addr) {
  root_dirty_ = true;  // every write path funnels through here
  if (backend_ == nullptr) {
    auto it = accounts_.find(addr);
    if (it == accounts_.end()) {
      journal_.push_back(JournalEntry{.op = Op::kCreateAccount, .addr = addr});
      it = accounts_.emplace(addr, Account{}).first;
    }
    return it->second;
  }

  snapshot_.mark_dirty(addr);
  // Fault the record in first: an account that lives only in the backend
  // must not be journaled (and reset) as a fresh creation.
  if (const Account* existing = fault_in(addr)) {
    return const_cast<Account&>(*existing);
  }
  std::unique_lock lock{fault_mutex_.m};
  journal_.push_back(JournalEntry{.op = Op::kCreateAccount,
                                  .addr = addr,
                                  .prev_tombstoned = deleted_.contains(addr)});
  const auto it = accounts_.emplace(addr, Account{}).first;
  snapshot_.note_resident(addr);
  ++live_count_;
  return it->second;
}

void StateDB::create_account(const Address& addr) { mutable_account(addr); }

void StateDB::set_balance(const Address& addr, const U256& value) {
  Account& acc = mutable_account(addr);
  journal_.push_back(JournalEntry{
      .op = Op::kBalanceChange, .addr = addr, .prev_value = acc.balance});
  acc.balance = value;
}

void StateDB::add_balance(const Address& addr, const U256& delta) {
  set_balance(addr, balance(addr) + delta);
}

bool StateDB::sub_balance(const Address& addr, const U256& delta) {
  const U256 current = balance(addr);
  if (current < delta) return false;
  set_balance(addr, current - delta);
  return true;
}

void StateDB::set_nonce(const Address& addr, std::uint64_t nonce) {
  Account& acc = mutable_account(addr);
  journal_.push_back(JournalEntry{
      .op = Op::kNonceChange, .addr = addr, .prev_nonce = acc.nonce});
  acc.nonce = nonce;
}

void StateDB::increment_nonce(const Address& addr) {
  set_nonce(addr, nonce(addr) + 1);
}

void StateDB::set_code(const Address& addr, Bytes code) {
  Account& acc = mutable_account(addr);
  journal_.push_back(
      JournalEntry{.op = Op::kCodeChange,
                   .addr = addr,
                   .saved = SavedAccount{Account{.code = acc.code}}});
  acc.code = std::move(code);
  acc.code_keccak = keccak_of_code(acc.code);
}

void StateDB::set_storage(const Address& addr, const Hash32& key,
                          const U256& value) {
  Account& acc = mutable_account(addr);
  const auto it = acc.storage.find(key);
  JournalEntry entry{.op = Op::kStorageChange, .addr = addr, .key = key};
  entry.prev_existed = it != acc.storage.end();
  if (entry.prev_existed) entry.prev_value = it->second;
  journal_.push_back(std::move(entry));
  if (value.is_zero()) {
    acc.storage.erase(key);  // zero writes clear the slot, as in the EVM
  } else {
    acc.storage[key] = value;
  }
}

void StateDB::delete_account(const Address& addr) {
  const Account* acc = find(addr);  // faults in under a backend
  if (acc == nullptr) return;
  root_dirty_ = true;
  JournalEntry entry{.op = Op::kDeleteAccount, .addr = addr};
  entry.saved = SavedAccount{*acc};
  if (backend_ == nullptr) {
    journal_.push_back(std::move(entry));
    accounts_.erase(addr);
    return;
  }
  std::unique_lock lock{fault_mutex_.m};
  // Tombstoned-but-resident happens when a recreate over a tombstone is
  // itself deleted; the undo must restore that exact intermediate state.
  entry.prev_tombstoned = deleted_.contains(addr);
  journal_.push_back(std::move(entry));
  accounts_.erase(addr);
  snapshot_.note_erased(addr);   // clears the dirty flag, so re-mark below
  snapshot_.mark_dirty(addr);    // the deletion itself must be flushed
  deleted_.insert(addr);         // fault-in must not resurrect the record
  --live_count_;
}

void StateDB::revert_to(Snapshot snapshot) {
  // Reverting to a snapshot that was never taken (or taken after writes that
  // were already reverted) means call-frame bookkeeping is corrupt.
  SRBB_CHECK(snapshot <= journal_.size());
  if (journal_.size() > snapshot) root_dirty_ = true;
  // A root taken since these writes has them in its image; the next one
  // must re-encode what the undo restores.
  log_for_root(std::span{journal_}.subspan(snapshot));
  root_logged_ = std::min(root_logged_, snapshot);
  while (journal_.size() > snapshot) {
    JournalEntry& entry = journal_.back();
    // Every undo except account (re)creation targets an account the journal
    // says exists; a miss means the journal and the map disagree. Checked
    // lookups here keep operator[] from papering over corruption by
    // silently creating empty accounts.
    const auto target = [&]() -> Account& {
      const auto it = accounts_.find(entry.addr);
      SRBB_CHECK(it != accounts_.end());
      return it->second;
    };
    switch (entry.op) {
      case Op::kCreateAccount:
        accounts_.erase(entry.addr);
        if (backend_ != nullptr) {
          snapshot_.note_erased(entry.addr);
          if (entry.prev_tombstoned) {
            // The creation resurrected a tombstoned account; undoing it
            // reinstates the tombstone, and the pending backend erase must
            // survive note_erased() having cleared the dirty flag.
            deleted_.insert(entry.addr);
            snapshot_.mark_dirty(entry.addr);
          }
          --live_count_;
        }
        break;
      case Op::kBalanceChange:
        target().balance = entry.prev_value;
        break;
      case Op::kNonceChange:
        target().nonce = entry.prev_nonce;
        break;
      case Op::kCodeChange: {
        Account& acc = target();
        acc.code = std::move(entry.saved.account->code);
        // Reverted deployments are rare; recomputing beats journaling the
        // previous hash on every set_code.
        acc.code_keccak = keccak_of_code(acc.code);
        break;
      }
      case Op::kStorageChange: {
        auto& storage = target().storage;
        if (entry.prev_existed) {
          storage[entry.key] = entry.prev_value;
        } else {
          storage.erase(entry.key);
        }
        break;
      }
      case Op::kDeleteAccount:
        // The deletion undo recreates the account, so it must be absent.
        SRBB_PARANOID(!accounts_.contains(entry.addr));
        accounts_[entry.addr] = std::move(*entry.saved.account);
        if (backend_ != nullptr) {
          snapshot_.note_resident(entry.addr);
          snapshot_.mark_dirty(entry.addr);
          // Deleting a recreated-over-tombstone account keeps the tombstone;
          // restore whichever state the deletion actually saw.
          if (entry.prev_tombstoned) {
            deleted_.insert(entry.addr);
          } else {
            deleted_.erase(entry.addr);
          }
          ++live_count_;
        }
        break;
    }
    journal_.pop_back();
  }
}

void StateDB::commit() {
  if (backend_ != nullptr) {
    // Flush every record that may have changed since the last commit. The
    // set is conservative (a write that was later reverted re-puts an
    // identical record); the order is sorted, so the backend's record
    // stream is deterministic across replicas.
    std::vector<Address> to_flush = snapshot_.take_dirty_sorted();
    if (!deleted_.empty()) {
      // Every tombstone means the backend may still hold the record; union
      // it in so a deletion whose dirty mark was consumed by journal undo
      // bookkeeping still flushes its erase.
      for (const Address& addr : deleted_) to_flush.push_back(addr);
      std::sort(to_flush.begin(), to_flush.end());
      to_flush.erase(std::unique(to_flush.begin(), to_flush.end()),
                     to_flush.end());
    }
    for (const Address& addr : to_flush) {
      const auto it = accounts_.find(addr);
      if (it != accounts_.end()) {
        backend_->put(addr, encode_account_record(it->second));
      } else {
        backend_->erase(addr);
      }
    }
    backend_->flush();
    deleted_.clear();  // flushed: the backend no longer holds these records
    for (const Address& addr : snapshot_.plan_eviction()) {
      accounts_.erase(addr);
      ++evictions_;
    }
  }
  log_for_root(std::span{journal_}.subspan(root_logged_));
  root_logged_ = 0;
  journal_.clear();
}

// --- commitment -------------------------------------------------------------

void StateDB::log_for_root(std::span<const JournalEntry> entries) const {
  for (const JournalEntry& entry : entries) {
    RootTouch& touch = root_log_[entry.addr];
    if (entry.op == Op::kCreateAccount || entry.op == Op::kDeleteAccount) {
      touch.rebuild = true;
    } else if (entry.op == Op::kStorageChange) {
      touch.slots.push_back(entry.key);
      if (touch.slots.size() >= touch.compact_at) {
        sort_unique(touch.slots);
        touch.compact_at = 2 * touch.slots.size() + RootTouch::kMinCompact;
      }
    }
  }
}

void StateDB::patch_root_image() const {
  std::vector<std::pair<Address, RootTouch*>> touched;
  touched.reserve(root_log_.size());
  for (auto& [addr, touch] : root_log_) {
    touched.emplace_back(addr, &touch);
  }
  std::sort(touched.begin(), touched.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  RunEdits heads;
  heads.records.resize(touched.size() * kHeadBytes);
  RunEdits slots;
  std::vector<std::pair<Hash32, const U256*>> sorted;
  Account scratch;
  for (std::size_t i = 0; i < touched.size(); ++i) {
    const auto& [addr, touch] = touched[i];
    std::uint8_t* head = &heads.records[i * kHeadBytes];
    const Account* acc = resolve(addr, scratch);
    heads.erase.push_back(acc == nullptr);
    if (acc == nullptr) {
      std::memcpy(head, addr.data.data(), 20);  // the key is all an erase needs
      root_slots_.erase(addr);
      continue;
    }
    encode_head(addr, *acc, head);
    ++root_work_.records;
    if (touch->rebuild) {
      // Created or deleted since the last root: its old slot run, if any,
      // belongs to a previous incarnation, so encode the storage afresh.
      sorted.clear();
      for (const auto& [key, value] : acc->storage) {
        sorted.emplace_back(key, &value);
      }
      std::sort(sorted.begin(), sorted.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      root_work_.records += sorted.size();
      if (sorted.empty()) {
        root_slots_.erase(addr);
        continue;
      }
      Bytes& run = root_slots_[addr];
      run.resize(sorted.size() * kSlotBytes);
      for (std::size_t k = 0; k < sorted.size(); ++k) {
        encode_slot(sorted[k].first, *sorted[k].second, &run[k * kSlotBytes]);
      }
    } else if (!touch->slots.empty()) {
      std::vector<Hash32>& keys = touch->slots;
      sort_unique(keys);
      slots.records.resize(keys.size() * kSlotBytes);
      slots.erase.clear();
      for (std::size_t k = 0; k < keys.size(); ++k) {
        const auto it = acc->storage.find(keys[k]);
        // A slot the map no longer holds was zeroed: it drops out.
        slots.erase.push_back(it == acc->storage.end());
        encode_slot(keys[k], slots.erase.back() ? U256::zero() : it->second,
                    &slots.records[k * kSlotBytes]);
      }
      Bytes& run = root_slots_[addr];
      patch_run(run, kSlotBytes, 32, slots);
      root_work_.records += keys.size();
      if (run.empty()) root_slots_.erase(addr);
    }
  }
  patch_run(root_heads_, kHeadBytes, 20, heads);
  root_log_.clear();
}

std::size_t StateDB::root_records() const {
  std::size_t records = root_heads_.size() / kHeadBytes;
  for (const auto& [addr, run] : root_slots_) records += run.size() / kSlotBytes;
  return records;
}

Hash32 StateDB::state_root() const {
  if (!root_dirty_) return root_cache_;
  log_for_root(std::span{journal_}.subspan(root_logged_));
  root_logged_ = journal_.size();
  patch_root_image();

  // The stream is each head followed by its account's slot run, so the
  // heads between two accounts with storage hash as one contiguous update.
  crypto::Sha256 root;
  const auto hash = [&](BytesView bytes) {
    root.update(bytes);
    root_work_.bytes += bytes.size();
  };
  const std::size_t heads = root_heads_.size() / kHeadBytes;
  std::size_t from = 0;
  for (const auto& [addr, run] : root_slots_) {
    // Only live accounts keep slot runs, so the head is there.
    const std::size_t at =
        lower_bound_record(root_heads_, kHeadBytes, 20, from, addr.data.data());
    SRBB_CHECK(at < heads && std::memcmp(&root_heads_[at * kHeadBytes],
                                         addr.data.data(), 20) == 0);
    hash(BytesView{root_heads_}.subspan(from * kHeadBytes,
                                        (at + 1 - from) * kHeadBytes));
    hash(run);
    from = at + 1;
  }
  hash(BytesView{root_heads_}.subspan(from * kHeadBytes));
  root_cache_ = root.finish();
  root_dirty_ = false;
  ++root_work_.roots;
  return root_cache_;
}

}  // namespace srbb::state
