#include "state/statedb.hpp"

#include <algorithm>
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
}

const Hash32& empty_code_keccak() {
  static const Hash32 hash = crypto::Keccak256::hash(BytesView{});
  return hash;
}

StateDB::StateDB(StateConfig config, std::shared_ptr<StorageBackend> backend)
    : backend_(std::move(backend)) {
  SRBB_CHECK(backend_ != nullptr);
  snapshot_.set_capacity(config.snapshot_capacity);
  live_count_ = backend_->size();  // reopen: backend records are the state
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

std::vector<Address> StateDB::live_addresses() const {
  std::vector<Address> out;
  out.reserve(account_count());
  for (const auto& [addr, acc] : accounts_) out.push_back(addr);
  if (backend_ != nullptr) {
    for (const Address& addr : backend_->keys()) {
      if (!accounts_.contains(addr) && !deleted_.contains(addr)) {
        out.push_back(addr);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
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
  JournalEntry entry{.op = Op::kCodeChange, .addr = addr};
  entry.prev_code = acc.code;
  journal_.push_back(std::move(entry));
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
  entry.prev_account = *acc;
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
        acc.code = std::move(entry.prev_code);
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
        accounts_[entry.addr] = std::move(entry.prev_account);
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
  journal_.clear();
}

// --- commitment -------------------------------------------------------------

Hash32 StateDB::state_root() const {
  if (!root_dirty_) return root_cache_;
  const std::vector<Address> addresses = live_addresses();

  crypto::Sha256 root;
  Account scratch;
  std::uint8_t word[32];
  std::vector<std::pair<Hash32, const U256*>> slots;
  for (const Address& addr : addresses) {
    const Account* resolved = resolve(addr, scratch);
    SRBB_CHECK(resolved != nullptr);
    const Account& acc = *resolved;
    root.update(addr.view());
    put_be64(word, acc.nonce);
    root.update(BytesView{word, 8});
    acc.balance.to_be(word);
    root.update(BytesView{word, 32});
    root.update(acc.code.empty() ? empty_code_keccak().view()
                                 : acc.code_keccak.view());

    slots.clear();
    for (const auto& [key, value] : acc.storage) slots.emplace_back(key, &value);
    std::sort(slots.begin(), slots.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [key, value] : slots) {
      root.update(key.view());
      value->to_be(word);
      root.update(BytesView{word, 32});
    }
  }
  root_cache_ = root.finish();
  root_dirty_ = false;
  return root_cache_;
}

}  // namespace srbb::state
