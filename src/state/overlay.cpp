#include "state/overlay.hpp"

#include <algorithm>

#include "common/invariant.hpp"
#include "crypto/keccak.hpp"

namespace srbb::state {

namespace {
const Bytes kEmptyCode;
}

void AccessSet::insert(const AccessKey& k) {
  const auto it = std::lower_bound(keys.begin(), keys.end(), k);
  if (it != keys.end() && *it == k) return;
  keys.insert(it, k);
}

bool AccessSet::contains(const AccessKey& k) const {
  return std::binary_search(keys.begin(), keys.end(), k);
}

bool AccessSet::intersects(const AccessSet& other) const {
  auto a = keys.begin();
  auto b = other.keys.begin();
  while (a != keys.end() && b != other.keys.end()) {
    if (*a == *b) return true;
    if (*a < *b) {
      ++a;
    } else {
      ++b;
    }
  }
  return false;
}

bool AccessSet::contains_all(const AccessSet& other) const {
  return std::includes(keys.begin(), keys.end(), other.keys.begin(),
                       other.keys.end());
}

const OverlayState::OverlayAccount* OverlayState::find(
    const Address& addr) const {
  const auto it = entries_.find(addr);
  return it == entries_.end() ? nullptr : &it->second;
}

bool OverlayState::record_exists(const Address& addr) const {
  const bool exists = base_.account_exists(addr);
  exists_reads_.try_emplace(addr, exists);
  return exists;
}

bool OverlayState::account_exists(const Address& addr) const {
  if (const OverlayAccount* acc = find(addr)) {
    return acc->masks_base ? acc->exists : true;
  }
  return record_exists(addr);
}

U256 OverlayState::balance(const Address& addr) const {
  if (const OverlayAccount* acc = find(addr)) {
    if (acc->balance) return *acc->balance;
    if (acc->masks_base) return U256::zero();
  }
  const U256 value = base_.balance(addr);
  balance_reads_.try_emplace(addr, value);
  return value;
}

std::uint64_t OverlayState::nonce(const Address& addr) const {
  if (const OverlayAccount* acc = find(addr)) {
    if (acc->nonce) return *acc->nonce;
    if (acc->masks_base) return 0;
  }
  const std::uint64_t value = base_.nonce(addr);
  nonce_reads_.try_emplace(addr, value);
  return value;
}

const Bytes& OverlayState::code(const Address& addr) const {
  if (const OverlayAccount* acc = find(addr)) {
    if (acc->code) return *acc->code;
    if (acc->masks_base) return kEmptyCode;
  }
  const Bytes& value = base_.code(addr);
  code_reads_.try_emplace(addr, value);
  return value;
}

Hash32 OverlayState::code_keccak(const Address& addr) const {
  // Route through code() so the read lands in the read-set even when the
  // hash itself comes from the base's memo.
  const Bytes& c = code(addr);
  if (c.empty()) return empty_code_keccak();
  const OverlayAccount* acc = find(addr);
  if (acc != nullptr && acc->code) return crypto::Keccak256::hash(c);
  return base_.code_keccak(addr);
}

U256 OverlayState::storage(const Address& addr, const Hash32& key) const {
  if (const OverlayAccount* acc = find(addr)) {
    const auto it = acc->storage.find(key);
    if (it != acc->storage.end()) {
      return it->second ? *it->second : U256::zero();
    }
    if (acc->masks_base) return U256::zero();
  }
  const U256 value = base_.storage(addr, key);
  storage_reads_[addr].try_emplace(key, value);
  return value;
}

OverlayState::OverlayAccount& OverlayState::touch(const Address& addr) {
  auto it = entries_.find(addr);
  if (it == entries_.end()) {
    // The fresh-vs-existing decision depends on base state, so it is a read.
    const bool base_exists = record_exists(addr);
    journal_.push_back(JournalEntry{.op = Op::kCreateEntry, .addr = addr});
    it = entries_.emplace(addr, OverlayAccount{}).first;
    if (!base_exists) it->second.masks_base = true;
    return it->second;
  }
  OverlayAccount& acc = it->second;
  if (acc.masks_base && !acc.exists) {
    // Writing to a locally deleted account resurrects it empty, mirroring
    // StateDB::mutable_account after delete_account.
    JournalEntry entry{.op = Op::kWhole, .addr = addr};
    entry.prev_whole = acc;
    journal_.push_back(std::move(entry));
    acc = OverlayAccount{};
    acc.masks_base = true;
  }
  return acc;
}

void OverlayState::create_account(const Address& addr) { touch(addr); }

void OverlayState::set_balance(const Address& addr, const U256& value) {
  OverlayAccount& acc = touch(addr);
  journal_.push_back(JournalEntry{
      .op = Op::kBalance, .addr = addr, .prev_balance = acc.balance});
  acc.balance = value;
}

void OverlayState::add_balance(const Address& addr, const U256& delta) {
  set_balance(addr, balance(addr) + delta);
}

bool OverlayState::sub_balance(const Address& addr, const U256& delta) {
  const U256 current = balance(addr);
  if (current < delta) return false;
  set_balance(addr, current - delta);
  return true;
}

void OverlayState::set_nonce(const Address& addr, std::uint64_t nonce) {
  OverlayAccount& acc = touch(addr);
  journal_.push_back(
      JournalEntry{.op = Op::kNonce, .addr = addr, .prev_nonce = acc.nonce});
  acc.nonce = nonce;
}

void OverlayState::increment_nonce(const Address& addr) {
  set_nonce(addr, nonce(addr) + 1);
}

void OverlayState::set_code(const Address& addr, Bytes code) {
  OverlayAccount& acc = touch(addr);
  JournalEntry entry{.op = Op::kCode, .addr = addr};
  entry.prev_code = std::move(acc.code);
  journal_.push_back(std::move(entry));
  acc.code = std::move(code);
}

void OverlayState::set_storage(const Address& addr, const Hash32& key,
                               const U256& value) {
  OverlayAccount& acc = touch(addr);
  const auto it = acc.storage.find(key);
  JournalEntry entry{.op = Op::kStorage, .addr = addr, .key = key};
  entry.slot_was_buffered = it != acc.storage.end();
  if (entry.slot_was_buffered) entry.prev_slot = it->second;
  journal_.push_back(std::move(entry));
  if (value.is_zero()) {
    acc.storage[key] = std::nullopt;  // erase marker (EVM zero-write)
  } else {
    acc.storage[key] = value;
  }
}

void OverlayState::delete_account(const Address& addr) {
  if (!account_exists(addr)) return;  // mirrors StateDB::delete_account
  auto it = entries_.find(addr);
  if (it == entries_.end()) {
    journal_.push_back(JournalEntry{.op = Op::kCreateEntry, .addr = addr});
    it = entries_.emplace(addr, OverlayAccount{}).first;
  } else {
    JournalEntry entry{.op = Op::kWhole, .addr = addr};
    entry.prev_whole = it->second;
    journal_.push_back(std::move(entry));
  }
  it->second = OverlayAccount{};
  it->second.masks_base = true;
  it->second.exists = false;
}

void OverlayState::revert_to(Snapshot snapshot) {
  SRBB_CHECK(snapshot <= journal_.size());
  while (journal_.size() > snapshot) {
    JournalEntry& entry = journal_.back();
    const auto it = entries_.find(entry.addr);
    // Every undo except entry creation dereferences the overlay entry the
    // journal recorded the write against; a miss means journal/entry
    // bookkeeping diverged and the deref below would be undefined behaviour.
    SRBB_CHECK(entry.op == Op::kCreateEntry || it != entries_.end());
    switch (entry.op) {
      case Op::kCreateEntry:
        entries_.erase(entry.addr);
        break;
      case Op::kBalance:
        it->second.balance = entry.prev_balance;
        break;
      case Op::kNonce:
        it->second.nonce = entry.prev_nonce;
        break;
      case Op::kCode:
        it->second.code = std::move(entry.prev_code);
        break;
      case Op::kStorage:
        if (entry.slot_was_buffered) {
          it->second.storage[entry.key] = entry.prev_slot;
        } else {
          it->second.storage.erase(entry.key);
        }
        break;
      case Op::kWhole:
        it->second = std::move(*entry.prev_whole);
        break;
    }
    journal_.pop_back();
  }
}

bool OverlayState::validate(const StateDB& base) const {
  for (const auto& [addr, exists] : exists_reads_) {
    if (base.account_exists(addr) != exists) return false;
  }
  for (const auto& [addr, value] : balance_reads_) {
    if (base.balance(addr) != value) return false;
  }
  for (const auto& [addr, value] : nonce_reads_) {
    if (base.nonce(addr) != value) return false;
  }
  for (const auto& [addr, value] : code_reads_) {
    if (base.code(addr) != value) return false;
  }
  for (const auto& [addr, slots] : storage_reads_) {
    for (const auto& [key, value] : slots) {
      if (base.storage(addr, key) != value) return false;
    }
  }
  return true;
}

void OverlayState::apply_to(StateDB& base) const {
  // apply_to is only meaningful for an overlay whose read-set still matches
  // the base; committing a stale overlay silently diverges the replica.
  SRBB_PARANOID(validate(base));
  // Replay in address order (and storage in key order) so the base's journal
  // and account-creation sequence are canonical rather than hash-map
  // iteration order; the commit path stays bitwise-replayable.
  std::vector<Address> addresses;
  addresses.reserve(entries_.size());
  for (const auto& [addr, acc] : entries_) addresses.push_back(addr);
  std::sort(addresses.begin(), addresses.end());
  for (const Address& addr : addresses) {
    const OverlayAccount& acc = entries_.at(addr);
    if (acc.masks_base) {
      base.delete_account(addr);  // no-op when the base never had it
      if (!acc.exists) continue;  // tombstone: deletion was the write
      base.create_account(addr);
    }
    if (acc.balance) base.set_balance(addr, *acc.balance);
    if (acc.nonce) base.set_nonce(addr, *acc.nonce);
    if (acc.code) base.set_code(addr, *acc.code);
    std::vector<Hash32> keys;
    keys.reserve(acc.storage.size());
    for (const auto& [key, value] : acc.storage) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    for (const Hash32& key : keys) {
      const std::optional<U256>& value = acc.storage.at(key);
      base.set_storage(addr, key, value ? *value : U256::zero());
    }
  }
}

AccessSet OverlayState::observed_reads() const {
  AccessSet out;
  for (const auto& [addr, v] : exists_reads_) {
    out.insert(AccessKey::account(addr, AccessField::kExists));
  }
  for (const auto& [addr, v] : balance_reads_) {
    out.insert(AccessKey::account(addr, AccessField::kBalance));
  }
  for (const auto& [addr, v] : nonce_reads_) {
    out.insert(AccessKey::account(addr, AccessField::kNonce));
  }
  for (const auto& [addr, v] : code_reads_) {
    out.insert(AccessKey::account(addr, AccessField::kCode));
  }
  for (const auto& [addr, slots] : storage_reads_) {
    for (const auto& [key, v] : slots) {
      out.insert(AccessKey::storage_slot(addr, key));
    }
  }
  return out;
}

AccessSet OverlayState::observed_writes() const {
  AccessSet out;
  for (const auto& [addr, acc] : entries_) {
    if (acc.masks_base) {
      // Fresh create or tombstone: existence changed and every scalar field
      // was (re)defined relative to the base.
      out.insert(AccessKey::account(addr, AccessField::kExists));
      out.insert(AccessKey::account(addr, AccessField::kBalance));
      out.insert(AccessKey::account(addr, AccessField::kNonce));
      out.insert(AccessKey::account(addr, AccessField::kCode));
    }
    if (acc.balance) out.insert(AccessKey::account(addr, AccessField::kBalance));
    if (acc.nonce) out.insert(AccessKey::account(addr, AccessField::kNonce));
    if (acc.code) out.insert(AccessKey::account(addr, AccessField::kCode));
    for (const auto& [key, v] : acc.storage) {
      out.insert(AccessKey::storage_slot(addr, key));
    }
  }
  return out;
}

std::size_t OverlayState::read_set_size() const {
  std::size_t n = exists_reads_.size() + balance_reads_.size() +
                  nonce_reads_.size() + code_reads_.size();
  for (const auto& [addr, slots] : storage_reads_) n += slots.size();
  return n;
}

}  // namespace srbb::state
