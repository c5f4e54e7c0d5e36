// Speculative copy-on-write view over a StateDB for optimistic parallel
// execution (Block-STM / Reddio style, see DESIGN.md "Parallel execution").
//
// An OverlayState wraps an immutable base StateDB. Every read that falls
// through to the base is recorded in a value-based read-set; every write is
// buffered in a per-account overlay entry and never touches the base. After
// speculation, the commit pass calls validate() — re-reading each recorded
// key from the (by then possibly advanced) base and comparing values — and,
// on success, apply_to() replays the buffered write-set through the base's
// journaled API. If every observed value still matches, the speculative
// execution is bit-identical to a sequential execution at the commit point,
// which is the determinism argument for the parallel executor.
//
// The overlay carries its own journal so the EVM's snapshot()/revert_to()
// call-frame semantics work unchanged during speculation. Read records are
// deliberately NOT rolled back on revert: reads made inside a reverted frame
// still influenced control flow, so they must stay in the conflict set.
//
// Thread model: many OverlayStates may read one base StateDB concurrently,
// as long as nothing mutates the base meanwhile. validate()/apply_to() are
// called from a single commit thread.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/u256.hpp"
#include "state/statedb.hpp"

namespace srbb::state {

/// Conflict granularity for access sets: one scalar account field, or one
/// storage slot. Field-level keys keep e.g. a code read of a contract from
/// conflicting with a balance write to the same account.
enum class AccessField : std::uint8_t {
  kExists = 0,
  kBalance,
  kNonce,
  kCode,
  kStorage,
};

struct AccessKey {
  Address addr;
  AccessField field = AccessField::kExists;
  Hash32 slot;  // meaningful only when field == kStorage

  static AccessKey account(const Address& a, AccessField f) {
    return AccessKey{a, f, Hash32{}};
  }
  static AccessKey storage_slot(const Address& a, const Hash32& s) {
    return AccessKey{a, AccessField::kStorage, s};
  }

  friend bool operator==(const AccessKey&, const AccessKey&) = default;
  friend auto operator<=>(const AccessKey&, const AccessKey&) = default;
};

/// Sorted, deduplicated set of AccessKeys — the exchange format between the
/// overlay's observed accesses and the scheduler's predicted rw-sets.
struct AccessSet {
  std::vector<AccessKey> keys;

  void insert(const AccessKey& k);
  bool contains(const AccessKey& k) const;
  /// True when the two sorted sets share at least one key.
  bool intersects(const AccessSet& other) const;
  /// True when every key of `other` is in this set (predicted ⊇ observed).
  bool contains_all(const AccessSet& other) const;
  bool empty() const { return keys.empty(); }
  std::size_t size() const { return keys.size(); }
};

class OverlayState final : public StateView {
 public:
  explicit OverlayState(const StateDB& base) : base_(base) {}

  // --- Reads (base fall-through recorded in the read-set) ---
  bool account_exists(const Address& addr) const override;
  U256 balance(const Address& addr) const override;
  std::uint64_t nonce(const Address& addr) const override;
  const Bytes& code(const Address& addr) const override;
  Hash32 code_keccak(const Address& addr) const override;
  U256 storage(const Address& addr, const Hash32& key) const override;
  /// Forwarded to the base: faulting the record in is a cache effect, not a
  /// state read, so it does not enter the read-set.
  void prefetch(const Address& addr) const override { base_.prefetch(addr); }

  // --- Writes (buffered, journaled locally) ---
  void create_account(const Address& addr) override;
  void set_balance(const Address& addr, const U256& value) override;
  void add_balance(const Address& addr, const U256& delta) override;
  bool sub_balance(const Address& addr, const U256& delta) override;
  void set_nonce(const Address& addr, std::uint64_t nonce) override;
  void increment_nonce(const Address& addr) override;
  void set_code(const Address& addr, Bytes code) override;
  void set_storage(const Address& addr, const Hash32& key,
                   const U256& value) override;
  void delete_account(const Address& addr) override;

  // --- Journal control (local to the overlay) ---
  Snapshot snapshot() const override { return journal_.size(); }
  void revert_to(Snapshot snapshot) override;

  // --- Optimistic-concurrency protocol ---
  /// Re-read every recorded base read from `base` and compare with the value
  /// observed during speculation. True == the speculative execution is
  /// exactly what a sequential execution would produce right now.
  bool validate(const StateDB& base) const;
  /// Replay the buffered write-set onto `base` (which must be the base this
  /// overlay was built over, possibly advanced by already-committed
  /// transactions). Only meaningful after validate() returned true.
  void apply_to(StateDB& base) const;

  /// Number of distinct base reads recorded (exists/balance/nonce/code plus
  /// storage slots) — stats and tests.
  std::size_t read_set_size() const;
  /// Every base read this overlay recorded, as field-granular keys — what
  /// the scheduler's runtime guard compares against the predicted read-set.
  AccessSet observed_reads() const;
  /// Every buffered write, as field-granular keys. A masking entry (fresh
  /// create or tombstone) counts as a write to all scalar fields; buffered
  /// storage slots are listed individually.
  AccessSet observed_writes() const;
  /// True if the transaction buffered no writes (e.g. it was invalid).
  bool write_set_empty() const { return entries_.empty(); }

 private:
  // Buffered writes for one account. `masks_base` means the base account is
  // invisible (deleted, or created fresh over a non-existent base account);
  // unset optional fields fall through to the base (or to defaults when the
  // base is masked).
  struct OverlayAccount {
    bool masks_base = false;
    bool exists = true;  // only meaningful when masks_base (tombstone if false)
    std::optional<U256> balance;
    std::optional<std::uint64_t> nonce;
    std::optional<Bytes> code;
    // nullopt value == slot erased (EVM zero-write semantics).
    std::unordered_map<Hash32, std::optional<U256>, Hash32Hasher> storage;
  };

  enum class Op : std::uint8_t {
    kCreateEntry,  // undo: erase the whole overlay entry
    kBalance,      // undo: restore prev_balance
    kNonce,        // undo: restore prev_nonce
    kCode,         // undo: restore prev_code
    kStorage,      // undo: restore prev_slot (or erase)
    kWhole,        // undo: restore the whole entry (delete/recreate paths)
  };

  struct JournalEntry {
    Op op;
    Address addr;
    Hash32 key;  // kStorage
    std::optional<U256> prev_balance;
    std::optional<std::uint64_t> prev_nonce;
    std::optional<Bytes> prev_code;
    bool slot_was_buffered = false;        // kStorage: key present in overlay
    std::optional<U256> prev_slot;         // kStorage: buffered value
    std::optional<OverlayAccount> prev_whole;  // kWhole
  };

  const OverlayAccount* find(const Address& addr) const;
  /// Overlay entry for a write; consults (and records) base existence on
  /// first touch and resurrects tombstones, mirroring
  /// StateDB::mutable_account.
  OverlayAccount& touch(const Address& addr);
  bool record_exists(const Address& addr) const;

  const StateDB& base_;
  std::unordered_map<Address, OverlayAccount, AddressHasher> entries_;
  std::vector<JournalEntry> journal_;

  // Value-based read-set, deduplicated per key: the first observation wins
  // (the base is stable during speculation, so later ones are identical).
  // Mutable because reads are const on the StateView interface.
  mutable std::unordered_map<Address, bool, AddressHasher> exists_reads_;
  mutable std::unordered_map<Address, U256, AddressHasher> balance_reads_;
  mutable std::unordered_map<Address, std::uint64_t, AddressHasher>
      nonce_reads_;
  mutable std::unordered_map<Address, Bytes, AddressHasher> code_reads_;
  mutable std::unordered_map<Address,
                             std::unordered_map<Hash32, U256, Hash32Hasher>,
                             AddressHasher>
      storage_reads_;
};

}  // namespace srbb::state
