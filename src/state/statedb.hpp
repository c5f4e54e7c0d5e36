// World state with journaled mutation: every write appends an undo record so
// the EVM can snapshot before a call frame and revert on failure, exactly the
// mechanism transaction execution needs for REVERT/out-of-gas semantics.
//
// StateView is the abstract interface the EVM and the transaction executor
// run against; StateDB is the canonical backing store and OverlayState
// (overlay.hpp) is the speculative copy-on-write view the parallel executor
// uses for optimistic execution.
//
// StateDB runs in one of two modes (docs/STATE.md):
//  - Default (no backend): every account is resident in the flat map and
//    reads are lock-free — byte-for-byte the original behaviour.
//  - Backend mode (constructed with a StorageBackend): the flat map becomes
//    a bounded resident cache. Reads fault missing records in from the
//    backend under a read-write lock (safe against the parallel executor's
//    concurrent speculation reads); commit() flushes the journal-derived
//    dirty set through the backend and then evicts clean entries FIFO down
//    to StateConfig::snapshot_capacity. A StateDB reopened over the same
//    backend reproduces the flushed state exactly, including its roots.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/bytes.hpp"
#include "common/u256.hpp"
#include "state/account.hpp"
#include "state/backend.hpp"
#include "state/config.hpp"
#include "state/snapshot.hpp"

namespace srbb::state {

/// keccak256 of the empty byte string — the code hash of every EOA.
const Hash32& empty_code_keccak();

/// Abstract world-state view: the exact surface the interpreter and
/// apply_transaction need. Reads never create accounts; writes are journaled
/// so snapshot()/revert_to() give call-frame semantics.
class StateView {
 public:
  using Snapshot = std::size_t;

  virtual ~StateView() = default;

  // --- Reads (never create accounts) ---
  virtual bool account_exists(const Address& addr) const = 0;
  virtual U256 balance(const Address& addr) const = 0;
  virtual std::uint64_t nonce(const Address& addr) const = 0;
  virtual const Bytes& code(const Address& addr) const = 0;
  /// keccak256 of code(addr) (empty_code_keccak() when there is no code) —
  /// the state root's code commitment and the key the EVM analysis cache is
  /// addressed by.
  virtual Hash32 code_keccak(const Address& addr) const = 0;
  virtual U256 storage(const Address& addr, const Hash32& key) const = 0;
  /// Hint that the address is about to be read: backed states pull the
  /// record into the resident cache so the upcoming reads are flat-map
  /// hits. No-op by default and for fully resident states.
  virtual void prefetch(const Address& /*addr*/) const {}

  // --- Writes (journaled) ---
  virtual void create_account(const Address& addr) = 0;
  virtual void set_balance(const Address& addr, const U256& value) = 0;
  virtual void add_balance(const Address& addr, const U256& delta) = 0;
  /// False (no mutation) if the balance is insufficient.
  virtual bool sub_balance(const Address& addr, const U256& delta) = 0;
  virtual void set_nonce(const Address& addr, std::uint64_t nonce) = 0;
  virtual void increment_nonce(const Address& addr) = 0;
  virtual void set_code(const Address& addr, Bytes code) = 0;
  virtual void set_storage(const Address& addr, const Hash32& key,
                           const U256& value) = 0;
  /// Remove the account entirely (SELFDESTRUCT).
  virtual void delete_account(const Address& addr) = 0;

  // --- Journal control ---
  virtual Snapshot snapshot() const = 0;
  virtual void revert_to(Snapshot snapshot) = 0;
};

class StateDB final : public StateView {
 public:
  using Snapshot = StateView::Snapshot;

  /// Default mode: fully resident, no backend — the original behaviour.
  StateDB() = default;
  /// Backend mode: `backend` holds the durable records; the flat map is a
  /// resident cache bounded by config.snapshot_capacity. Existing backend
  /// records become the initial world state (reopen).
  StateDB(StateConfig config, std::shared_ptr<StorageBackend> backend);

  // Copyable for test/bench fixtures. A copy shares the backend pointer but
  // starts with a fresh lock; do not commit through two copies of a
  // backend-mode state.
  StateDB(const StateDB&) = default;
  StateDB& operator=(const StateDB&) = default;
  StateDB(StateDB&&) = default;
  StateDB& operator=(StateDB&&) = default;

  // --- Reads (never create accounts) ---
  bool account_exists(const Address& addr) const override;
  U256 balance(const Address& addr) const override;
  std::uint64_t nonce(const Address& addr) const override;
  const Bytes& code(const Address& addr) const override;
  /// O(1): returns the hash memoized by set_code (empty-code hash for
  /// code-less accounts). Pure read — safe under concurrent readers.
  Hash32 code_keccak(const Address& addr) const override;
  U256 storage(const Address& addr, const Hash32& key) const override;
  void prefetch(const Address& addr) const override;
  /// Live accounts (resident + backend-only, minus pending deletions).
  std::size_t account_count() const {
    return backend_ ? live_count_ : accounts_.size();
  }
  /// Accounts currently resident in the flat map.
  std::size_t resident_accounts() const { return accounts_.size(); }

  // --- Writes (journaled) ---
  void create_account(const Address& addr) override;
  void set_balance(const Address& addr, const U256& value) override;
  void add_balance(const Address& addr, const U256& delta) override;
  /// False (no mutation) if the balance is insufficient.
  bool sub_balance(const Address& addr, const U256& delta) override;
  void set_nonce(const Address& addr, std::uint64_t nonce) override;
  void increment_nonce(const Address& addr) override;
  void set_code(const Address& addr, Bytes code) override;
  void set_storage(const Address& addr, const Hash32& key,
                   const U256& value) override;
  /// Remove the account entirely (SELFDESTRUCT).
  void delete_account(const Address& addr) override;

  // --- Journal control ---
  Snapshot snapshot() const override { return journal_.size(); }
  void revert_to(Snapshot snapshot) override;
  /// Drop undo history (end of transaction); state stays as-is. In backend
  /// mode this is also the durability + eviction point: dirty records are
  /// flushed through the backend, then clean residents beyond
  /// snapshot_capacity are evicted FIFO.
  void commit();

  /// Deterministic digest of the entire world state: SHA-256 over, in
  /// address order, each account's address, nonce, balance and code_keccak,
  /// then its non-zero storage slots in key order. Two replicas that
  /// executed the same blocks produce identical roots; this is the only
  /// state commitment (docs/STATE.md). The hashed bytes are kept as a
  /// sorted image that each recompute patches from the journal, so a
  /// recompute costs O(changed records · log + state bytes hashed); the
  /// result is memoized and reused until the next journaled write, so
  /// back-to-back calls (oracle indexing, convergence tests) are O(1).
  /// Identical across modes for the same logical state. Not safe to call
  /// concurrently with writes or with itself.
  Hash32 state_root() const;

  /// Work done by state_root() since construction: pure functions of the
  /// writes, never host time (docs/OBSERVABILITY.md).
  struct RootWork {
    std::uint64_t roots = 0;    // recomputes (memo hits are not counted)
    std::uint64_t records = 0;  // account heads encoded + slot entries merged
    std::uint64_t bytes = 0;    // bytes fed to SHA-256
  };
  RootWork root_work() const { return root_work_; }
  /// Records the last recomputed root commits to: its live accounts plus
  /// their non-zero slots.
  std::size_t root_records() const;

  // --- introspection (obs wiring, tests) ---
  struct BackingStats {
    std::uint64_t hits = 0;       // reads served by the resident map
    std::uint64_t misses = 0;     // reads of records absent everywhere
    std::uint64_t faults = 0;     // records faulted in from the backend
    std::uint64_t evictions = 0;  // clean residents evicted at commit
  };
  BackingStats backing_stats() const {
    return {hits_.get(), misses_.get(), faults_.get(), evictions_};
  }
  StorageBackend* backend() const { return backend_.get(); }

 private:
  enum class Op : std::uint8_t {
    kCreateAccount,   // undo: erase account
    kBalanceChange,   // undo: restore prev_value
    kNonceChange,     // undo: restore prev_nonce
    kCodeChange,      // undo: restore saved.account->code
    kStorageChange,   // undo: restore prev_value / erase if !prev_existed
    kDeleteAccount,   // undo: restore *saved.account
  };

  /// Owns what a code or delete undo restores, so the other ops carry one
  /// null pointer instead of an Account and a Bytes. Copies deeply, so
  /// JournalEntry and StateDB stay copyable.
  struct SavedAccount {
    std::unique_ptr<Account> account;
    SavedAccount() = default;
    explicit SavedAccount(Account saved)
        : account(std::make_unique<Account>(std::move(saved))) {}
    SavedAccount(const SavedAccount& other)
        : account(other.account ? std::make_unique<Account>(*other.account)
                                : nullptr) {}
    SavedAccount& operator=(const SavedAccount& other) {
      account = other.account ? std::make_unique<Account>(*other.account)
                              : nullptr;
      return *this;
    }
    SavedAccount(SavedAccount&&) noexcept = default;
    SavedAccount& operator=(SavedAccount&&) noexcept = default;
  };

  struct JournalEntry {
    Op op;
    Address addr;
    Hash32 key;                 // storage ops
    U256 prev_value;            // balance / storage
    std::uint64_t prev_nonce = 0;
    bool prev_existed = false;  // storage slot existed before write
    /// Backend mode, create/delete ops: whether `addr` carried a deletion
    /// tombstone when the op ran. The undo restores the tombstone (and its
    /// pending backend-erase flush) exactly, so partial reverts of
    /// self-destruct/recreate sequences cannot resurrect stale backend
    /// records after commit clears the tombstone set.
    bool prev_tombstoned = false;
    SavedAccount saved;  // code op: the old code; delete op: the account
  };
  // A fifa_srbb call pushes ~345 k entries (docs/PERF.md §13).
  static_assert(sizeof(JournalEntry) <= 128);

  /// std::shared_mutex that copies/moves as a fresh mutex, so StateDB keeps
  /// its defaulted special members.
  struct FaultMutex {
    std::shared_mutex m;
    FaultMutex() = default;
    FaultMutex(const FaultMutex&) {}
    FaultMutex& operator=(const FaultMutex&) { return *this; }
    FaultMutex(FaultMutex&&) noexcept {}
    FaultMutex& operator=(FaultMutex&&) noexcept { return *this; }
  };

  /// Relaxed-atomic event counter (incremented under a shared lock by
  /// concurrent readers); copyable so StateDB stays copyable.
  struct RelaxedCounter {
    std::atomic<std::uint64_t> v{0};
    RelaxedCounter() = default;
    RelaxedCounter(const RelaxedCounter& o)
        : v(o.v.load(std::memory_order_relaxed)) {}
    RelaxedCounter& operator=(const RelaxedCounter& o) {
      v.store(o.v.load(std::memory_order_relaxed), std::memory_order_relaxed);
      return *this;
    }
    void inc() { v.fetch_add(1, std::memory_order_relaxed); }
    std::uint64_t get() const { return v.load(std::memory_order_relaxed); }
  };

  Account& mutable_account(const Address& addr);
  const Account* find(const Address& addr) const;
  /// Backend-mode read: resident map under a shared lock, fault-in from the
  /// backend under the exclusive lock. Returned pointers stay valid until
  /// the next commit() (eviction) or delete of that account.
  const Account* fault_in(const Address& addr) const;
  /// Resolve an account without touching the resident cache: returns the
  /// resident pointer, or decodes the backend record into `scratch`.
  const Account* resolve(const Address& addr, Account& scratch) const;

  // --- root image (docs/STATE.md "The root image") ---
  /// What the next root must re-encode for one account: always its head;
  /// its whole slot run when it was created or deleted (`rebuild`), else
  /// the slots in `slots`. `slots` may repeat keys; it is deduplicated at
  /// each root and whenever it reaches `compact_at`, so it stays bounded by
  /// the slots written. The first compaction waits for kMinCompact keys,
  /// so the slots a hot contract rewrites between two roots are sorted
  /// once, at the root, not at every doubling.
  struct RootTouch {
    static constexpr std::size_t kMinCompact = std::size_t{1} << 14;
    bool rebuild = false;
    std::vector<Hash32> slots;
    std::size_t compact_at = kMinCompact;
  };
  /// Note in the root log what `entries` touched.
  void log_for_root(std::span<const JournalEntry> entries) const;
  /// Bring the image up to the current state from the root log.
  void patch_root_image() const;

  std::shared_ptr<StorageBackend> backend_;
  // accounts_ is mutable because backend-mode fault-in populates it from
  // const reads (under fault_mutex_). Default mode never mutates it const.
  mutable std::unordered_map<Address, Account, AddressHasher> accounts_;
  mutable FaultMutex fault_mutex_;
  // Accounts deleted since the last commit: the backend still holds their
  // records, so fault-in must not resurrect them.
  mutable std::unordered_set<Address, AddressHasher> deleted_;
  mutable FlatSnapshot snapshot_;
  std::size_t live_count_ = 0;  // backend mode only
  std::vector<JournalEntry> journal_;
  // state_root() memoization: any journaled write (or revert) invalidates.
  mutable Hash32 root_cache_;
  mutable bool root_dirty_ = true;
  // The root's byte stream as of the last recompute. root_heads_ holds one
  // 92-byte head (address, nonce, balance, code hash) per live account in
  // address order; root_slots_ holds, for each account with storage, its
  // non-zero slots as 64-byte (key, value) records in key order. The stream
  // is each head followed by its account's slot run.
  mutable Bytes root_heads_;
  mutable std::map<Address, Bytes> root_slots_;
  // The root log: what changed since the last recompute, from the entries
  // commit() drops and revert_to() undoes and, for a backend reopen, every
  // live account. Keyed, so it stays bounded by the records touched.
  mutable std::unordered_map<Address, RootTouch, AddressHasher> root_log_;
  // Live journal entries [0, root_logged_) are already in the root log or
  // in the image, so commit() and state_root() log only the rest.
  mutable std::size_t root_logged_ = 0;
  mutable RootWork root_work_;
  mutable RelaxedCounter hits_;
  mutable RelaxedCounter misses_;
  mutable RelaxedCounter faults_;
  std::uint64_t evictions_ = 0;
};

}  // namespace srbb::state
