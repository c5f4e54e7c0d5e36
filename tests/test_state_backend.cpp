// Differential suite for the layered state stack (docs/STATE.md).
//
// The seed-configuration StateDB (fully resident, no backend) is the
// reference. Every other configuration — memory backend, tiny snapshot
// capacity, log-structured backend on disk — must produce a bit-identical
// state_root() at every commit point of a randomized journaled workload,
// across backend reopen, torn-log recovery, compaction, and
// self-destruct/recreate cycles. Every configuration's root must also equal
// the digest recomputed from public reads (oracle_state_root.hpp).
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "codec/rlp.hpp"
#include "common/rng.hpp"
#include "crypto/keccak.hpp"
#include "oracle_state_root.hpp"
#include "state/log_backend.hpp"
#include "state/overlay.hpp"
#include "state/statedb.hpp"

namespace srbb::state {
namespace {

Address addr_of(std::uint64_t i) {
  Address a{};
  put_be64(a.data.data() + 12, i);
  return a;
}

Hash32 slot_of(std::uint64_t i) {
  Hash32 h{};
  put_be64(h.data.data() + 24, i);
  return h;
}

std::string fresh_log_path(const std::string& name) {
  const std::string path =
      (std::filesystem::path{::testing::TempDir()} / name).string();
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".compact");
  return path;
}

// --- account record codec ---------------------------------------------------

TEST(AccountRecord, RoundTripsRandomAccounts) {
  Rng rng{7};
  for (int i = 0; i < 200; ++i) {
    Account account;
    account.nonce = rng.next_u64();
    account.balance = U256{rng.next_u64()};
    if (rng.next_below(2) == 0) {
      account.code.resize(rng.next_below(64));
      for (auto& b : account.code) b = static_cast<std::uint8_t>(rng.next_u64());
      account.code_keccak = account.code.empty()
                                ? Hash32{}
                                : crypto::Keccak256::hash(account.code);
    }
    const std::uint64_t slots = rng.next_below(6);
    for (std::uint64_t s = 0; s < slots; ++s) {
      account.storage[slot_of(rng.next_below(32))] = U256{1 + rng.next_u64()};
    }
    const Bytes record = encode_account_record(account);
    const std::optional<Account> decoded = decode_account_record(record);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->nonce, account.nonce);
    EXPECT_EQ(decoded->balance, account.balance);
    EXPECT_EQ(decoded->code, account.code);
    EXPECT_EQ(decoded->code_keccak, account.code_keccak);
    EXPECT_EQ(decoded->storage.size(), account.storage.size());
    for (const auto& [slot, value] : account.storage) {
      ASSERT_TRUE(decoded->storage.contains(slot));
      EXPECT_EQ(decoded->storage.at(slot), value);
    }
  }
}

TEST(AccountRecord, RejectsNonCanonicalRecords) {
  // Wrong arity.
  {
    rlp::ListBuilder three;
    three.add_u64(1);
    three.add_u64(2);
    three.add_u64(3);
    EXPECT_FALSE(decode_account_record(three.build()).has_value());
  }
  // Storage entry with a short slot.
  {
    rlp::ListBuilder entry;
    entry.add_bytes(Bytes(31, 0xAA));
    entry.add_u64(5);
    rlp::ListBuilder storage;
    storage.add_raw(entry.build());
    rlp::ListBuilder record;
    record.add_u64(0);
    record.add_u256(U256::zero());
    record.add_bytes(BytesView{});
    record.add_raw(storage.build());
    EXPECT_FALSE(decode_account_record(record.build()).has_value());
  }
  // Slots out of order (and duplicated) are both rejected.
  for (const std::uint64_t second : {std::uint64_t{1}, std::uint64_t{2}}) {
    rlp::ListBuilder storage;
    for (const std::uint64_t s : {std::uint64_t{2}, second}) {
      rlp::ListBuilder entry;
      entry.add_bytes(slot_of(s).view());
      entry.add_u256(U256{7});
      storage.add_raw(entry.build());
    }
    rlp::ListBuilder record;
    record.add_u64(0);
    record.add_u256(U256::zero());
    record.add_bytes(BytesView{});
    record.add_raw(storage.build());
    EXPECT_FALSE(decode_account_record(record.build()).has_value());
  }
  // Zero-valued slot (never representable in the flat map).
  {
    rlp::ListBuilder entry;
    entry.add_bytes(slot_of(1).view());
    entry.add_u256(U256::zero());
    rlp::ListBuilder storage;
    storage.add_raw(entry.build());
    rlp::ListBuilder record;
    record.add_u64(0);
    record.add_u256(U256::zero());
    record.add_bytes(BytesView{});
    record.add_raw(storage.build());
    EXPECT_FALSE(decode_account_record(record.build()).has_value());
  }
  // Truncated bytes.
  Account account;
  account.nonce = 9;
  Bytes record = encode_account_record(account);
  record.pop_back();
  EXPECT_FALSE(decode_account_record(record).has_value());
}

TEST(Crc32, KnownVector) {
  const std::string data = "123456789";
  EXPECT_EQ(crc32(BytesView{reinterpret_cast<const std::uint8_t*>(data.data()),
                            data.size()}),
            0xCBF43926u);
}

// --- randomized differential workload ---------------------------------------

constexpr std::uint64_t kFleetAccounts = 24;
constexpr std::uint64_t kFleetSlots = 8;

/// The reference digest over every address and slot the fleet can write.
Hash32 fleet_reference_root(const StateView& db) {
  std::vector<Address> addresses;
  for (std::uint64_t i = 0; i < kFleetAccounts; ++i) {
    addresses.push_back(addr_of(i));
  }
  std::vector<Hash32> slots;
  for (std::uint64_t i = 0; i < kFleetSlots; ++i) slots.push_back(slot_of(i));
  return oracle::reference_state_root(db, addresses, slots);
}

/// Applies one random journaled op to every db identically. Ops cover
/// create/balance/nonce/code/storage writes, SELFDESTRUCT, recreate-after-
/// destruct, snapshot/revert, and commit. Roots are checked at every commit
/// and on both sides of every revert, so a stale memo cannot hide.
class StateFleet {
 public:
  explicit StateFleet(std::vector<StateDB*> dbs) : dbs_(std::move(dbs)) {}

  void step(Rng& rng) {
    const Address addr = addr_of(rng.next_below(kFleetAccounts));
    switch (rng.next_below(12)) {
      case 0:
      case 1: {
        const U256 delta{1 + rng.next_below(1000)};
        for_each([&](StateDB& db) { db.add_balance(addr, delta); });
        break;
      }
      case 2:
        for_each([&](StateDB& db) { db.increment_nonce(addr); });
        break;
      case 3:
      case 4: {
        const Hash32 slot = slot_of(rng.next_below(kFleetSlots));
        // Zero values exercise EVM slot-clearing.
        const U256 value{rng.next_below(4) == 0 ? 0 : 1 + rng.next_u64() % 1000};
        for_each([&](StateDB& db) { db.set_storage(addr, slot, value); });
        break;
      }
      case 5: {
        Bytes code(rng.next_below(24));
        for (auto& b : code) b = static_cast<std::uint8_t>(rng.next_u64());
        for_each([&](StateDB& db) { db.set_code(addr, code); });
        break;
      }
      case 6:
        for_each([&](StateDB& db) { db.delete_account(addr); });
        break;
      case 7: {
        // Self-destruct then immediately recreate with fresh storage — the
        // old storage must not leak into the recreated account.
        const Hash32 slot = slot_of(rng.next_below(kFleetSlots));
        const U256 value{1 + rng.next_below(100)};
        for_each([&](StateDB& db) {
          db.delete_account(addr);
          db.create_account(addr);
          db.set_storage(addr, slot, value);
        });
        break;
      }
      case 8:
        snapshots_.push_back(take_snapshots());
        break;
      case 9:
        if (!snapshots_.empty()) {
          const auto snaps = snapshots_.back();
          snapshots_.pop_back();
          check_roots();
          for (std::size_t i = 0; i < dbs_.size(); ++i) {
            dbs_[i]->revert_to(snaps[i]);
          }
          check_roots();
        }
        break;
      default:
        commit_and_check();
        break;
    }
  }

  void commit_and_check() {
    snapshots_.clear();
    for_each([](StateDB& db) { db.commit(); });
    check_roots();
    for (std::size_t i = 1; i < dbs_.size(); ++i) {
      ASSERT_EQ(dbs_[i]->account_count(), dbs_[0]->account_count())
          << "db " << i;
    }
  }

  /// Every db's root equals the reference digest of its own public reads,
  /// and all dbs agree.
  void check_roots() {
    const Hash32 root = dbs_[0]->state_root();
    for (std::size_t i = 0; i < dbs_.size(); ++i) {
      ASSERT_EQ(dbs_[i]->state_root(), fleet_reference_root(*dbs_[i]))
          << "db " << i;
      ASSERT_EQ(dbs_[i]->state_root(), root) << "db " << i;
    }
  }

 private:
  template <typename Fn>
  void for_each(Fn fn) {
    for (StateDB* db : dbs_) fn(*db);
  }
  std::vector<StateView::Snapshot> take_snapshots() {
    std::vector<StateView::Snapshot> snaps;
    snaps.reserve(dbs_.size());
    for (StateDB* db : dbs_) snaps.push_back(db->snapshot());
    return snaps;
  }

  std::vector<StateDB*> dbs_;
  std::vector<std::vector<StateView::Snapshot>> snapshots_;
};

// Regression: a self-destruct followed by a recreate-over-tombstone, with the
// recreate reverted, must keep the pending backend erase. The original code
// let the create-undo's note_erased() consume the deletion's dirty mark, so
// commit() cleared the tombstone without erasing the record and the next
// fault-in resurrected the stale account (found by the differential suite).
TEST(StateBackend, RevertedRecreateOverTombstoneStillFlushesDeletion) {
  auto backend = std::make_shared<MemoryBackend>();
  StateConfig cfg;
  cfg.snapshot_capacity = 2;
  StateDB db{cfg, backend};
  StateDB reference;
  const Address victim = addr_of(7);
  for (StateDB* d : {&db, &reference}) {
    d->add_balance(victim, U256{33});
    d->set_storage(victim, slot_of(1), U256{9});
    d->commit();

    d->delete_account(victim);
    const auto mid = d->snapshot();
    d->create_account(victim);          // resurrect over the tombstone
    d->add_balance(victim, U256{1});
    d->revert_to(mid);                  // back to "deleted"
    d->commit();
    EXPECT_FALSE(d->account_exists(victim));
  }
  EXPECT_EQ(backend->get(victim), std::nullopt);
  EXPECT_EQ(db.state_root(), reference.state_root());

  // The double-delete variant: the second deletion sees a tombstoned-but-
  // resident account, and a full revert must restore the original.
  for (StateDB* d : {&db, &reference}) {
    d->add_balance(victim, U256{5});
    d->commit();
    const auto base = d->snapshot();
    d->delete_account(victim);
    d->create_account(victim);
    d->delete_account(victim);
    d->revert_to(base);
    d->commit();
    EXPECT_EQ(d->balance(victim), U256{5});
  }
  EXPECT_EQ(db.state_root(), reference.state_root());
}

class StateBackendDifferential : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(StateBackendDifferential, AllConfigurationsAgreeAtEveryCommit) {
  const std::uint64_t seed = GetParam();
  StateDB reference;  // seed configuration

  StateConfig bounded_cfg;
  bounded_cfg.snapshot_capacity = 4;
  StateDB bounded{bounded_cfg, std::make_shared<MemoryBackend>()};

  StateDB unbounded{StateConfig{}, std::make_shared<MemoryBackend>()};

  const std::string log_path =
      fresh_log_path("srbb_diff_" + std::to_string(seed) + ".log");
  StateConfig log_cfg;
  log_cfg.snapshot_capacity = 2;
  StateDB logged{log_cfg, std::make_shared<LogBackend>(log_path)};

  StateFleet fleet{{&reference, &bounded, &unbounded, &logged}};
  Rng rng{seed};
  for (int step = 0; step < 300; ++step) fleet.step(rng);
  fleet.commit_and_check();
}

INSTANTIATE_TEST_SUITE_P(Seeds, StateBackendDifferential,
                         ::testing::Range(std::uint64_t{0}, std::uint64_t{24}));

// An OverlayState must read back exactly the state that the same writes
// produce directly on a StateDB: after every op, the reference digest of the
// overlay's reads equals the mirror's state_root(), across SELFDESTRUCT,
// recreate and nested reverts. apply_to() then lands the same root on the
// base.
TEST(OverlayDifferential, ReadsMatchDirectWritesAtEveryStep) {
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    StateDB base;
    for (std::uint64_t i = 0; i < kFleetAccounts; i += 2) {
      base.add_balance(addr_of(i), U256{100 + i});
      base.set_storage(addr_of(i), slot_of(i % kFleetSlots), U256{i + 1});
      if (i % 4 == 0) {
        base.set_code(addr_of(i), Bytes{0x60, static_cast<std::uint8_t>(i)});
      }
    }
    base.commit();
    StateDB mirror = base;
    OverlayState overlay{base};
    StateView* views[] = {&overlay, &mirror};
    std::vector<std::pair<StateView::Snapshot, StateView::Snapshot>> snaps;
    Rng rng{seed};
    for (int step = 0; step < 200; ++step) {
      const Address addr = addr_of(rng.next_below(kFleetAccounts));
      switch (rng.next_below(10)) {
        case 0:
        case 1: {
          const U256 delta{1 + rng.next_below(1000)};
          for (StateView* v : views) v->add_balance(addr, delta);
          break;
        }
        case 2:
          for (StateView* v : views) v->increment_nonce(addr);
          break;
        case 3:
        case 4: {
          const Hash32 slot = slot_of(rng.next_below(kFleetSlots));
          const U256 value{rng.next_below(4) == 0 ? 0 : 1 + rng.next_below(99)};
          for (StateView* v : views) v->set_storage(addr, slot, value);
          break;
        }
        case 5: {
          Bytes code(rng.next_below(8));
          for (auto& b : code) b = static_cast<std::uint8_t>(rng.next_u64());
          for (StateView* v : views) v->set_code(addr, code);
          break;
        }
        case 6:
          for (StateView* v : views) v->delete_account(addr);
          break;
        case 7: {
          const Hash32 slot = slot_of(rng.next_below(kFleetSlots));
          for (StateView* v : views) {
            v->delete_account(addr);
            v->create_account(addr);
            v->set_storage(addr, slot, U256{7});
          }
          break;
        }
        case 8:
          snaps.emplace_back(overlay.snapshot(), mirror.snapshot());
          break;
        default:
          if (!snaps.empty()) {
            overlay.revert_to(snaps.back().first);
            mirror.revert_to(snaps.back().second);
            snaps.pop_back();
          }
          break;
      }
      ASSERT_EQ(fleet_reference_root(overlay), mirror.state_root())
          << "seed " << seed << " step " << step;
    }
    overlay.apply_to(base);
    base.commit();
    EXPECT_EQ(base.state_root(), mirror.state_root()) << "seed " << seed;
  }
}

// --- backend-mode behaviour --------------------------------------------------

TEST(StateBackend, FaultsRecordsInOnDemand) {
  auto backend = std::make_shared<MemoryBackend>();
  StateConfig cfg;
  cfg.snapshot_capacity = 1;
  StateDB db{cfg, backend};
  for (std::uint64_t i = 0; i < 8; ++i) {
    db.add_balance(addr_of(i), U256{100 + i});
  }
  db.commit();
  EXPECT_LE(db.resident_accounts(), 1u);
  EXPECT_EQ(db.account_count(), 8u);
  // Evicted accounts read back correctly through fault-in.
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(db.balance(addr_of(i)), U256{100 + i}) << i;
  }
  const StateDB::BackingStats stats = db.backing_stats();
  EXPECT_GT(stats.faults, 0u);
  EXPECT_GT(stats.evictions, 0u);
  // Reads of never-existing accounts miss everywhere.
  EXPECT_FALSE(db.account_exists(addr_of(999)));
  EXPECT_GT(db.backing_stats().misses, 0u);
}

TEST(StateBackend, PrefetchPopulatesResidentCache) {
  auto backend = std::make_shared<MemoryBackend>();
  StateConfig cfg;
  cfg.snapshot_capacity = 1;
  StateDB db{cfg, backend};
  db.add_balance(addr_of(1), U256{5});
  db.add_balance(addr_of(2), U256{6});
  db.commit();
  EXPECT_LE(db.resident_accounts(), 1u);
  db.prefetch(addr_of(1));
  db.prefetch(addr_of(2));
  EXPECT_EQ(db.resident_accounts(), 2u);  // dirty-free faults accumulate
  EXPECT_EQ(db.balance(addr_of(1)), U256{5});
}

TEST(StateBackend, DeletedAccountIsNotResurrectedByFaultIn) {
  auto backend = std::make_shared<MemoryBackend>();
  StateConfig cfg;
  cfg.snapshot_capacity = 1;
  StateDB db{cfg, backend};
  db.add_balance(addr_of(1), U256{5});
  db.add_balance(addr_of(2), U256{6});
  db.commit();  // both flushed; at most one resident
  db.delete_account(addr_of(1));
  // Before the deletion commits, the backend still holds the record; the
  // tombstone must hide it.
  EXPECT_FALSE(db.account_exists(addr_of(1)));
  EXPECT_EQ(db.account_count(), 1u);
  db.commit();
  EXPECT_FALSE(db.account_exists(addr_of(1)));
  EXPECT_EQ(backend->size(), 1u);
  // Reverted deletion restores visibility.
  db.add_balance(addr_of(2), U256{1});
  const auto snap = db.snapshot();
  db.delete_account(addr_of(2));
  EXPECT_FALSE(db.account_exists(addr_of(2)));
  db.revert_to(snap);
  EXPECT_TRUE(db.account_exists(addr_of(2)));
  EXPECT_EQ(db.balance(addr_of(2)), U256{7});
}

TEST(StateBackend, ConcurrentFaultInIsSafe) {
  // Parallel speculation faults records in concurrently through the shared
  // fault lock; the values each thread observes must be exact. Run under
  // TSan via tools/tsan_check.sh.
  auto backend = std::make_shared<MemoryBackend>();
  StateConfig cfg;
  cfg.snapshot_capacity = 16;
  StateDB db{cfg, backend};
  constexpr std::uint64_t kAccounts = 256;
  for (std::uint64_t i = 0; i < kAccounts; ++i) {
    db.add_balance(addr_of(i), U256{1000 + i});
  }
  db.commit();  // evicts down to 16 resident

  std::vector<std::thread> readers;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&db, &mismatches, t] {
      Rng rng{static_cast<std::uint64_t>(t)};
      for (int i = 0; i < 2000; ++i) {
        const std::uint64_t idx = rng.next_below(kAccounts);
        if (db.balance(addr_of(idx)) != U256{1000 + idx}) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : readers) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(db.backing_stats().faults, 0u);
}

TEST(StateBackend, OverlaySpeculationOverBackedState) {
  auto backend = std::make_shared<MemoryBackend>();
  StateConfig cfg;
  cfg.snapshot_capacity = 1;
  StateDB db{cfg, backend};
  StateDB reference;
  for (std::uint64_t i = 0; i < 6; ++i) {
    db.add_balance(addr_of(i), U256{50});
    reference.add_balance(addr_of(i), U256{50});
  }
  db.commit();
  reference.commit();

  // Speculate over the backed state: reads fault records in under the lock.
  OverlayState overlay{db};
  EXPECT_EQ(overlay.balance(addr_of(3)), U256{50});
  overlay.set_balance(addr_of(3), U256{20});
  overlay.add_balance(addr_of(4), U256{30});
  EXPECT_TRUE(overlay.validate(db));
  overlay.apply_to(db);
  db.commit();

  reference.set_balance(addr_of(3), U256{20});
  reference.add_balance(addr_of(4), U256{30});
  reference.commit();
  EXPECT_EQ(db.state_root(), reference.state_root());
}

// --- log backend: reopen, crash safety, compaction ---------------------------

TEST(LogBackendReopen, StateSurvivesCloseAndReopen) {
  const std::string path = fresh_log_path("srbb_reopen.log");
  StateDB reference;
  Hash32 root;
  {
    StateConfig cfg;
    cfg.snapshot_capacity = 3;
    StateDB db{cfg, std::make_shared<LogBackend>(path)};
    StateFleet fleet{{&reference, &db}};
    Rng rng{42};
    for (int step = 0; step < 200; ++step) fleet.step(rng);
    fleet.commit_and_check();
    root = db.state_root();
  }  // db and backend destroyed; the log file holds the state

  StateDB reopened{StateConfig{}, std::make_shared<LogBackend>(path)};
  EXPECT_EQ(reopened.state_root(), root);
  EXPECT_EQ(reopened.state_root(), fleet_reference_root(reopened));
  EXPECT_EQ(reopened.account_count(), reference.account_count());
}

TEST(LogBackendRecovery, TornTailIsDroppedOnReopen) {
  const std::string path = fresh_log_path("srbb_torn.log");
  Hash32 root;
  {
    StateDB db{StateConfig{}, std::make_shared<LogBackend>(path)};
    db.add_balance(addr_of(1), U256{11});
    db.set_storage(addr_of(1), slot_of(1), U256{7});
    db.add_balance(addr_of(2), U256{22});
    db.commit();
    root = db.state_root();
  }
  // A crash mid-append leaves a torn suffix.
  {
    std::ofstream out{path, std::ios::binary | std::ios::app};
    const char garbage[] = {0x00, 0x14, 0x00};  // looks like a frame start
    out.write(garbage, sizeof garbage);
  }
  auto backend = std::make_shared<LogBackend>(path);
  EXPECT_GT(backend->stats().torn_bytes_dropped, 0u);
  StateDB reopened{StateConfig{}, backend};
  EXPECT_EQ(reopened.state_root(), root);
}

TEST(LogBackendRecovery, CorruptFinalRecordRollsBackToPreviousFlush) {
  const std::string path = fresh_log_path("srbb_corrupt.log");
  Hash32 root_before_last;
  std::uint64_t bytes_before_last = 0;
  {
    StateDB db{StateConfig{}, std::make_shared<LogBackend>(path)};
    db.add_balance(addr_of(1), U256{11});
    db.commit();
    root_before_last = db.state_root();
    bytes_before_last = static_cast<LogBackend*>(db.backend())->file_bytes();
    db.add_balance(addr_of(2), U256{22});
    db.commit();
  }
  // Flip the last byte (inside the final record's CRC): that record must be
  // dropped, restoring exactly the previous durable state.
  {
    std::fstream file{path, std::ios::binary | std::ios::in | std::ios::out};
    file.seekp(-1, std::ios::end);
    file.put('\x5A');
  }
  auto backend = std::make_shared<LogBackend>(path);
  EXPECT_GT(backend->stats().torn_bytes_dropped, 0u);
  EXPECT_EQ(backend->file_bytes(), bytes_before_last);
  StateDB reopened{StateConfig{}, backend};
  EXPECT_EQ(reopened.state_root(), root_before_last);
  EXPECT_FALSE(reopened.account_exists(addr_of(2)));
}

TEST(LogBackendCompaction, DropsSupersededRecordsAndPreservesState) {
  const std::string path = fresh_log_path("srbb_compact.log");
  auto backend = std::make_shared<LogBackend>(path);
  StateDB db{StateConfig{}, backend};
  for (int round = 0; round < 20; ++round) {
    db.add_balance(addr_of(1), U256{1});
    db.add_balance(addr_of(2), U256{2});
    db.commit();
  }
  db.delete_account(addr_of(2));
  db.commit();
  const Hash32 root = db.state_root();
  const std::uint64_t before = backend->file_bytes();
  backend->compact();
  EXPECT_LT(backend->file_bytes(), before);
  EXPECT_EQ(backend->stats().compactions, 1u);
  EXPECT_EQ(db.state_root(), root);
  EXPECT_EQ(db.balance(addr_of(1)), U256{20});
  EXPECT_FALSE(db.account_exists(addr_of(2)));

  // The compacted file reopens to the same state.
  backend.reset();
  StateDB reopened{StateConfig{}, std::make_shared<LogBackend>(path)};
  EXPECT_EQ(reopened.state_root(), root);
}

}  // namespace
}  // namespace srbb::state
