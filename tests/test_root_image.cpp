// Differential test for StateDB's root image (docs/STATE.md "The root image").
//
// state_root() patches a kept byte image from the journal instead of
// re-encoding the world state. Every program below drives a plain StateDB
// and a backend-mode one (LogBackend, two-account resident cache, so
// eviction and fault-in run) through the same random writes, and after
// every step both roots must equal the digest recomputed from public reads
// (oracle_state_root.hpp) over the program's address and slot universe.
// The programs mix account create, delete and delete-then-recreate with
// storage; slot set, zero-write erase and re-set; nested snapshot/revert;
// commit; backend reopen; and roots taken mid-transaction whose writes are
// then reverted, which only the revert_to() log can bring back.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "oracle_state_root.hpp"
#include "state/log_backend.hpp"
#include "state/statedb.hpp"

namespace srbb::state {
namespace {

constexpr std::uint64_t kAccounts = 10;
constexpr std::uint64_t kSlots = 6;

Address addr_of(std::uint64_t i) {
  Address a{};
  put_be64(a.data.data() + 12, i * 0x9e3779b97f4a7c15ull);  // spread order
  return a;
}

Hash32 slot_of(std::uint64_t i) {
  Hash32 h{};
  put_be64(h.data.data(), i * 0xbf58476d1ce4e5b9ull);
  return h;
}

Hash32 reference_root(const StateDB& db) {
  std::vector<Address> addresses;
  for (std::uint64_t i = 0; i < kAccounts; ++i) addresses.push_back(addr_of(i));
  std::vector<Hash32> slots;
  for (std::uint64_t i = 0; i < kSlots; ++i) slots.push_back(slot_of(i));
  return oracle::reference_state_root(db, addresses, slots);
}

/// One random program over a plain and a backend-mode StateDB.
class RootImageProgram {
 public:
  explicit RootImageProgram(std::uint64_t seed)
      : rng_(seed),
        path_((std::filesystem::path{::testing::TempDir()} /
               ("srbb_root_image_" + std::to_string(seed) + ".log"))
                  .string()) {
    std::filesystem::remove(path_);
    std::filesystem::remove(path_ + ".compact");
    reopen();
  }

  ~RootImageProgram() {
    backed_.reset();
    std::filesystem::remove(path_);
    std::filesystem::remove(path_ + ".compact");
  }

  void step() {
    switch (rng_.next_below(15)) {
      case 0:
      case 1:
      case 2:
      case 3:
      case 4:
      case 5:
      case 6:
      case 7:
        write();
        break;
      case 8:
      case 9:
        snapshots_.emplace_back(plain_.snapshot(), backed_->snapshot());
        break;
      case 10:
        if (!snapshots_.empty()) {
          plain_.revert_to(snapshots_.back().first);
          backed_->revert_to(snapshots_.back().second);
          snapshots_.pop_back();
        }
        break;
      case 11: {
        // A root taken mid-transaction, then a revert of the writes it saw.
        const auto plain_snap = plain_.snapshot();
        const auto backed_snap = backed_->snapshot();
        for (std::uint64_t i = 0, n = 1 + rng_.next_below(3); i < n; ++i) {
          write();
        }
        check("before revert");
        plain_.revert_to(plain_snap);
        backed_->revert_to(backed_snap);
        break;
      }
      case 12:
      case 13:
        commit();
        break;
      default:
        commit();
        reopen();
        break;
    }
    check("after step");
  }

  /// Both roots equal the reference digest of their own reads.
  void check(const char* when) {
    const Hash32 expected = reference_root(plain_);
    ASSERT_EQ(plain_.state_root(), expected) << when;
    ASSERT_EQ(reference_root(*backed_), expected) << when;
    ASSERT_EQ(backed_->state_root(), expected) << when;
  }

 private:
  void write() {
    const Address addr = addr_of(rng_.next_below(kAccounts));
    const Hash32 slot = slot_of(rng_.next_below(kSlots));
    const U256 value{1 + rng_.next_below(1000)};
    switch (rng_.next_below(9)) {
      case 0:
        both([&](StateDB& db) { db.create_account(addr); });
        break;
      case 1:
        both([&](StateDB& db) { db.add_balance(addr, value); });
        break;
      case 2:
        both([&](StateDB& db) { db.increment_nonce(addr); });
        break;
      case 3: {
        Bytes code(rng_.next_below(6));
        for (auto& b : code) b = static_cast<std::uint8_t>(rng_.next_u64());
        both([&](StateDB& db) { db.set_code(addr, code); });
        break;
      }
      case 4:
      case 5:
        // Set or re-set: the universe is small, so slots get rewritten.
        both([&](StateDB& db) { db.set_storage(addr, slot, value); });
        break;
      case 6:
        // Zero write: the slot leaves the map and must leave the image.
        both([&](StateDB& db) { db.set_storage(addr, slot, U256::zero()); });
        break;
      case 7:
        both([&](StateDB& db) { db.delete_account(addr); });
        break;
      default: {
        // Delete then recreate with storage: nothing of the old incarnation
        // may survive in the image.
        const Hash32 other = slot_of(rng_.next_below(kSlots));
        both([&](StateDB& db) {
          db.delete_account(addr);
          db.create_account(addr);
          db.set_storage(addr, other, value);
        });
        break;
      }
    }
  }

  void commit() {
    snapshots_.clear();
    plain_.commit();
    backed_->commit();
  }

  /// Reopen the backend-mode state over its log: the new StateDB starts
  /// with an empty image and must log every live account.
  void reopen() {
    backed_.reset();
    StateConfig config;
    config.snapshot_capacity = 2;
    backed_ = std::make_unique<StateDB>(config,
                                        std::make_shared<LogBackend>(path_));
  }

  template <typename Fn>
  void both(Fn fn) {
    fn(plain_);
    fn(*backed_);
  }

  Rng rng_;
  std::string path_;
  StateDB plain_;
  std::unique_ptr<StateDB> backed_;
  std::vector<std::pair<StateView::Snapshot, StateView::Snapshot>> snapshots_;
};

TEST(RootImageDifferential, MatchesReferenceOn200Programs) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RootImageProgram program{seed};
    for (int step = 0; step < 80; ++step) {
      program.step();
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// The regression the revert_to() log exists for: the image took in a write
// at a root, and the write was then undone.
TEST(RootImage, RootBetweenWriteAndRevertSeesTheUndo) {
  StateDB db;
  db.add_balance(addr_of(1), U256{5});
  db.set_storage(addr_of(1), slot_of(1), U256{7});
  db.commit();
  const Hash32 before = db.state_root();
  const auto snap = db.snapshot();
  db.add_balance(addr_of(1), U256{1});
  db.set_storage(addr_of(1), slot_of(1), U256{8});
  db.set_storage(addr_of(1), slot_of(2), U256{9});
  db.add_balance(addr_of(2), U256{3});
  EXPECT_NE(db.state_root(), before);
  db.revert_to(snap);
  EXPECT_EQ(db.state_root(), before);
  EXPECT_EQ(db.state_root(), reference_root(db));
}

// Slot keys a hot account rewrites between two roots are deduplicated, at
// the first compaction and at the root: the root merges each slot once and
// still sees its last value.
TEST(RootImage, SlotLogCompactsBetweenRoots) {
  StateDB db;
  db.set_storage(addr_of(1), slot_of(0), U256{1});
  db.commit();
  db.state_root();
  const std::uint64_t before = db.root_work().records;
  for (std::uint64_t i = 0; i < 50'000; ++i) {
    db.set_storage(addr_of(1), slot_of(i % kSlots), U256{1 + i % 7});
    if (i % 1'000 == 0) db.commit();
  }
  db.commit();
  EXPECT_EQ(db.state_root(), reference_root(db));
  EXPECT_EQ(db.root_work().records - before, 1u + kSlots);  // head + slots
}

// The work counters: a root re-encodes what changed, hashes the whole
// image, and a memoized call does neither.
TEST(RootImage, WorkCountsChangedRecordsAndHashedBytes) {
  StateDB db;
  for (std::uint64_t i = 0; i < kAccounts; ++i) {
    db.add_balance(addr_of(i), U256{i + 1});
  }
  for (std::uint64_t i = 0; i < kSlots; ++i) {
    db.set_storage(addr_of(0), slot_of(i), U256{i + 1});
  }
  db.commit();
  db.state_root();
  const StateDB::RootWork first = db.root_work();
  EXPECT_EQ(first.roots, 1u);
  EXPECT_EQ(first.records, kAccounts + kSlots);
  EXPECT_EQ(first.bytes, kAccounts * 92 + kSlots * 64);
  EXPECT_EQ(db.root_records(), kAccounts + kSlots);

  db.state_root();  // memoized
  EXPECT_EQ(db.root_work().roots, 1u);

  db.add_balance(addr_of(3), U256{1});
  db.set_storage(addr_of(0), slot_of(2), U256::zero());
  db.commit();
  db.state_root();
  const StateDB::RootWork second = db.root_work();
  EXPECT_EQ(second.roots, 2u);
  EXPECT_EQ(second.records - first.records, 2u + 1u);  // two heads, one slot
  EXPECT_EQ(second.bytes - first.bytes, kAccounts * 92 + (kSlots - 1) * 64);
  EXPECT_EQ(db.root_records(), kAccounts + kSlots - 1);
}

}  // namespace
}  // namespace srbb::state
