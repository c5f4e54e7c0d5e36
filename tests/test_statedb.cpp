#include "state/statedb.hpp"

#include <gtest/gtest.h>

#include "crypto/keccak.hpp"
#include "state/overlay.hpp"

namespace srbb::state {
namespace {

Address addr(std::uint8_t tag) {
  Address a;
  a[19] = tag;
  return a;
}

Hash32 key(std::uint8_t tag) {
  Hash32 k;
  k[31] = tag;
  return k;
}

TEST(StateDB, MissingAccountReadsAreZero) {
  StateDB db;
  EXPECT_FALSE(db.account_exists(addr(1)));
  EXPECT_EQ(db.balance(addr(1)), U256::zero());
  EXPECT_EQ(db.nonce(addr(1)), 0u);
  EXPECT_TRUE(db.code(addr(1)).empty());
  EXPECT_EQ(db.storage(addr(1), key(1)), U256::zero());
}

TEST(StateDB, BalanceLifecycle) {
  StateDB db;
  db.add_balance(addr(1), U256{100});
  EXPECT_TRUE(db.account_exists(addr(1)));
  EXPECT_EQ(db.balance(addr(1)), U256{100});
  EXPECT_TRUE(db.sub_balance(addr(1), U256{30}));
  EXPECT_EQ(db.balance(addr(1)), U256{70});
  EXPECT_FALSE(db.sub_balance(addr(1), U256{71}));
  EXPECT_EQ(db.balance(addr(1)), U256{70});  // unchanged on failure
}

TEST(StateDB, NonceIncrement) {
  StateDB db;
  db.increment_nonce(addr(2));
  db.increment_nonce(addr(2));
  EXPECT_EQ(db.nonce(addr(2)), 2u);
}

TEST(StateDB, CodeAndHash) {
  StateDB db;
  const Bytes code{0x60, 0x01};
  db.set_code(addr(3), code);
  EXPECT_EQ(db.code(addr(3)), code);
  EXPECT_EQ(db.code_keccak(addr(3)), crypto::Keccak256::hash(BytesView{code}));
  EXPECT_NE(db.code_keccak(addr(3)), db.code_keccak(addr(4)));  // vs empty
}

TEST(StateDB, StorageZeroWriteClearsSlot) {
  StateDB db;
  db.set_storage(addr(1), key(1), U256{9});
  EXPECT_EQ(db.storage(addr(1), key(1)), U256{9});
  db.set_storage(addr(1), key(1), U256::zero());
  EXPECT_EQ(db.storage(addr(1), key(1)), U256::zero());
}

TEST(StateDB, DeleteAccount) {
  StateDB db;
  db.add_balance(addr(5), U256{10});
  db.set_storage(addr(5), key(1), U256{1});
  db.delete_account(addr(5));
  EXPECT_FALSE(db.account_exists(addr(5)));
  EXPECT_EQ(db.storage(addr(5), key(1)), U256::zero());
}

TEST(StateDBJournal, RevertUndoesEverything) {
  StateDB db;
  db.add_balance(addr(1), U256{100});
  db.commit();
  const Hash32 base_root = db.state_root();

  const auto snap = db.snapshot();
  db.add_balance(addr(1), U256{5});
  db.increment_nonce(addr(1));
  db.set_code(addr(2), Bytes{0x01});
  db.set_storage(addr(1), key(7), U256{7});
  db.create_account(addr(9));
  db.delete_account(addr(1));
  db.revert_to(snap);

  EXPECT_EQ(db.state_root(), base_root);
  EXPECT_EQ(db.balance(addr(1)), U256{100});
  EXPECT_EQ(db.nonce(addr(1)), 0u);
  EXPECT_FALSE(db.account_exists(addr(2)));
  EXPECT_FALSE(db.account_exists(addr(9)));
}

TEST(StateDBJournal, NestedSnapshots) {
  StateDB db;
  db.add_balance(addr(1), U256{10});
  const auto outer = db.snapshot();
  db.add_balance(addr(1), U256{10});
  const auto inner = db.snapshot();
  db.add_balance(addr(1), U256{10});
  EXPECT_EQ(db.balance(addr(1)), U256{30});
  db.revert_to(inner);
  EXPECT_EQ(db.balance(addr(1)), U256{20});
  db.revert_to(outer);
  EXPECT_EQ(db.balance(addr(1)), U256{10});
}

TEST(StateDBJournal, RevertRestoresDeletedAccountFully) {
  StateDB db;
  db.add_balance(addr(1), U256{10});
  db.set_storage(addr(1), key(1), U256{5});
  db.set_code(addr(1), Bytes{0xaa});
  db.commit();
  const auto snap = db.snapshot();
  db.delete_account(addr(1));
  db.revert_to(snap);
  EXPECT_EQ(db.balance(addr(1)), U256{10});
  EXPECT_EQ(db.storage(addr(1), key(1)), U256{5});
  EXPECT_EQ(db.code(addr(1)), (Bytes{0xaa}));
}

TEST(StateDBJournal, CommitMakesChangesPermanentAgainstRevert) {
  StateDB db;
  const auto snap = db.snapshot();
  db.add_balance(addr(1), U256{10});
  db.commit();
  db.revert_to(snap);  // no-op: journal is empty after commit
  EXPECT_EQ(db.balance(addr(1)), U256{10});
}

TEST(StateDBJournal, RevertStorageToPreviousNonZero) {
  StateDB db;
  db.set_storage(addr(1), key(1), U256{1});
  db.commit();
  const auto snap = db.snapshot();
  db.set_storage(addr(1), key(1), U256{2});
  db.set_storage(addr(1), key(1), U256::zero());
  db.revert_to(snap);
  EXPECT_EQ(db.storage(addr(1), key(1)), U256{1});
}

TEST(StateRoot, DeterministicAcrossInsertionOrder) {
  StateDB a;
  StateDB b;
  // Insert the same accounts in opposite orders.
  for (int i = 0; i < 20; ++i) {
    a.add_balance(addr(static_cast<std::uint8_t>(i)), U256{static_cast<std::uint64_t>(i)});
    a.set_storage(addr(static_cast<std::uint8_t>(i)), key(1), U256{7});
  }
  for (int i = 19; i >= 0; --i) {
    b.set_storage(addr(static_cast<std::uint8_t>(i)), key(1), U256{7});
    b.add_balance(addr(static_cast<std::uint8_t>(i)), U256{static_cast<std::uint64_t>(i)});
  }
  EXPECT_EQ(a.state_root(), b.state_root());
}

TEST(StateRoot, SensitiveToEveryField) {
  StateDB base;
  base.add_balance(addr(1), U256{1});
  const Hash32 root = base.state_root();

  StateDB balance_diff;
  balance_diff.add_balance(addr(1), U256{2});
  EXPECT_NE(balance_diff.state_root(), root);

  StateDB nonce_diff;
  nonce_diff.add_balance(addr(1), U256{1});
  nonce_diff.increment_nonce(addr(1));
  EXPECT_NE(nonce_diff.state_root(), root);

  StateDB code_diff;
  code_diff.add_balance(addr(1), U256{1});
  code_diff.set_code(addr(1), Bytes{0x00});
  EXPECT_NE(code_diff.state_root(), root);

  StateDB storage_diff;
  storage_diff.add_balance(addr(1), U256{1});
  storage_diff.set_storage(addr(1), key(1), U256{1});
  EXPECT_NE(storage_diff.state_root(), root);

  StateDB addr_diff;
  addr_diff.add_balance(addr(2), U256{1});
  EXPECT_NE(addr_diff.state_root(), root);
}

TEST(StateRoot, EmptyStatesAgree) {
  StateDB a;
  StateDB b;
  EXPECT_EQ(a.state_root(), b.state_root());
}

TEST(StateRoot, MemoizedRootTracksWritesAndReverts) {
  // state_root() is cached until the next journaled write; the cached value
  // must stay indistinguishable from a fresh recompute.
  StateDB db;
  db.add_balance(addr(1), U256{5});
  const Hash32 first = db.state_root();
  EXPECT_EQ(db.state_root(), first);  // cache hit, same digest
  db.add_balance(addr(2), U256{9});
  const Hash32 second = db.state_root();
  EXPECT_NE(second, first);
  const auto snap = db.snapshot();
  db.set_storage(addr(2), key(1), U256{3});
  EXPECT_NE(db.state_root(), second);
  db.revert_to(snap);  // revert must invalidate the cache too
  EXPECT_EQ(db.state_root(), second);
  db.delete_account(addr(2));
  EXPECT_EQ(db.state_root(), first);
}

TEST(StateDB, CodeKeccakIsMemoizedBySetCode) {
  StateDB db;
  EXPECT_EQ(db.code_keccak(addr(1)), empty_code_keccak());  // no account
  const Bytes code{0x60, 0x01, 0x00};
  db.set_code(addr(1), code);
  EXPECT_EQ(db.code_keccak(addr(1)),
            crypto::Keccak256::hash(BytesView{code}));
  // Overwriting code refreshes the memo.
  const Bytes other{0x60, 0x02, 0x00};
  db.set_code(addr(1), other);
  EXPECT_EQ(db.code_keccak(addr(1)),
            crypto::Keccak256::hash(BytesView{other}));
}

TEST(StateDB, CodeKeccakSurvivesRevert) {
  StateDB db;
  const Bytes before{0x60, 0x01, 0x00};
  db.set_code(addr(1), before);
  const auto snap = db.snapshot();
  db.set_code(addr(1), Bytes{0xfe});
  db.revert_to(snap);
  EXPECT_EQ(db.code(addr(1)), before);
  EXPECT_EQ(db.code_keccak(addr(1)),
            crypto::Keccak256::hash(BytesView{before}));
}

TEST(Overlay, CodeKeccakRoutesThroughBuffer) {
  StateDB base;
  const Bytes base_code{0x60, 0x01, 0x00};
  base.set_code(addr(1), base_code);
  OverlayState overlay{base};
  // Unmodified account: overlay serves the base memo.
  EXPECT_EQ(overlay.code_keccak(addr(1)),
            crypto::Keccak256::hash(BytesView{base_code}));
  // Buffered write: the overlay hashes its pending code, base untouched.
  const Bytes pending{0x60, 0x02, 0x00};
  overlay.set_code(addr(1), pending);
  EXPECT_EQ(overlay.code_keccak(addr(1)),
            crypto::Keccak256::hash(BytesView{pending}));
  EXPECT_EQ(base.code_keccak(addr(1)),
            crypto::Keccak256::hash(BytesView{base_code}));
  // Code-less address: the canonical empty-code hash.
  EXPECT_EQ(overlay.code_keccak(addr(9)), empty_code_keccak());
}

TEST(StateDbInvariants, RevertToStaleSnapshotAborts) {
  // SRBB_CHECK (common/invariant.hpp) turns an out-of-range revert — a
  // corrupted snapshot token — into an immediate abort instead of silent
  // journal corruption.
  StateDB db;
  db.add_balance(addr(1), U256{5});
  const auto bogus = db.snapshot() + 17;
  EXPECT_DEATH(db.revert_to(bogus), "SRBB_CHECK");
}

}  // namespace
}  // namespace srbb::state
