// Tests for the paper's eager/lazy validation split (§II-B) and the
// execute(t) semantics of Alg. 1 lines 32-40. Eager checks run through
// ValidationPipeline::validate_one, the path validator nodes take.
#include "txn/validation.hpp"

#include <gtest/gtest.h>

#include "evm/contracts.hpp"
#include "txn/executor.hpp"
#include "txn/pipeline.hpp"

namespace srbb::txn {
namespace {

const crypto::SignatureScheme& scheme() {
  return crypto::SignatureScheme::ed25519();
}

struct World {
  state::StateDB db;
  evm::BlockContext block;
  ValidationConfig vcfg;
  crypto::Identity alice = scheme().make_identity(1);
  crypto::Identity bob = scheme().make_identity(2);

  World() {
    db.add_balance(alice.address(), U256{10'000'000});
    db.add_balance(bob.address(), U256{10'000'000});
    block.coinbase = scheme().make_identity(99).address();
  }

  Transaction transfer(const crypto::Identity& from, const Address& to,
                       std::uint64_t value, std::uint64_t nonce) {
    TxParams params;
    params.nonce = nonce;
    params.to = to;
    params.value = U256{value};
    params.gas_limit = 30'000;
    params.gas_price = U256{1};
    return make_signed(params, from, scheme());
  }

  Status eager(const Transaction& tx) const {
    return ValidationPipeline(scheme(), vcfg)
        .validate_one(*make_tx_ptr(tx), db);
  }
};

TEST(EagerValidation, AcceptsWellFormed) {
  World w;
  const Transaction tx = w.transfer(w.alice, w.bob.address(), 100, 0);
  EXPECT_TRUE(w.eager(tx).is_ok());
}

TEST(EagerValidation, RejectsBadSignature) {
  World w;
  Transaction tx = w.transfer(w.alice, w.bob.address(), 100, 0);
  tx.signature[5] ^= 1;
  const Status s = w.eager(tx);
  EXPECT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("signature"), std::string::npos);
}

TEST(EagerValidation, RejectsOversized) {
  World w;
  TxParams params;
  params.data = Bytes(w.vcfg.max_tx_size + 1, 0xaa);
  params.gas_limit = 10'000'000;
  const Transaction tx = make_signed(params, w.alice, scheme());
  const Status s = w.eager(tx);
  EXPECT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("size"), std::string::npos);
}

TEST(EagerValidation, RejectsStaleNonce) {
  World w;
  w.db.set_nonce(w.alice.address(), 5);
  const Transaction tx = w.transfer(w.alice, w.bob.address(), 100, 4);
  EXPECT_FALSE(w.eager(tx).is_ok());
}

TEST(EagerValidation, AcceptsFutureNonceInWindow) {
  World w;
  const Transaction tx = w.transfer(w.alice, w.bob.address(), 100, 10);
  EXPECT_TRUE(w.eager(tx).is_ok());
}

TEST(EagerValidation, RejectsNonceBeyondWindow) {
  World w;
  const Transaction tx =
      w.transfer(w.alice, w.bob.address(), 100, w.vcfg.nonce_window + 1);
  EXPECT_FALSE(w.eager(tx).is_ok());
}

TEST(EagerValidation, RejectsInsufficientBalance) {
  World w;
  // The flooding-attack construction from §V-B: sender balance is zero.
  const Transaction tx = w.transfer(scheme().make_identity(77),
                                    w.bob.address(), 100, 0);
  const Status s = w.eager(tx);
  EXPECT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("balance"), std::string::npos);
}

TEST(EagerValidation, RejectsGasBelowIntrinsic) {
  World w;
  TxParams params;
  params.gas_limit = 20'000;  // below the 21000 floor
  params.to = w.bob.address();
  const Transaction tx = make_signed(params, w.alice, scheme());
  EXPECT_FALSE(w.eager(tx).is_ok());
}

TEST(LazyValidation, RequiresExactNonce) {
  World w;
  EXPECT_TRUE(
      lazy_validate(w.transfer(w.alice, w.bob.address(), 1, 0), w.db).is_ok());
  EXPECT_FALSE(
      lazy_validate(w.transfer(w.alice, w.bob.address(), 1, 1), w.db).is_ok());
  w.db.set_nonce(w.alice.address(), 3);
  EXPECT_TRUE(
      lazy_validate(w.transfer(w.alice, w.bob.address(), 1, 3), w.db).is_ok());
  EXPECT_FALSE(
      lazy_validate(w.transfer(w.alice, w.bob.address(), 1, 2), w.db).is_ok());
}

TEST(LazyValidation, DoesNotCheckSignature) {
  World w;
  Transaction tx = w.transfer(w.alice, w.bob.address(), 100, 0);
  tx.signature[0] ^= 0xff;  // lazy validation is weaker than eager (§II-B)
  EXPECT_TRUE(lazy_validate(tx, w.db).is_ok());
}

TEST(EagerValidation, SizeBoundaryIsInclusive) {
  World w;
  // Find a data size whose wire encoding lands exactly at the limit: build
  // one tx, measure overhead, then construct at/over the boundary.
  // Probe with data large enough that the RLP length headers have the same
  // width as at the limit (both > 65535 bytes -> 3-byte lengths).
  TxParams probe;
  probe.gas_limit = 10'000'000;
  probe.data = Bytes(100'000, 0xaa);
  const std::size_t overhead =
      make_signed(probe, w.alice, scheme()).wire_size() - 100'000;
  TxParams at_limit;
  at_limit.gas_limit = 10'000'000;
  at_limit.data = Bytes(w.vcfg.max_tx_size - overhead, 0xaa);
  const Transaction ok_tx = make_signed(at_limit, w.alice, scheme());
  ASSERT_EQ(ok_tx.wire_size(), w.vcfg.max_tx_size);
  EXPECT_TRUE(w.eager(ok_tx).is_ok());

  at_limit.data.push_back(0xaa);
  const Transaction big_tx = make_signed(at_limit, w.alice, scheme());
  EXPECT_FALSE(w.eager(big_tx).is_ok());
}

TEST(EagerValidation, BalanceMustCoverGasPlusValueExactly) {
  World w;
  // Give a fresh account exactly gas*price + value.
  const crypto::Identity tight = scheme().make_identity(71);
  w.db.add_balance(tight.address(), U256{21'000 * 2 + 500});
  TxParams params;
  params.gas_limit = 21'000;
  params.gas_price = U256{2};
  params.to = w.bob.address();
  params.value = U256{500};
  const Transaction exact = make_signed(params, tight, scheme());
  EXPECT_TRUE(w.eager(exact).is_ok());
  params.value = U256{501};
  const Transaction over = make_signed(params, tight, scheme());
  EXPECT_FALSE(w.eager(over).is_ok());
}

TEST(IntrinsicGas, CountsDataBytes) {
  World w;
  TxParams params;
  params.data = Bytes{0x00, 0x00, 0x01, 0x02};
  const Transaction tx = make_signed(params, w.alice, scheme());
  EXPECT_EQ(intrinsic_gas(tx), 21'000u + 2 * 4 + 2 * 16);
}

TEST(IntrinsicGas, DeploySurcharge) {
  World w;
  TxParams params;
  params.kind = TxKind::kDeploy;
  const Transaction tx = make_signed(params, w.alice, scheme());
  EXPECT_EQ(intrinsic_gas(tx), 21'000u + 32'000u);
}

// Every CachedTx constructor memoizes the free function's value: transfer,
// invoke and deploy, with and without zero and non-zero calldata bytes.
TEST(IntrinsicGas, CachedTxMemoizesIt) {
  World w;
  const Bytes calldatas[] = {{}, {0x00, 0x00}, {0x01, 0xff}, {0x00, 0x07, 0x00}};
  for (const TxKind kind :
       {TxKind::kTransfer, TxKind::kInvoke, TxKind::kDeploy}) {
    for (const Bytes& data : calldatas) {
      TxParams params;
      params.kind = kind;
      params.to = w.bob.address();
      params.data = data;
      const Transaction tx = make_signed(params, w.alice, scheme());
      const std::uint64_t expected = intrinsic_gas(tx);
      EXPECT_EQ(make_tx_ptr(tx)->intrinsic_gas, expected);
      EXPECT_EQ(make_tx_ptr(tx, tx.encode())->intrinsic_gas, expected);
      EXPECT_EQ(make_signed_tx(params, w.alice, scheme())->intrinsic_gas,
                expected);
    }
  }
}

// --- execution ---

TEST(Executor, TransferMovesValueAndChargesGas) {
  World w;
  const U256 alice_before = w.db.balance(w.alice.address());
  const Transaction tx = w.transfer(w.alice, w.bob.address(), 1000, 0);
  ExecutionConfig cfg;
  auto receipt = apply_transaction(tx, w.db, w.block, cfg);
  ASSERT_TRUE(receipt.is_ok()) << receipt.message();
  EXPECT_TRUE(receipt.value().success);
  EXPECT_EQ(receipt.value().gas_used, 21'000u);
  EXPECT_EQ(w.db.balance(w.bob.address()), U256{10'001'000});
  EXPECT_EQ(w.db.balance(w.alice.address()),
            alice_before - U256{1000} - U256{21'000});
  EXPECT_EQ(w.db.nonce(w.alice.address()), 1u);
  // Coinbase earned the fee.
  EXPECT_EQ(w.db.balance(w.block.coinbase), U256{21'000});
}

TEST(Executor, InvalidSignatureIsExecutionError) {
  World w;
  Transaction tx = w.transfer(w.alice, w.bob.address(), 1000, 0);
  tx.signature[3] ^= 1;
  ExecutionConfig cfg;
  auto receipt = apply_transaction(tx, w.db, w.block, cfg);
  EXPECT_FALSE(receipt.is_ok());
  EXPECT_NE(receipt.message().find("ErrInvalidSig"), std::string::npos);
  // No state transition for invalid transactions.
  EXPECT_EQ(w.db.nonce(w.alice.address()), 0u);
  EXPECT_EQ(w.db.balance(w.bob.address()), U256{10'000'000});
}

TEST(Executor, WrongNonceIsInvalidNoTransition) {
  World w;
  const Transaction tx = w.transfer(w.alice, w.bob.address(), 1000, 5);
  ExecutionConfig cfg;
  auto receipt = apply_transaction(tx, w.db, w.block, cfg);
  EXPECT_FALSE(receipt.is_ok());
  EXPECT_EQ(w.db.balance(w.bob.address()), U256{10'000'000});
}

TEST(Executor, ZeroBalanceSenderIsInvalid) {
  World w;
  const Transaction tx =
      w.transfer(scheme().make_identity(55), w.bob.address(), 1, 0);
  ExecutionConfig cfg;
  auto receipt = apply_transaction(tx, w.db, w.block, cfg);
  EXPECT_FALSE(receipt.is_ok());
}

TEST(Executor, DeployInvokeEndToEnd) {
  World w;
  // Deploy the counter.
  TxParams deploy;
  deploy.kind = TxKind::kDeploy;
  deploy.nonce = 0;
  deploy.gas_limit = 5'000'000;
  deploy.data = evm::counter_contract().deploy_code;
  const Transaction dtx = make_signed(deploy, w.alice, scheme());
  ExecutionConfig cfg;
  auto dreceipt = apply_transaction(dtx, w.db, w.block, cfg);
  ASSERT_TRUE(dreceipt.is_ok()) << dreceipt.message();
  ASSERT_TRUE(dreceipt.value().success);
  const Address counter = dreceipt.value().contract_address;
  EXPECT_FALSE(counter.is_zero());
  EXPECT_EQ(w.db.code(counter), evm::counter_contract().runtime_code);

  // Invoke increment twice.
  for (std::uint64_t n = 1; n <= 2; ++n) {
    TxParams invoke;
    invoke.kind = TxKind::kInvoke;
    invoke.nonce = n;
    invoke.gas_limit = 200'000;
    invoke.to = counter;
    invoke.data = evm::encode_call("increment()", {});
    const Transaction itx = make_signed(invoke, w.alice, scheme());
    auto ireceipt = apply_transaction(itx, w.db, w.block, cfg);
    ASSERT_TRUE(ireceipt.is_ok());
    EXPECT_TRUE(ireceipt.value().success);
  }
  EXPECT_EQ(w.db.storage(counter, U256{0}.to_hash()), U256{2});
}

TEST(Executor, RevertedInvokeStillConsumesGasAndNonce) {
  World w;
  TxParams deploy;
  deploy.kind = TxKind::kDeploy;
  deploy.gas_limit = 5'000'000;
  deploy.data = evm::ticketing_contract().deploy_code;
  const Transaction dtx = make_signed(deploy, w.alice, scheme());
  ExecutionConfig cfg;
  auto dreceipt = apply_transaction(dtx, w.db, w.block, cfg);
  ASSERT_TRUE(dreceipt.is_ok());
  const Address tix = dreceipt.value().contract_address;

  // Alice buys seat (1,1); Bob tries the same seat -> revert.
  TxParams buy;
  buy.kind = TxKind::kInvoke;
  buy.nonce = 1;
  buy.gas_limit = 200'000;
  buy.to = tix;
  buy.data = evm::encode_call("buy(uint256,uint256)", {U256{1}, U256{1}});
  ASSERT_TRUE(apply_transaction(make_signed(buy, w.alice, scheme()), w.db,
                                w.block, cfg)
                  .is_ok());
  buy.nonce = 0;
  auto bob_receipt = apply_transaction(make_signed(buy, w.bob, scheme()), w.db,
                                       w.block, cfg);
  ASSERT_TRUE(bob_receipt.is_ok());  // valid transaction...
  EXPECT_FALSE(bob_receipt.value().success);  // ...that reverted
  EXPECT_GT(bob_receipt.value().gas_used, 21'000u);
  EXPECT_EQ(w.db.nonce(w.bob.address()), 1u);  // nonce still consumed
}

TEST(Executor, GasRefundForUnusedGas) {
  World w;
  TxParams params;
  params.nonce = 0;
  params.to = w.bob.address();
  params.value = U256{1};
  params.gas_limit = 500'000;  // way more than needed
  params.gas_price = U256{2};
  const Transaction tx = make_signed(params, w.alice, scheme());
  const U256 before = w.db.balance(w.alice.address());
  ExecutionConfig cfg;
  auto receipt = apply_transaction(tx, w.db, w.block, cfg);
  ASSERT_TRUE(receipt.is_ok());
  // Charged only for gas_used at gas_price 2, not the full limit.
  EXPECT_EQ(w.db.balance(w.alice.address()),
            before - U256{1} - U256{2 * 21'000});
}

// The CachedTx overloads (the commit path's) against the Transaction
// overloads (which derive every digest themselves), over each outcome class
// execute(t) distinguishes, under both signature schemes: identical statuses,
// error strings, receipts and state roots after every transaction.
TEST(Executor, CachedTxOverloadMatchesTransactionOverload) {
  for (const crypto::SignatureScheme* s :
       {&crypto::SignatureScheme::ed25519(),
        &crypto::SignatureScheme::fast_sim()}) {
    SCOPED_TRACE(s->name());
    const crypto::Identity alice = s->make_identity(1);
    const crypto::Identity bob = s->make_identity(2);
    state::StateDB via_tx;
    state::StateDB via_cached;
    for (state::StateDB* db : {&via_tx, &via_cached}) {
      db->add_balance(alice.address(), U256{10'000'000});
      db->add_balance(bob.address(), U256{10'000'000});
    }
    evm::BlockContext block;
    block.coinbase = s->make_identity(99).address();
    ExecutionConfig cfg;
    cfg.scheme = s;

    auto transfer = [&](const crypto::Identity& from, std::uint64_t nonce,
                        std::uint64_t gas_limit) {
      TxParams params;
      params.nonce = nonce;
      params.to = bob.address();
      params.value = U256{1000};
      params.gas_limit = gas_limit;
      return make_signed(params, from, *s);
    };
    auto run = [&](const Transaction& tx, bool expect_ok) {
      const TxPtr cached = make_tx_ptr(tx);
      const Status lazy_tx = lazy_validate(tx, via_tx);
      const Status lazy_cached = lazy_validate(*cached, via_cached);
      EXPECT_EQ(lazy_tx.is_ok(), lazy_cached.is_ok());
      EXPECT_EQ(lazy_tx.message(), lazy_cached.message());
      const Result<Receipt> a = apply_transaction(tx, via_tx, block, cfg);
      const Result<Receipt> b =
          apply_transaction(*cached, via_cached, block, cfg);
      EXPECT_EQ(a.is_ok(), expect_ok) << a.message();
      EXPECT_EQ(a.is_ok(), b.is_ok());
      EXPECT_EQ(a.message(), b.message());
      if (a.is_ok() && b.is_ok()) {
        EXPECT_EQ(a.value().tx_hash, b.value().tx_hash);
        EXPECT_EQ(a.value().tx_hash, tx.hash());
        EXPECT_EQ(a.value().success, b.value().success);
        EXPECT_EQ(a.value().gas_used, b.value().gas_used);
        EXPECT_EQ(a.value().contract_address, b.value().contract_address);
        EXPECT_EQ(a.value().logs.size(), b.value().logs.size());
      }
      EXPECT_EQ(via_tx.state_root(), via_cached.state_root());
      return a;
    };

    run(transfer(alice, 0, 30'000), true);  // valid transfer
    Transaction bad_sig = transfer(alice, 1, 30'000);
    bad_sig.signature[3] ^= 1;
    EXPECT_NE(run(bad_sig, false).message().find("ErrInvalidSig"),
              std::string::npos);
    run(transfer(alice, 7, 30'000), false);                    // wrong nonce
    run(transfer(alice, 1, 20'000), false);                    // low gas
    run(transfer(s->make_identity(55), 0, 30'000), false);     // no balance

    TxParams deploy;
    deploy.kind = TxKind::kDeploy;
    deploy.nonce = 1;
    deploy.gas_limit = 5'000'000;
    deploy.data = evm::ticketing_contract().deploy_code;
    const Result<Receipt> deployed =
        run(make_signed(deploy, alice, *s), true);
    ASSERT_TRUE(deployed.is_ok());
    ASSERT_TRUE(deployed.value().success);

    TxParams buy;
    buy.kind = TxKind::kInvoke;
    buy.nonce = 2;
    buy.gas_limit = 200'000;
    buy.to = deployed.value().contract_address;
    buy.data = evm::encode_call("buy(uint256,uint256)", {U256{1}, U256{1}});
    EXPECT_TRUE(run(make_signed(buy, alice, *s), true).value().success);
    buy.nonce = 0;  // Bob buys the same seat: valid, but reverts
    EXPECT_FALSE(run(make_signed(buy, bob, *s), true).value().success);
  }
}

}  // namespace
}  // namespace srbb::txn
