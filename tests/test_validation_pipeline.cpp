// Differential tests for eager validation (DESIGN.md §11): validate() and
// validate_one() must return, for every transaction, exactly what the
// pre-pipeline monolith (oracle_eager_validate.hpp) returns — same
// accept/reject bit, same Status string — under both signature schemes:
// ed25519, whose verify_batch is the multi-scalar equation, and fast_sim,
// which every DIABLO workload runs.
#include "txn/pipeline.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "oracle_eager_validate.hpp"
#include "pool/txpool.hpp"

namespace srbb::txn {
namespace {

const crypto::SignatureScheme* const kSchemes[] = {
    &crypto::SignatureScheme::ed25519(), &crypto::SignatureScheme::fast_sim()};

struct World {
  explicit World(const crypto::SignatureScheme& s) : scheme(s) {
    db.add_balance(alice.address(), U256{10'000'000});
    db.add_balance(bob.address(), U256{10'000'000});
  }

  const crypto::SignatureScheme& scheme;
  state::StateDB db;
  ValidationConfig vcfg;
  crypto::Identity alice = scheme.make_identity(1);
  crypto::Identity bob = scheme.make_identity(2);
  crypto::Identity pauper = scheme.make_identity(77);  // zero balance

  Transaction transfer(const crypto::Identity& from, const Address& to,
                       std::uint64_t value, std::uint64_t nonce,
                       std::uint64_t gas_limit = 30'000) {
    TxParams params;
    params.nonce = nonce;
    params.to = to;
    params.value = U256{value};
    params.gas_limit = gas_limit;
    params.gas_price = U256{1};
    return make_signed(params, from, scheme);
  }

  /// One transaction per failure class the monolith can produce, plus
  /// passing ones interleaved — the full differential corpus. Items 2 and 3
  /// are the two structural failures.
  std::vector<TxPtr> mixed_corpus() {
    std::vector<TxPtr> txs;
    // Passing.
    txs.push_back(make_tx_ptr(transfer(alice, bob.address(), 100, 0)));
    // (i) corrupted signature.
    Transaction bad_sig = transfer(alice, bob.address(), 100, 1);
    bad_sig.signature[5] ^= 1;
    txs.push_back(make_tx_ptr(std::move(bad_sig)));
    // (ii) oversized wire encoding.
    TxParams big;
    big.data = Bytes(vcfg.max_tx_size + 1, 0xaa);
    big.gas_limit = 10'000'000;
    txs.push_back(make_tx_ptr(make_signed(big, alice, scheme)));
    // (ii) gas limit below the intrinsic floor.
    TxParams low_gas;
    low_gas.to = bob.address();
    low_gas.gas_limit = 20'000;
    txs.push_back(make_tx_ptr(make_signed(low_gas, alice, scheme)));
    // Passing again (ordering matters for bisection coverage).
    txs.push_back(make_tx_ptr(transfer(bob, alice.address(), 7, 0)));
    // (iii) nonce beyond the window.
    txs.push_back(make_tx_ptr(
        transfer(alice, bob.address(), 1, vcfg.nonce_window + 5)));
    // (iv)+(v) pauper cannot afford gas + value.
    txs.push_back(make_tx_ptr(transfer(pauper, bob.address(), 100, 0)));
    // (vi) invoke of a callee with no successful path (infinite loop:
    // JUMPDEST PUSH1 0 JUMP), gated by the static min-gas check.
    const Address doomed = scheme.make_identity(500).address();
    db.set_code(doomed, Bytes{0x5b, 0x60, 0x00, 0x56});
    TxParams invoke;
    invoke.kind = TxKind::kInvoke;
    invoke.to = doomed;
    invoke.gas_limit = 10'000'000;
    txs.push_back(make_tx_ptr(make_signed(invoke, alice, scheme)));
    return txs;
  }
};

void expect_matches_monolith(const ValidationPipeline& pipeline,
                             const std::vector<TxPtr>& txs, const World& w) {
  const std::vector<Status> got = pipeline.validate(txs, w.db);
  ASSERT_EQ(got.size(), txs.size());
  for (std::size_t i = 0; i < txs.size(); ++i) {
    const Status want =
        oracle::eager_validate(txs[i]->tx, w.db, w.scheme, w.vcfg);
    EXPECT_EQ(got[i].is_ok(), want.is_ok()) << "tx " << i;
    EXPECT_EQ(got[i].message(), want.message()) << "tx " << i;
    // The single-transaction path must agree too.
    const Status one = pipeline.validate_one(*txs[i], w.db);
    EXPECT_EQ(one.is_ok(), want.is_ok()) << "tx " << i;
    EXPECT_EQ(one.message(), want.message()) << "tx " << i;
  }
}

TEST(ValidationPipeline, BatchMatchesMonolithPerFailureClass) {
  for (const crypto::SignatureScheme* scheme : kSchemes) {
    SCOPED_TRACE(scheme->name());
    World w(*scheme);
    const std::vector<TxPtr> txs = w.mixed_corpus();
    const ValidationPipeline pipeline(*scheme, w.vcfg);
    expect_matches_monolith(pipeline, txs, w);
  }
}

TEST(ValidationPipeline, EmptyAndSingletonBatches) {
  for (const crypto::SignatureScheme* scheme : kSchemes) {
    SCOPED_TRACE(scheme->name());
    World w(*scheme);
    const ValidationPipeline pipeline(*scheme, w.vcfg);
    EXPECT_TRUE(pipeline.validate({}, w.db).empty());
    const std::vector<TxPtr> one = {
        make_tx_ptr(w.transfer(w.alice, w.bob.address(), 1, 0))};
    expect_matches_monolith(pipeline, one, w);
  }
}

TEST(ValidationPipeline, MixedBatchMatchesMonolith) {
  for (const crypto::SignatureScheme* scheme : kSchemes) {
    SCOPED_TRACE(scheme->name());
    World w(*scheme);
    const ValidationPipeline pipeline(*scheme, w.vcfg);
    std::vector<TxPtr> txs;
    for (std::size_t i = 0; i < 48; ++i) {
      Transaction tx = w.transfer(w.alice, w.bob.address(), 1 + i % 7, i % 11);
      if (i % 5 == 0) tx.signature[i % 64] ^= 1;  // sprinkle bad signatures
      if (i % 7 == 0) tx.signature[31] ^= 0x80;   // and corrupted R points
      txs.push_back(make_tx_ptr(std::move(tx)));
    }
    expect_matches_monolith(pipeline, txs, w);
  }
}

TEST(ValidationPipeline, StageCountersTrackPassAndFail) {
  World w(crypto::SignatureScheme::ed25519());
  obs::MetricsRegistry metrics;
  const ValidationPipeline pipeline(w.scheme, w.vcfg, &metrics);
  const std::vector<TxPtr> txs = w.mixed_corpus();
  pipeline.validate(txs, w.db);
  // Corpus: 8 txs — 2 structural failures (oversize, low gas), 1 signature
  // failure, 3 state failures (nonce window, balance, min-gas gate), 2 pass.
  EXPECT_EQ(metrics.counter("validate.stage.structural.pass").value(), 6u);
  EXPECT_EQ(metrics.counter("validate.stage.structural.fail").value(), 2u);
  EXPECT_EQ(metrics.counter("validate.stage.signature.pass").value(), 5u);
  EXPECT_EQ(metrics.counter("validate.stage.signature.fail").value(), 1u);
  EXPECT_EQ(metrics.counter("validate.stage.state.pass").value(), 2u);
  EXPECT_EQ(metrics.counter("validate.stage.state.fail").value(), 3u);
}

/// fast_sim, recording every call the pipeline makes into the scheme.
class CountingScheme final : public crypto::SignatureScheme {
 public:
  crypto::Identity make_identity(std::uint64_t id) const override {
    return inner().make_identity(id);
  }
  crypto::Signature sign(const crypto::Identity& signer,
                         BytesView message) const override {
    return inner().sign(signer, message);
  }
  bool verify(BytesView message, const crypto::Signature& signature,
              const crypto::PublicKey& public_key) const override {
    ++verify_calls;
    return inner().verify(message, signature, public_key);
  }
  std::vector<bool> verify_batch(
      std::span<const crypto::BatchVerifyItem> items) const override {
    std::vector<Bytes>& messages = batches.emplace_back();
    for (const crypto::BatchVerifyItem& item : items) {
      messages.emplace_back(item.message.begin(), item.message.end());
    }
    return inner().verify_batch(items);
  }
  const char* name() const override { return "counting"; }

  mutable std::size_t verify_calls = 0;
  mutable std::vector<std::vector<Bytes>> batches;  // messages, per call

 private:
  static const crypto::SignatureScheme& inner() {
    return crypto::SignatureScheme::fast_sim();
  }
};

// validate_one calls the single verify and never batch code, whose ed25519
// accept direction differs from verify for torsion-only defects
// (docs/PERF.md, "Soundness caveat"); validate makes one verify_batch call.
TEST(ValidationPipeline, SignatureCallShape) {
  const CountingScheme counting;
  World w(counting);
  const ValidationPipeline pipeline(counting, w.vcfg);
  const std::vector<TxPtr> txs = w.mixed_corpus();

  ASSERT_TRUE(pipeline.validate_one(*txs[0], w.db).is_ok());
  EXPECT_EQ(counting.verify_calls, 1u);
  EXPECT_TRUE(counting.batches.empty());

  // One batch, holding exactly the structurally valid items in order.
  counting.verify_calls = 0;
  pipeline.validate(txs, w.db);
  EXPECT_EQ(counting.verify_calls, 0u);
  ASSERT_EQ(counting.batches.size(), 1u);
  std::vector<Bytes> want;
  for (const std::size_t i : {0, 1, 4, 5, 6, 7}) {
    const BytesView digest = txs[i]->signing_hash.view();
    want.emplace_back(digest.begin(), digest.end());
  }
  EXPECT_EQ(counting.batches[0], want);

  // Nothing structurally valid, nothing to verify.
  counting.batches.clear();
  pipeline.validate({}, w.db);
  pipeline.validate(std::vector<TxPtr>{txs[2], txs[3]}, w.db);
  EXPECT_EQ(counting.verify_calls, 0u);
  EXPECT_TRUE(counting.batches.empty());
}

TEST(ValidationPipeline, AddBatchMatchesPerTxAdd) {
  World w(crypto::SignatureScheme::ed25519());
  pool::TxPool pool(pool::TxPoolConfig{.capacity = 6});
  std::vector<TxPtr> txs;
  for (std::size_t i = 0; i < 8; ++i) {
    txs.push_back(make_tx_ptr(w.transfer(w.alice, w.bob.address(), 1, i)));
  }
  txs.push_back(txs[0]);  // duplicate
  const auto result = pool.add_batch(txs, /*now=*/0);
  // Capacity 6: first 6 admitted, next 2 dropped full, duplicate detected.
  EXPECT_EQ(result.added, 6u);
  EXPECT_EQ(result.dropped_full, 2u);
  EXPECT_EQ(result.duplicates, 1u);
  EXPECT_EQ(pool.size(), 6u);
  EXPECT_EQ(pool.admitted(), 6u);
  EXPECT_EQ(pool.dropped_full(), 2u);
}

}  // namespace
}  // namespace srbb::txn
