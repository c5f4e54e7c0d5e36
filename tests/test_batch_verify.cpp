// Adversarial tests for true batch ed25519 verification: the multi-scalar
// combined equation with deterministic bisection must return results
// positionally identical to one verify() per item on every composition —
// single bad items anywhere in the batch, all-bad batches, malleable and
// non-canonical encodings.
#include "crypto/signature.hpp"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "common/u256.hpp"
#include "crypto/ed25519.hpp"

namespace srbb::crypto {
namespace {

const SignatureScheme& scheme() { return SignatureScheme::ed25519(); }

struct Batch {
  std::vector<Bytes> messages;  // storage the item views alias
  std::vector<BatchVerifyItem> items;

  void add(std::uint64_t signer, const std::string& text) {
    const Identity identity = scheme().make_identity(signer);
    messages.push_back(Bytes(text.begin(), text.end()));
    BatchVerifyItem item;
    item.message = BytesView{messages.back()};
    item.signature = scheme().sign(identity, BytesView{messages.back()});
    item.public_key = identity.public_key;
    items.push_back(item);
  }
};

/// The reference: one independent verify() per item.
std::vector<bool> sequential(const SignatureScheme& scheme,
                             std::span<const BatchVerifyItem> items) {
  std::vector<bool> results;
  for (const BatchVerifyItem& item : items) {
    results.push_back(
        scheme.verify(item.message, item.signature, item.public_key));
  }
  return results;
}

/// The multi-scalar batch, bisection fallback included, must agree with the
/// sequential reference bit for bit.
void expect_batch_matches(const Batch& batch, const std::vector<bool>& want) {
  EXPECT_EQ(sequential(scheme(), batch.items), want);
  EXPECT_EQ(scheme().verify_batch(batch.items), want);
}

Batch good_batch(std::size_t n) {
  Batch batch;
  for (std::size_t i = 0; i < n; ++i) {
    batch.add(i + 1, "message " + std::to_string(i));
  }
  return batch;
}

TEST(BatchVerifyAdversarial, EmptyBatch) {
  Batch batch;
  expect_batch_matches(batch, {});
}

TEST(BatchVerifyAdversarial, SingletonGoodAndBad) {
  Batch good = good_batch(1);
  expect_batch_matches(good, {true});
  Batch bad = good_batch(1);
  bad.items[0].signature[3] ^= 1;
  expect_batch_matches(bad, {false});
}

TEST(BatchVerifyAdversarial, AllGood) {
  expect_batch_matches(good_batch(9), std::vector<bool>(9, true));
}

TEST(BatchVerifyAdversarial, OneBadAtEveryPosition) {
  // The bisection must isolate a single corrupted item wherever it sits —
  // first, last, and every interior index (covering both halves at every
  // split depth of an 8-item batch).
  for (std::size_t bad = 0; bad < 8; ++bad) {
    Batch batch = good_batch(8);
    batch.items[bad].signature[17] ^= 0x40;
    std::vector<bool> want(8, true);
    want[bad] = false;
    expect_batch_matches(batch, want);
  }
}

TEST(BatchVerifyAdversarial, TwoBadInOppositeHalves) {
  Batch batch = good_batch(8);
  batch.items[1].signature[0] ^= 1;
  batch.items[6].signature[0] ^= 1;
  std::vector<bool> want(8, true);
  want[1] = want[6] = false;
  expect_batch_matches(batch, want);
}

TEST(BatchVerifyAdversarial, AllBad) {
  Batch batch = good_batch(7);
  for (auto& item : batch.items) item.signature[9] ^= 1;
  expect_batch_matches(batch, std::vector<bool>(7, false));
}

TEST(BatchVerifyAdversarial, WrongKeyAndWrongMessage) {
  Batch batch = good_batch(6);
  // Swap two public keys: both items fail, everything else passes.
  std::swap(batch.items[0].public_key, batch.items[5].public_key);
  // Tamper one message (storage stays alive; the view still aliases it).
  batch.messages[2][0] ^= 0xff;
  std::vector<bool> want(6, true);
  want[0] = want[2] = want[5] = false;
  expect_batch_matches(batch, want);
}

TEST(BatchVerifyAdversarial, MalleableScalarRejected) {
  // s' = s + L is the classic malleability vector: it satisfies the curve
  // equation but fails the canonical s < L check, so single verify rejects
  // it and the batch path must too (it never reaches the combined
  // equation — the precheck excludes the item deterministically).
  const U256 kL{0x5812631a5cf5d3edULL, 0x14def9dea2f79cd6ULL, 0,
                0x1000000000000000ULL};
  Batch batch = good_batch(5);
  std::uint8_t* s_le = batch.items[2].signature.data() + 32;
  std::uint8_t be[32];
  for (int i = 0; i < 32; ++i) be[i] = s_le[31 - i];
  const U256 sum = U256::from_be(BytesView{be, 32}) + kL;  // s + L < 2^256
  sum.to_be(be);
  for (int i = 0; i < 32; ++i) s_le[i] = be[31 - i];
  std::vector<bool> want(5, true);
  want[2] = false;
  expect_batch_matches(batch, want);
}

TEST(BatchVerifyAdversarial, NonCanonicalPointEncodings) {
  Batch batch = good_batch(4);
  // R bytes that decode to no curve point (all 0xff: y >= p with high bit as
  // sign — decompression fails).
  for (std::size_t i = 0; i < 32; ++i) batch.items[1].signature[i] = 0xff;
  // Public key that is not a curve point either.
  for (std::size_t i = 0; i < 31; ++i) batch.items[3].public_key[i] = 0xff;
  batch.items[3].public_key[31] = 0x7f;
  std::vector<bool> want(4, true);
  want[1] = want[3] = false;
  expect_batch_matches(batch, want);
}

TEST(BatchVerifyAdversarial, DeterministicAcrossRuns) {
  Batch batch = good_batch(8);
  batch.items[3].signature[1] ^= 1;
  batch.items[4].public_key[0] ^= 1;
  const std::vector<bool> first = scheme().verify_batch(batch.items);
  for (int run = 0; run < 5; ++run) {
    EXPECT_EQ(scheme().verify_batch(batch.items), first);
  }
  EXPECT_EQ(first, sequential(scheme(), batch.items));
}

TEST(BatchVerifyAdversarial, LargeMixedBatch) {
  Batch batch = good_batch(64);
  std::vector<bool> want(64, true);
  for (std::size_t i = 0; i < 64; i += 7) {
    batch.items[i].signature[i % 64] ^= 1;
    want[i] = false;
  }
  expect_batch_matches(batch, want);
}

TEST(BatchVerifyAdversarial, FastSimSchemeBatchesToo) {
  // The sim-speed scheme's default verify_batch (a plain loop) must honour
  // the same contract, so pipeline tests over fast_sim stay meaningful.
  const SignatureScheme& fast = SignatureScheme::fast_sim();
  std::vector<Bytes> messages;
  std::vector<BatchVerifyItem> items;
  for (std::size_t i = 0; i < 6; ++i) {
    const Identity identity = fast.make_identity(i + 1);
    messages.push_back(Bytes{static_cast<std::uint8_t>(i), 0xab});
    BatchVerifyItem item;
    item.message = BytesView{messages.back()};
    item.signature = fast.sign(identity, BytesView{messages.back()});
    item.public_key = identity.public_key;
    items.push_back(item);
  }
  items[4].signature[0] ^= 1;
  std::vector<bool> want(6, true);
  want[4] = false;
  EXPECT_EQ(fast.verify_batch(items), want);
  EXPECT_EQ(sequential(fast, items), want);
}

}  // namespace
}  // namespace srbb::crypto
