// Microbenchmarks for the cryptographic substrate. The eager-validation CPU
// cost used by the network model is calibrated from the Ed25519 verify cost
// measured here.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "crypto/ed25519.hpp"
#include "crypto/keccak.hpp"
#include "crypto/merkle.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha512.hpp"
#include "crypto/signature.hpp"

namespace {

using namespace srbb;
using namespace srbb::crypto;

Bytes make_payload(std::size_t n) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<std::uint8_t>(i);
  return out;
}

void BM_Sha256(benchmark::State& state) {
  const Bytes payload = make_payload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::hash(payload));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(256)->Arg(4096);

void BM_Sha512(benchmark::State& state) {
  const Bytes payload = make_payload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha512::hash(payload));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha512)->Arg(64)->Arg(4096);

void BM_Keccak256(benchmark::State& state) {
  const Bytes payload = make_payload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Keccak256::hash(payload));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Keccak256)->Arg(64)->Arg(256)->Arg(4096);

void BM_Ed25519_Sign(benchmark::State& state) {
  const auto kp = ed25519_keypair_from_id(1);
  const Bytes payload = make_payload(128);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ed25519_sign(payload, kp));
  }
}
BENCHMARK(BM_Ed25519_Sign);

void BM_Ed25519_Verify(benchmark::State& state) {
  const auto kp = ed25519_keypair_from_id(2);
  const Bytes payload = make_payload(128);
  const Signature sig = ed25519_sign(payload, kp);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ed25519_verify(payload, sig, kp.public_key));
  }
}
BENCHMARK(BM_Ed25519_Verify);

// --- batch verification (docs/PERF.md) -----------------------------------
// Same workload for both: n distinct (message, signature, key) triples, all
// valid — the common case on the eager-validation path. The per-item time
// is the number to compare against BM_Ed25519_Verify.

struct BatchFixture {
  std::vector<Bytes> messages;
  std::vector<BatchVerifyItem> items;
};

BatchFixture make_batch(std::size_t n) {
  BatchFixture fixture;
  const SignatureScheme& ed = SignatureScheme::ed25519();
  for (std::size_t i = 0; i < n; ++i) {
    const Identity identity = ed.make_identity(i + 1);
    fixture.messages.push_back(make_payload(128));
    fixture.messages.back()[0] = static_cast<std::uint8_t>(i);
    BatchVerifyItem item;
    item.message = BytesView{fixture.messages.back()};
    item.signature = ed.sign(identity, BytesView{fixture.messages.back()});
    item.public_key = identity.public_key;
    fixture.items.push_back(item);
  }
  return fixture;
}

void BM_Ed25519_BatchSequential(benchmark::State& state) {
  const SignatureScheme& ed = SignatureScheme::ed25519();
  const BatchFixture fixture =
      make_batch(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    for (const BatchVerifyItem& item : fixture.items) {
      benchmark::DoNotOptimize(
          ed.verify(item.message, item.signature, item.public_key));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Ed25519_BatchSequential)->Arg(1)->Arg(8)->Arg(64)->Arg(512);

void BM_Ed25519_BatchMultiScalar(benchmark::State& state) {
  const SignatureScheme& ed = SignatureScheme::ed25519();
  const BatchFixture fixture =
      make_batch(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ed.verify_batch(fixture.items));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Ed25519_BatchMultiScalar)->Arg(1)->Arg(8)->Arg(64)->Arg(512);

// Worst case for the bisection: every item invalid, forcing the fallback to
// descend to single-equation leaves (cost ~2x sequential, bounded).
void BM_Ed25519_BatchMultiScalarAllBad(benchmark::State& state) {
  const SignatureScheme& ed = SignatureScheme::ed25519();
  BatchFixture fixture = make_batch(static_cast<std::size_t>(state.range(0)));
  for (auto& item : fixture.items) item.signature[5] ^= 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ed.verify_batch(fixture.items));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Ed25519_BatchMultiScalarAllBad)->Arg(8)->Arg(64);

void BM_FastSim_SignVerify(benchmark::State& state) {
  const SignatureScheme& scheme = SignatureScheme::fast_sim();
  const Identity id = scheme.make_identity(3);
  const Bytes payload = make_payload(128);
  const Signature sig = scheme.sign(id, payload);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.verify(payload, sig, id.public_key));
  }
}
BENCHMARK(BM_FastSim_SignVerify);

void BM_MerkleRoot(benchmark::State& state) {
  std::vector<Hash32> leaves;
  for (int i = 0; i < state.range(0); ++i) {
    std::uint8_t tag[4];
    put_be32(tag, static_cast<std::uint32_t>(i));
    leaves.push_back(Sha256::hash(BytesView{tag, 4}));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(merkle_root(leaves));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MerkleRoot)->Arg(16)->Arg(256)->Arg(4096);

}  // namespace
