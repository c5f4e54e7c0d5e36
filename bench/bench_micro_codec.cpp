// Microbenchmarks for the wire codec: the copying RLP decoder against the
// zero-copy view parser, and the transaction / block / superblock decode
// paths built on them (docs/PERF.md).
#include <benchmark/benchmark.h>

#include <vector>

#include "codec/rlp.hpp"
#include "oracle_tx_decode.hpp"
#include "txn/block.hpp"
#include "txn/transaction.hpp"

namespace {

using namespace srbb;

const crypto::SignatureScheme& scheme() {
  return crypto::SignatureScheme::fast_sim();
}

txn::Transaction make_tx(std::size_t i, std::size_t data_size) {
  txn::TxParams params;
  params.nonce = i;
  params.gas_limit = 60'000;
  params.data = Bytes(data_size, static_cast<std::uint8_t>(i));
  return txn::make_signed(params, scheme().make_identity(i % 16 + 1), scheme());
}

Bytes nested_rlp() {
  // A representative frame: a list of 64 transaction-shaped strings.
  rlp::ListBuilder list;
  for (std::size_t i = 0; i < 64; ++i) list.add_bytes(make_tx(i, 100).encode());
  return list.build();
}

void BM_RlpDecodeCopying(benchmark::State& state) {
  const Bytes wire = nested_rlp();
  for (auto _ : state) {
    benchmark::DoNotOptimize(rlp::decode(wire));
  }
  state.SetBytesProcessed(state.iterations() * wire.size());
}
BENCHMARK(BM_RlpDecodeCopying);

void BM_RlpDecodeView(benchmark::State& state) {
  const Bytes wire = nested_rlp();
  rlp::ViewDoc doc;  // arena reused across frames, as the node does
  for (auto _ : state) {
    benchmark::DoNotOptimize(rlp::decode_view(wire, doc));
  }
  state.SetBytesProcessed(state.iterations() * wire.size());
}
BENCHMARK(BM_RlpDecodeView);

void BM_TxDecodeCopying(benchmark::State& state) {
  const Bytes wire = make_tx(7, static_cast<std::size_t>(state.range(0))).encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(txn::oracle::decode_copying(wire));
  }
  state.SetBytesProcessed(state.iterations() * wire.size());
}
BENCHMARK(BM_TxDecodeCopying)->Arg(0)->Arg(256)->Arg(4096);

void BM_TxDecodeView(benchmark::State& state) {
  const Bytes wire = make_tx(7, static_cast<std::size_t>(state.range(0))).encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(txn::Transaction::decode(wire));
  }
  state.SetBytesProcessed(state.iterations() * wire.size());
}
BENCHMARK(BM_TxDecodeView)->Arg(0)->Arg(256)->Arg(4096);

txn::Block make_bench_block(std::size_t tx_count) {
  std::vector<txn::TxPtr> txs;
  for (std::size_t i = 0; i < tx_count; ++i) {
    txs.push_back(txn::make_tx_ptr(make_tx(i, 100)));
  }
  return txn::make_block(1, 0, 0, Hash32{}, std::move(txs),
                         scheme().make_identity(1), scheme());
}

void BM_BlockDecode(benchmark::State& state) {
  const Bytes wire =
      txn::encode_block(make_bench_block(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(txn::decode_block(wire));
  }
  state.SetBytesProcessed(state.iterations() * wire.size());
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BlockDecode)->Arg(16)->Arg(256);

void BM_SuperblockDecode(benchmark::State& state) {
  std::vector<txn::BlockPtr> blocks;
  for (int b = 0; b < 4; ++b) {
    blocks.push_back(std::make_shared<const txn::Block>(
        make_bench_block(static_cast<std::size_t>(state.range(0)))));
  }
  const Bytes wire = txn::encode_superblock(1, blocks);
  for (auto _ : state) {
    benchmark::DoNotOptimize(txn::decode_superblock(wire));
  }
  state.SetBytesProcessed(state.iterations() * wire.size());
  state.SetItemsProcessed(state.iterations() * state.range(0) * 4);
}
BENCHMARK(BM_SuperblockDecode)->Arg(64);

}  // namespace
