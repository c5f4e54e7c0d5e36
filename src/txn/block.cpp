#include "txn/block.hpp"

#include <cstring>

#include "codec/rlp.hpp"
#include "crypto/sha256.hpp"

namespace srbb::txn {

Hash32 Block::compute_tx_root() const {
  std::vector<Hash32> leaves;
  leaves.reserve(txs.size());
  for (const TxPtr& tx : txs) leaves.push_back(tx->hash);
  return crypto::merkle_root(leaves);
}

Hash32 Block::body_root() const {
  return memo_.sealed ? memo_.tx_root : compute_tx_root();
}

Hash32 Block::hash() const {
  if (memo_.sealed) return memo_.hash;
  crypto::Sha256 h;
  std::uint8_t buf[8];
  put_be64(buf, header.index);
  h.update(BytesView{buf, 8});
  put_be64(buf, header.proposer);
  h.update(BytesView{buf, 8});
  put_be64(buf, header.timestamp);
  h.update(BytesView{buf, 8});
  h.update(header.parent_hash.view());
  h.update(header.tx_root.view());
  h.update(BytesView{header.cert.proposer_pubkey.data(), 32});
  return h.finish();
}

std::size_t Block::wire_size() const {
  // Header fields + certificate: index/proposer/timestamp (24) + parent and
  // root hashes (64) + pubkey (32) + signature (64).
  std::size_t size = 184;
  for (const TxPtr& tx : txs) size += tx->size;
  return size;
}

BlockPtr seal(Block block) {
  auto sealed = std::make_shared<Block>(std::move(block));
  sealed->memo_.tx_root = sealed->compute_tx_root();
  sealed->memo_.hash = sealed->hash();
  sealed->memo_.sealed = true;
  return sealed;
}

bool verify_block_certificate(const Block& block,
                              const crypto::SignatureScheme& scheme) {
  if (block.body_root() != block.header.tx_root) return false;
  return scheme.verify(block.header.tx_root.view(),
                       block.header.cert.signed_tx_root,
                       block.header.cert.proposer_pubkey);
}

Bytes encode_block(const Block& block) {
  rlp::ListBuilder rlp;
  rlp.add_u64(block.header.index);
  rlp.add_u64(block.header.proposer);
  rlp.add_u64(block.header.timestamp);
  rlp.add_bytes(block.header.parent_hash.view());
  rlp.add_bytes(block.header.tx_root.view());
  rlp.add_bytes(BytesView{block.header.cert.proposer_pubkey.data(), 32});
  rlp.add_bytes(BytesView{block.header.cert.signed_tx_root.data(), 64});
  rlp::ListBuilder tx_list;
  for (const TxPtr& tx : block.txs) tx_list.add_bytes(tx->tx.encode());
  rlp.add_raw(tx_list.build());
  return rlp.build();
}

namespace {

// Zero-copy block decode: the frame is parsed once into `doc`, each
// transaction entry is a view slice of `wire`, and `tx_doc` is reused as the
// parse arena across entries. The wire slice also supplies each CachedTx id
// hash and size without re-encoding.
Result<Block> decode_block_view(BytesView wire, rlp::ViewDoc& doc,
                                rlp::ViewDoc& tx_doc) {
  auto parsed = rlp::decode_view(wire, doc);
  if (!parsed) return parsed.status();
  const rlp::ItemView root = parsed.value();
  if (!root.is_list() || root.size() != 8) {
    return Status::error("block: expected 8-item list");
  }
  rlp::ItemView f[8];
  f[0] = root.child(0);
  for (std::size_t i = 1; i < 8; ++i) f[i] = f[i - 1].next_sibling();

  Block block;
  auto index = f[0].as_u64();
  if (!index) return index.status();
  block.header.index = index.value();
  auto proposer = f[1].as_u64();
  if (!proposer) return proposer.status();
  block.header.proposer = proposer.value();
  auto timestamp = f[2].as_u64();
  if (!timestamp) return timestamp.status();
  block.header.timestamp = timestamp.value();
  if (f[3].payload().size() != 32 || f[4].payload().size() != 32) {
    return Status::error("block: bad hash field");
  }
  block.header.parent_hash = Hash32{f[3].payload()};
  block.header.tx_root = Hash32{f[4].payload()};
  if (f[5].payload().size() != 32 || f[6].payload().size() != 64) {
    return Status::error("block: bad certificate field");
  }
  std::memcpy(block.header.cert.proposer_pubkey.data(), f[5].payload().data(),
              32);
  std::memcpy(block.header.cert.signed_tx_root.data(), f[6].payload().data(),
              64);
  if (!f[7].is_list()) return Status::error("block: bad tx list");
  const std::size_t tx_count = f[7].size();
  block.txs.reserve(tx_count);
  rlp::ItemView entry = tx_count > 0 ? f[7].child(0) : rlp::ItemView{};
  for (std::size_t i = 0; i < tx_count; ++i, entry = entry.next_sibling()) {
    if (entry.is_list()) return Status::error("block: bad tx entry");
    const BytesView tx_wire = entry.payload();
    auto tx_parsed = rlp::decode_view(tx_wire, tx_doc);
    if (!tx_parsed) return tx_parsed.status();
    auto tx = decode_tx_view(tx_parsed.value());
    if (!tx) return tx.status();
    block.txs.push_back(make_tx_ptr(std::move(tx).take(), tx_wire));
  }
  return block;
}

}  // namespace

Result<Block> decode_block(BytesView wire) {
  rlp::ViewDoc doc;
  rlp::ViewDoc tx_doc;
  return decode_block_view(wire, doc, tx_doc);
}

Bytes encode_superblock(std::uint64_t index,
                        const std::vector<BlockPtr>& blocks) {
  rlp::ListBuilder frame;
  frame.add_u64(index);
  rlp::ListBuilder block_list;
  for (const BlockPtr& block : blocks) block_list.add_bytes(encode_block(*block));
  frame.add_raw(block_list.build());
  return frame.build();
}

Result<Superblock> decode_superblock(BytesView wire) {
  rlp::ViewDoc doc;
  auto parsed = rlp::decode_view(wire, doc);
  if (!parsed) return parsed.status();
  const rlp::ItemView root = parsed.value();
  if (!root.is_list() || root.size() != 2) {
    return Status::error("superblock: expected 2-item frame");
  }
  Superblock superblock;
  auto index = root.child(0).as_u64();
  if (!index) return index.status();
  superblock.index = index.value();
  const rlp::ItemView list = root.child(1);
  if (!list.is_list()) return Status::error("superblock: bad block list");
  // Each block entry is a wire slice; the per-block and per-tx parse arenas
  // are reused across the whole frame.
  rlp::ViewDoc block_doc;
  rlp::ViewDoc tx_doc;
  const std::size_t count = list.size();
  superblock.blocks.reserve(count);
  rlp::ItemView entry = count > 0 ? list.child(0) : rlp::ItemView{};
  for (std::size_t i = 0; i < count; ++i, entry = entry.next_sibling()) {
    if (entry.is_list()) return Status::error("superblock: bad block entry");
    auto block = decode_block_view(entry.payload(), block_doc, tx_doc);
    if (!block) return block.status();
    if (block.value().header.index != superblock.index) {
      return Status::error("superblock: block index mismatch");
    }
    superblock.blocks.push_back(seal(std::move(block).take()));
  }
  return superblock;
}

Block make_block(std::uint64_t index, std::uint64_t proposer_id,
                 std::uint64_t timestamp, const Hash32& parent_hash,
                 std::vector<TxPtr> txs, const crypto::Identity& proposer,
                 const crypto::SignatureScheme& scheme) {
  Block block;
  block.header.index = index;
  block.header.proposer = proposer_id;
  block.header.timestamp = timestamp;
  block.header.parent_hash = parent_hash;
  block.txs = std::move(txs);
  block.header.tx_root = block.compute_tx_root();
  block.header.cert.proposer_pubkey = proposer.public_key;
  block.header.cert.signed_tx_root =
      scheme.sign(proposer, block.header.tx_root.view());
  return block;
}

}  // namespace srbb::txn
