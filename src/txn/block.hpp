// Blocks and proposer certificates. A block is a batch of transactions
// (§II-A); its certificate Cert_B = {P_k, (h_t)_Sk} — the proposer's public
// key and the signed transaction-set hash — is what RPM (Alg. 2) verifies
// when rewarding and reporting proposers.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/merkle.hpp"
#include "crypto/signature.hpp"
#include "txn/txref.hpp"

namespace srbb::txn {

struct BlockCertificate {
  crypto::PublicKey proposer_pubkey{};
  crypto::Signature signed_tx_root{};  // (h_t)_Sk
};

struct BlockHeader {
  std::uint64_t index = 0;     // consensus index k
  std::uint64_t proposer = 0;  // validator id (for bookkeeping/metrics)
  std::uint64_t timestamp = 0;
  Hash32 parent_hash;
  Hash32 tx_root;  // merkle root over transaction hashes == h_t
  BlockCertificate cert;
};

struct Block;
using BlockPtr = std::shared_ptr<const Block>;

struct Block {
  BlockHeader header;
  std::vector<TxPtr> txs;

  /// Merkle root over the transaction hashes (h_t in Alg. 2), computed from
  /// the body on every call.
  Hash32 compute_tx_root() const;
  /// The body's Merkle root: seal()'s memo on a sealed block, else
  /// compute_tx_root().
  Hash32 body_root() const;
  /// Block identity: hash of header fields + tx root. Memoized on a sealed
  /// block.
  Hash32 hash() const;
  /// Wire size estimate for bandwidth accounting: header overhead plus the
  /// exact wire size of every transaction.
  std::size_t wire_size() const;

 private:
  friend BlockPtr seal(Block block);

  // The digests seal() computes before the block is shared. Copying or
  // moving a block never carries them, so `Block b = *sealed; mutate(b);`
  // recomputes both.
  struct Memo {
    Memo() = default;
    Memo(const Memo&) noexcept {}
    Memo& operator=(const Memo&) noexcept {
      sealed = false;
      return *this;
    }
    bool sealed = false;
    Hash32 tx_root;
    Hash32 hash;
  };
  Memo memo_;
};

/// The one way to share a block: compute its body root and hash() once,
/// memoize both, then freeze it. Every node holding the pointer reuses the
/// digests instead of re-merkleizing the body.
BlockPtr seal(Block block);

/// Header validity as consensus sees it (Alg. 1 line 16): the certificate's
/// signature over the tx root verifies and the root matches the payload.
/// Both checks run on every call; a sealed block only skips re-merkleizing.
bool verify_block_certificate(const Block& block,
                              const crypto::SignatureScheme& scheme);

/// Build a block over `txs` and sign its certificate with `proposer`.
Block make_block(std::uint64_t index, std::uint64_t proposer_id,
                 std::uint64_t timestamp, const Hash32& parent_hash,
                 std::vector<TxPtr> txs, const crypto::Identity& proposer,
                 const crypto::SignatureScheme& scheme);

/// RLP wire format:
/// [index, proposer, timestamp, parent_hash, tx_root, pubkey, sig, [tx...]].
Bytes encode_block(const Block& block);
/// Strict decode; transaction bodies are re-parsed and re-cached.
Result<Block> decode_block(BytesView wire);

/// Superblock frame: `[index, [block, block, ...]]` with the blocks in their
/// decided (proposer-rank) order — what a validator persists per index and
/// serves to nodes syncing the chain.
Bytes encode_superblock(std::uint64_t index,
                        const std::vector<BlockPtr>& blocks);
struct Superblock {
  std::uint64_t index = 0;
  std::vector<BlockPtr> blocks;
};
/// Strict decode of a superblock frame. Rejects frames whose blocks carry a
/// different consensus index than the frame itself.
Result<Superblock> decode_superblock(BytesView wire);

}  // namespace srbb::txn
