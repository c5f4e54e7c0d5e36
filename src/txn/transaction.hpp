// Transactions: the three kinds the paper names (§II-A) — native payments,
// smart-contract deployments and smart-contract invocations — with Ed25519
// sender authentication and an RLP wire format.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "common/u256.hpp"
#include "crypto/signature.hpp"

namespace srbb::rlp {
class ItemView;
}

namespace srbb::txn {

enum class TxKind : std::uint8_t {
  kTransfer = 0,  // native payment
  kDeploy = 1,    // contract creation (data = init code)
  kInvoke = 2,    // contract call (data = ABI calldata)
};

struct Transaction {
  TxKind kind = TxKind::kTransfer;
  std::uint64_t nonce = 0;
  U256 gas_price;
  std::uint64_t gas_limit = 0;
  Address to;  // unused for kDeploy
  U256 value;
  Bytes data;
  crypto::PublicKey sender_pubkey{};
  crypto::Signature signature{};

  /// Keccak address of the sender public key.
  Address sender() const;
  /// Digest signed by the sender (all fields except the signature).
  Hash32 signing_hash() const;
  /// Transaction id: keccak of the full wire encoding.
  Hash32 hash() const;

  Bytes encode() const;
  /// Strict decode via the zero-copy RLP path: field payloads are read as
  /// views into `wire` and copied at most once, into the Transaction itself.
  static Result<Transaction> decode(BytesView wire);
  /// Size of the wire encoding in bytes (drives bandwidth accounting).
  std::size_t wire_size() const;

  friend bool operator==(const Transaction&, const Transaction&) = default;
};

/// Decode a transaction from an already-parsed RLP view node — the shared
/// zero-copy path under Transaction::decode and the block/superblock
/// decoders (which slice transaction frames out of the enclosing wire
/// buffer without re-parsing or re-encoding).
Result<Transaction> decode_tx_view(const rlp::ItemView& root);

/// Build and sign a transaction with `identity` under `scheme`.
struct TxParams {
  TxKind kind = TxKind::kTransfer;
  std::uint64_t nonce = 0;
  U256 gas_price = U256{1};
  std::uint64_t gas_limit = 1'000'000;
  Address to;
  U256 value;
  Bytes data;
};

Transaction make_signed(const TxParams& params, const crypto::Identity& identity,
                        const crypto::SignatureScheme& scheme);

/// Verify the sender signature under `scheme`.
bool verify_signature(const Transaction& tx,
                      const crypto::SignatureScheme& scheme);

/// 21000 + calldata pricing + creation surcharge; transactions whose gas
/// limit cannot cover this are invalid. CachedTx memoizes it.
std::uint64_t intrinsic_gas(const Transaction& tx);

}  // namespace srbb::txn
