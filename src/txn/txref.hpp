// Shared transaction handles. Hash, signing digest and wire size are computed
// once at creation — nodes across the simulation share one immutable object,
// which is also how the event-driven network avoids re-serializing payloads
// and how validation avoids re-hashing the signed fields per check.
#pragma once

#include <memory>

#include "crypto/keccak.hpp"
#include "txn/transaction.hpp"

namespace srbb::txn {

struct CachedTx;
using TxPtr = std::shared_ptr<const CachedTx>;

/// make_signed() straight into a shared handle: the digest just signed is
/// cached as the signing hash instead of being hashed a second time.
TxPtr make_signed_tx(const TxParams& params, const crypto::Identity& identity,
                     const crypto::SignatureScheme& scheme);

struct CachedTx {
  Transaction tx;
  Hash32 hash;          // tx id: keccak of the wire encoding
  Hash32 signing_hash;  // digest the sender signed; cached so signature
                        // checks never re-encode the unsigned fields
  std::size_t size = 0;  // wire bytes
  Address sender;
  std::uint64_t intrinsic_gas = 0;  // txn::intrinsic_gas(tx), computed once

  explicit CachedTx(Transaction t) : tx(std::move(t)) {
    const Bytes wire = tx.encode();
    init(wire, tx.signing_hash());
  }

  /// From a decoded transaction whose wire bytes are at hand (the zero-copy
  /// decode paths): id hash and size come straight from the wire slice —
  /// the canonical codec guarantees re-encoding reproduces it byte for byte
  /// (fuzz_tx proves the round-trip).
  CachedTx(Transaction t, BytesView wire) : tx(std::move(t)) {
    init(wire, tx.signing_hash());
  }

  /// The signing digest of a transaction make_signed_tx has just signed.
  /// Only make_signed_tx can create one, so no other caller can hand
  /// CachedTx a digest that was not computed from the transaction.
  class SignedDigest {
   public:
    const Hash32& value() const { return value_; }

   private:
    friend TxPtr make_signed_tx(const TxParams&, const crypto::Identity&,
                                const crypto::SignatureScheme&);
    explicit SignedDigest(const Hash32& value) : value_(value) {}
    Hash32 value_;
  };

  CachedTx(Transaction t, const SignedDigest& digest) : tx(std::move(t)) {
    const Bytes wire = tx.encode();
    init(wire, digest.value());
  }

 private:
  void init(BytesView wire, const Hash32& digest) {
    hash = crypto::Keccak256::hash(wire);
    size = wire.size();
    sender = tx.sender();
    signing_hash = digest;
    intrinsic_gas = txn::intrinsic_gas(tx);
  }
};

inline TxPtr make_tx_ptr(Transaction t) {
  return std::make_shared<const CachedTx>(std::move(t));
}

inline TxPtr make_tx_ptr(Transaction t, BytesView wire) {
  return std::make_shared<const CachedTx>(std::move(t), wire);
}

}  // namespace srbb::txn
