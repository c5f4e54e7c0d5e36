// Keccak-256 with the original Keccak padding (0x01), as used by Ethereum for
// transaction hashes, addresses and the EVM SHA3 opcode.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"

namespace srbb::crypto {

class Keccak256 {
 public:
  Keccak256() = default;
  void update(BytesView data);
  Hash32 finish();

  static Hash32 hash(BytesView data);

 private:
  void absorb_block();

  std::uint64_t state_[25] = {};
  std::uint8_t buffer_[136] = {};
  std::size_t buffered_ = 0;
};

namespace detail {
/// The Keccak-f[1600] permutation Keccak256 runs, exposed for the
/// differential test against the reference permutation.
void keccak_f1600(std::uint64_t state[25]);
}  // namespace detail

/// Ethereum-style address derivation: low 20 bytes of Keccak-256(pubkey).
Address address_from_pubkey(BytesView pubkey);

}  // namespace srbb::crypto
