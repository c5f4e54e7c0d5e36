// FIPS 180-4 SHA-256 plus HMAC-SHA-256 (RFC 2104), implemented from scratch.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"

namespace srbb::crypto {

class Sha256 {
 public:
  Sha256();
  void update(BytesView data);
  Hash32 finish();

  static Hash32 hash(BytesView data);

 private:
  std::uint32_t state_[8];
  std::uint8_t buffer_[64];
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

Hash32 hmac_sha256(BytesView key, BytesView message);

}  // namespace srbb::crypto
