// Differential oracle: SHA-256 of a whole message through the portable
// kernel only. The message is padded per FIPS 180-4 into one buffer and
// compressed in one call, so neither Sha256's incremental buffering nor the
// dispatched kernel is on this path. Only tests, the fuzz harness and the
// microbenches include this file.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/sha256_compress.hpp"

namespace srbb::crypto::oracle {

inline Hash32 sha256_portable(BytesView data) {
  // Message, 0x80, zeros up to 56 mod 64, then the 64-bit bit length.
  std::vector<std::uint8_t> padded((data.size() + 8) / 64 * 64 + 64, 0);
  if (!data.empty()) std::memcpy(padded.data(), data.data(), data.size());
  padded[data.size()] = 0x80;
  put_be64(padded.data() + padded.size() - 8,
           static_cast<std::uint64_t>(data.size()) * 8);
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  detail::sha256_compress_portable(state, padded.data(), padded.size() / 64);
  Hash32 out;
  for (int i = 0; i < 8; ++i) put_be32(out.data.data() + 4 * i, state[i]);
  return out;
}

}  // namespace srbb::crypto::oracle
