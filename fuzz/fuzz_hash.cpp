// Hash-kernel harness: the input is one message, fed to Sha256 and
// Keccak256 in update() pieces whose lengths are read from the input's own
// bytes, so the fuzzer picks both the content and the split points. The
// incremental digests must equal the references over the whole message:
// the portable SHA-256 kernel (tests/oracle_sha256.hpp) and the table-driven
// Keccak permutation (tests/oracle_keccak.hpp). Both hashes are
// consensus-visible (tx roots, state roots, tx hashes, addresses), so any
// disagreement with the reference is a fork.
#include <algorithm>
#include <cstddef>

#include "crypto/keccak.hpp"
#include "crypto/sha256.hpp"
#include "harness.hpp"
#include "oracle_keccak.hpp"
#include "oracle_sha256.hpp"

using namespace srbb;

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const BytesView message{data, size};
  crypto::Sha256 sha;
  crypto::Keccak256 keccak;
  std::size_t offset = 0;
  for (std::size_t i = 0; offset < size; ++i) {
    // Pieces of 1..199 bytes cross both the 64-byte and the 136-byte
    // block; a 0 adds an empty update() before a 1-byte piece.
    std::size_t take = data[i % size] % 200;
    if (take == 0) {
      sha.update(message.subspan(offset, 0));
      keccak.update(message.subspan(offset, 0));
      take = 1;
    }
    take = std::min(take, size - offset);
    sha.update(message.subspan(offset, take));
    keccak.update(message.subspan(offset, take));
    offset += take;
  }
  FUZZ_ASSERT(sha.finish() == crypto::oracle::sha256_portable(message));
  FUZZ_ASSERT(keccak.finish() == crypto::oracle::keccak256(message));
  return 0;
}
