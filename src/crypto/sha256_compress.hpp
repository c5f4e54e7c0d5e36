// SHA-256 compression kernels behind Sha256 (crypto/sha256.cpp). Internal:
// Sha256 calls only sha256_compress; the differential tests and the
// microbenches call each kernel directly, so there is no knob that forces a
// path at run time.
#pragma once

#include <cstddef>
#include <cstdint>

namespace srbb::crypto::detail {

/// Compress `blocks` consecutive 64-byte blocks into `state` with the
/// portable FIPS 180-4 rounds: the reference and the fallback kernel.
void sha256_compress_portable(std::uint32_t state[8], const std::uint8_t* data,
                              std::size_t blocks);

/// True when this CPU runs the SHA-NI kernel (x86-64 with the SHA
/// extensions); always false elsewhere.
bool sha256_shani_available();

#if defined(__x86_64__)
/// The same compression on the x86 SHA extensions. Call only when
/// sha256_shani_available().
void sha256_compress_shani(std::uint32_t state[8], const std::uint8_t* data,
                           std::size_t blocks);
#endif

/// The kernel Sha256 uses: SHA-NI when available, else portable. Chosen
/// once per process.
void sha256_compress(std::uint32_t state[8], const std::uint8_t* data,
                     std::size_t blocks);

}  // namespace srbb::crypto::detail
