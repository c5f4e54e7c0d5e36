// Differential tests for the hash kernels against the code they replaced:
// the register-resident Keccak-f[1600] against the table-driven permutation
// (tests/oracle_keccak.hpp), and the SHA-NI SHA-256 kernel against the
// portable rounds. The known-answer vectors in test_sha.cpp and
// test_keccak.cpp run through the dispatched path.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "crypto/keccak.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_compress.hpp"
#include "oracle_keccak.hpp"
#include "oracle_sha256.hpp"

namespace srbb::crypto {
namespace {

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

TEST(KeccakDifferential, PermutationMatchesOracleOnRandomStates) {
  Rng rng(0x6b656363616bull);
  for (int trial = 0; trial < 10000; ++trial) {
    std::uint64_t fast[25];
    std::uint64_t reference[25];
    for (int i = 0; i < 25; ++i) fast[i] = reference[i] = rng.next_u64();
    detail::keccak_f1600(fast);
    oracle::keccak_f(reference);
    ASSERT_EQ(0, std::memcmp(fast, reference, sizeof(fast))) << "trial " << trial;
  }
}

TEST(KeccakDifferential, PermutationMatchesOracleOnZeroState) {
  std::uint64_t fast[25] = {};
  std::uint64_t reference[25] = {};
  for (int i = 0; i < 3; ++i) {
    detail::keccak_f1600(fast);
    oracle::keccak_f(reference);
    ASSERT_EQ(0, std::memcmp(fast, reference, sizeof(fast))) << "iteration " << i;
  }
}

// Every length from 0 through three rate blocks plus one, each fed to
// update() in pieces cut at random points.
TEST(KeccakDifferential, EveryLengthAtRandomSplitsMatchesOracle) {
  Rng rng(136);
  for (std::size_t len = 0; len <= 3 * 136 + 1; ++len) {
    const std::vector<std::uint8_t> msg = random_bytes(rng, len);
    const Hash32 expected = oracle::keccak256(BytesView{msg});
    ASSERT_EQ(Keccak256::hash(BytesView{msg}), expected) << "len " << len;
    Keccak256 k;
    std::size_t offset = 0;
    while (offset < len) {
      const std::size_t take = rng.next_range(0, len - offset);
      k.update(BytesView{msg.data() + offset, take});
      offset += take;
    }
    ASSERT_EQ(k.finish(), expected) << "len " << len;
  }
}

TEST(Sha256Differential, DispatchedMatchesPortableAtEveryLength) {
  Rng rng(64);
  for (std::size_t len = 0; len <= 3 * 64 + 1; ++len) {
    const std::vector<std::uint8_t> msg = random_bytes(rng, len);
    const Hash32 expected = oracle::sha256_portable(BytesView{msg});
    ASSERT_EQ(Sha256::hash(BytesView{msg}), expected) << "len " << len;
    Sha256 h;
    std::size_t offset = 0;
    while (offset < len) {
      const std::size_t take = rng.next_range(0, len - offset);
      h.update(BytesView{msg.data() + offset, take});
      offset += take;
    }
    ASSERT_EQ(h.finish(), expected) << "len " << len;
  }
}

#if defined(__x86_64__)

constexpr const char* kNoShaNi =
    "this CPU has no SHA-NI; only the portable kernel runs";

std::vector<std::uint32_t> random_state(Rng& rng) {
  std::vector<std::uint32_t> state(8);
  for (auto& word : state) word = static_cast<std::uint32_t>(rng.next_u64());
  return state;
}

TEST(Sha256Differential, ShaNiMatchesPortableOnRandomSingleBlocks) {
  if (!detail::sha256_shani_available()) GTEST_SKIP() << kNoShaNi;
  Rng rng(0x5348414e49ull);
  for (int trial = 0; trial < 10000; ++trial) {
    std::vector<std::uint32_t> fast = random_state(rng);
    std::vector<std::uint32_t> reference = fast;
    const std::vector<std::uint8_t> block = random_bytes(rng, 64);
    detail::sha256_compress_shani(fast.data(), block.data(), 1);
    detail::sha256_compress_portable(reference.data(), block.data(), 1);
    ASSERT_EQ(fast, reference) << "trial " << trial;
  }
}

TEST(Sha256Differential, ShaNiMatchesPortableOnMultiBlockRuns) {
  if (!detail::sha256_shani_available()) GTEST_SKIP() << kNoShaNi;
  Rng rng(0x72756e73ull);
  for (std::size_t blocks = 1; blocks <= 64; ++blocks) {
    std::vector<std::uint32_t> fast = random_state(rng);
    std::vector<std::uint32_t> reference = fast;
    // One byte of offset keeps the loads unaligned.
    const std::vector<std::uint8_t> data = random_bytes(rng, 64 * blocks + 1);
    detail::sha256_compress_shani(fast.data(), data.data() + 1, blocks);
    detail::sha256_compress_portable(reference.data(), data.data() + 1, blocks);
    ASSERT_EQ(fast, reference) << "blocks " << blocks;
  }
}

#endif  // __x86_64__

}  // namespace
}  // namespace srbb::crypto
