#include "crypto/sha256.hpp"

#include <cstring>

#include "crypto/sha256_compress.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace srbb::crypto {

namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

}  // namespace

namespace detail {

void sha256_compress_portable(std::uint32_t state[8], const std::uint8_t* data,
                              std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) w[i] = get_be32(data + 4 * i);
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__)

// The SHA-NI kernel keeps the working variables as two vectors, ABEF and
// CDGH, the layout _mm_sha256rnds2_epu32 expects. Each group of four rounds
// adds K to four schedule words and runs two rnds2 steps; msg1/msg2 derive
// the next four schedule words from the previous sixteen.
namespace {

__attribute__((target("sha,sse4.1,ssse3"))) inline void shani_rounds4(
    __m128i& abef, __m128i& cdgh, __m128i w, const std::uint32_t* k) {
  const __m128i wk =
      _mm_add_epi32(w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(k)));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

// Schedule words t+16..t+19 from words t..t+15, held as w0..w3.
__attribute__((target("sha,sse4.1,ssse3"))) inline __m128i shani_schedule(
    __m128i w0, __m128i w1, __m128i w2, __m128i w3) {
  const __m128i x = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1),
                                  _mm_alignr_epi8(w3, w2, 4));
  return _mm_sha256msg2_epu32(x, w3);
}

}  // namespace

__attribute__((target("sha,sse4.1,ssse3"))) void sha256_compress_shani(
    std::uint32_t state[8], const std::uint8_t* data, std::size_t blocks) {
  // Byte-swaps each 32-bit word: the message is big-endian.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  auto* const words = reinterpret_cast<__m128i*>(state);
  const __m128i dcba = _mm_shuffle_epi32(_mm_loadu_si128(words), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(_mm_loadu_si128(words + 1), 0x1B);
  __m128i abef = _mm_alignr_epi8(dcba, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, dcba, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    const auto* const in = reinterpret_cast<const __m128i*>(data);
    __m128i w0 = _mm_shuffle_epi8(_mm_loadu_si128(in), bswap);
    __m128i w1 = _mm_shuffle_epi8(_mm_loadu_si128(in + 1), bswap);
    __m128i w2 = _mm_shuffle_epi8(_mm_loadu_si128(in + 2), bswap);
    __m128i w3 = _mm_shuffle_epi8(_mm_loadu_si128(in + 3), bswap);
    for (int t = 0; t < 48; t += 16) {
      shani_rounds4(abef, cdgh, w0, kK + t);
      w0 = shani_schedule(w0, w1, w2, w3);
      shani_rounds4(abef, cdgh, w1, kK + t + 4);
      w1 = shani_schedule(w1, w2, w3, w0);
      shani_rounds4(abef, cdgh, w2, kK + t + 8);
      w2 = shani_schedule(w2, w3, w0, w1);
      shani_rounds4(abef, cdgh, w3, kK + t + 12);
      w3 = shani_schedule(w3, w0, w1, w2);
    }
    shani_rounds4(abef, cdgh, w0, kK + 48);
    shani_rounds4(abef, cdgh, w1, kK + 52);
    shani_rounds4(abef, cdgh, w2, kK + 56);
    shani_rounds4(abef, cdgh, w3, kK + 60);
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(words, _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(words + 1, _mm_alignr_epi8(dchg, feba, 8));
}

bool sha256_shani_available() {
  // __builtin_cpu_supports reads data that __builtin_cpu_init fills in; a
  // caller running before that constructor (another static initializer)
  // must initialize it itself.
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1") &&
         __builtin_cpu_supports("ssse3");
}

#else

bool sha256_shani_available() { return false; }

#endif

void sha256_compress(std::uint32_t state[8], const std::uint8_t* data,
                     std::size_t blocks) {
  using Kernel = void (*)(std::uint32_t*, const std::uint8_t*, std::size_t);
  static const Kernel kernel = [] {
#if defined(__x86_64__)
    if (sha256_shani_available()) return &sha256_compress_shani;
#endif
    return &sha256_compress_portable;
  }();
  kernel(state, data, blocks);
}

}  // namespace detail

Sha256::Sha256() {
  static constexpr std::uint32_t kInit[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                             0xa54ff53a, 0x510e527f, 0x9b05688c,
                                             0x1f83d9ab, 0x5be0cd19};
  std::memcpy(state_, kInit, sizeof(state_));
}

void Sha256::update(BytesView data) {
  // An empty span has a null data(); memcpy's nonnull contract makes that
  // UB even for zero lengths (flagged by UBSan on empty messages).
  if (data.empty()) return;
  total_bytes_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    const std::size_t need = 64 - buffered_;
    const std::size_t take = std::min(need, data.size());
    std::memcpy(buffer_ + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ == 64) {
      detail::sha256_compress(state_, buffer_, 1);
      buffered_ = 0;
    }
  }
  const std::size_t blocks = (data.size() - offset) / 64;
  if (blocks > 0) {
    detail::sha256_compress(state_, data.data() + offset, blocks);
    offset += 64 * blocks;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_, data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

Hash32 Sha256::finish() {
  const std::uint64_t bit_len = total_bytes_ * 8;
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::memset(buffer_ + buffered_, 0, 64 - buffered_);
    detail::sha256_compress(state_, buffer_, 1);
    buffered_ = 0;
  }
  std::memset(buffer_ + buffered_, 0, 56 - buffered_);
  put_be64(buffer_ + 56, bit_len);
  detail::sha256_compress(state_, buffer_, 1);
  buffered_ = 0;

  Hash32 out;
  for (int i = 0; i < 8; ++i) put_be32(out.data.data() + 4 * i, state_[i]);
  return out;
}

Hash32 Sha256::hash(BytesView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Hash32 hmac_sha256(BytesView key, BytesView message) {
  std::uint8_t k[64] = {};
  if (key.size() > 64) {
    const Hash32 kh = Sha256::hash(key);
    std::memcpy(k, kh.data.data(), 32);
  } else if (!key.empty()) {
    std::memcpy(k, key.data(), key.size());
  }
  std::uint8_t ipad[64], opad[64];
  for (int i = 0; i < 64; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }
  Sha256 inner;
  inner.update(BytesView{ipad, 64});
  inner.update(message);
  const Hash32 ih = inner.finish();
  Sha256 outer;
  outer.update(BytesView{opad, 64});
  outer.update(ih.view());
  return outer.finish();
}

}  // namespace srbb::crypto
