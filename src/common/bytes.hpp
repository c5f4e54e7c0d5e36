// Byte-container primitives shared by every module: dynamic byte buffers,
// fixed-width byte arrays (hashes, addresses, keys), and hex conversion.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace srbb {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

/// Lowercase hex encoding without a "0x" prefix.
std::string to_hex(BytesView data);

/// Accepts an optional "0x" prefix and mixed-case digits; nullopt on any
/// non-hex character or odd length.
std::optional<Bytes> from_hex(std::string_view hex);

/// Constant-size byte array with value semantics; used for hashes, addresses
/// and key material. Comparable, hashable and hex-printable.
template <std::size_t N>
struct FixedBytes {
  std::array<std::uint8_t, N> data{};

  constexpr FixedBytes() = default;
  explicit FixedBytes(BytesView view) {
    if (view.size() == N) std::memcpy(data.data(), view.data(), N);
  }

  static constexpr std::size_t size() { return N; }
  std::uint8_t* begin() { return data.data(); }
  std::uint8_t* end() { return data.data() + N; }
  const std::uint8_t* begin() const { return data.data(); }
  const std::uint8_t* end() const { return data.data() + N; }
  std::uint8_t& operator[](std::size_t i) { return data[i]; }
  const std::uint8_t& operator[](std::size_t i) const { return data[i]; }

  BytesView view() const { return BytesView{data.data(), N}; }
  Bytes bytes() const { return Bytes{data.begin(), data.end()}; }
  std::string hex() const { return to_hex(view()); }

  bool is_zero() const {
    for (auto b : data)
      if (b != 0) return false;
    return true;
  }

  static std::optional<FixedBytes> from_hex_str(std::string_view hex) {
    auto raw = from_hex(hex);
    if (!raw || raw->size() != N) return std::nullopt;
    return FixedBytes{BytesView{raw->data(), raw->size()}};
  }

  /// An equality-only memcmp of constant size inlines to a few word
  /// compares; the defaulted std::array compare stays a call to memcmp,
  /// which every hash-table probe would pay.
  friend bool operator==(const FixedBytes& a, const FixedBytes& b) {
    return std::memcmp(a.data.data(), b.data.data(), N) == 0;
  }
  friend auto operator<=>(const FixedBytes&, const FixedBytes&) = default;
};

using Hash32 = FixedBytes<32>;
using Address = FixedBytes<20>;

/// Word-wise multiply/xor-shift mix over 8-byte loads plus a zero-padded
/// tail: a few steps per key instead of one per byte. Good enough for
/// unordered_map keys (the contents are usually already cryptographic
/// hashes), and every byte reaches the low bits a bucket index reads.
template <std::size_t N>
struct FixedBytesHasher {
  std::size_t operator()(const FixedBytes<N>& v) const {
    std::uint64_t h = 0x9e3779b97f4a7c15ull ^ N;
    const auto mix = [&h](std::uint64_t word) {
      h = (h ^ word) * 0xbf58476d1ce4e5b9ull;
      h ^= h >> 31;
    };
    std::size_t i = 0;
    for (; i + 8 <= N; i += 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, v.data.data() + i, 8);
      mix(word);
    }
    if constexpr (N % 8 != 0) {
      std::uint64_t word = 0;
      std::memcpy(&word, v.data.data() + i, N % 8);
      mix(word);
    }
    return static_cast<std::size_t>(h * 0x94d049bb133111ebull ^ (h >> 29));
  }
};

using Hash32Hasher = FixedBytesHasher<32>;
using AddressHasher = FixedBytesHasher<20>;

inline void append(Bytes& out, BytesView more) {
  out.insert(out.end(), more.begin(), more.end());
}

inline Bytes concat(BytesView a, BytesView b) {
  Bytes out;
  out.reserve(a.size() + b.size());
  append(out, a);
  append(out, b);
  return out;
}

/// Big-endian integer serialization helpers used by codecs and crypto.
void put_be32(std::uint8_t* out, std::uint32_t v);
void put_be64(std::uint8_t* out, std::uint64_t v);
std::uint32_t get_be32(const std::uint8_t* in);
std::uint64_t get_be64(const std::uint8_t* in);

}  // namespace srbb

template <std::size_t N>
struct std::hash<srbb::FixedBytes<N>> {
  std::size_t operator()(const srbb::FixedBytes<N>& v) const {
    return srbb::FixedBytesHasher<N>{}(v);
  }
};
