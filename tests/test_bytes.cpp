#include "common/bytes.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

namespace srbb {
namespace {

TEST(Hex, EncodeEmpty) { EXPECT_EQ(to_hex(BytesView{}), ""); }

TEST(Hex, EncodeKnown) {
  const Bytes data{0x00, 0x01, 0xab, 0xff};
  EXPECT_EQ(to_hex(data), "0001abff");
}

TEST(Hex, DecodeRoundTrip) {
  const Bytes data{0xde, 0xad, 0xbe, 0xef, 0x00, 0x7f};
  const auto decoded = from_hex(to_hex(data));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, data);
}

TEST(Hex, DecodeAccepts0xPrefixAndMixedCase) {
  const auto decoded = from_hex("0xDeadBEEF");
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, (Bytes{0xde, 0xad, 0xbe, 0xef}));
}

TEST(Hex, DecodeRejectsOddLength) { EXPECT_FALSE(from_hex("abc").has_value()); }

TEST(Hex, DecodeRejectsNonHex) { EXPECT_FALSE(from_hex("zz").has_value()); }

TEST(Hex, DecodeEmptyIsEmpty) {
  const auto decoded = from_hex("");
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->empty());
}

TEST(FixedBytes, DefaultIsZero) {
  Hash32 h;
  EXPECT_TRUE(h.is_zero());
  EXPECT_EQ(h.hex(), std::string(64, '0'));
}

TEST(FixedBytes, ConstructFromView) {
  Bytes raw(20, 0x42);
  Address a{BytesView{raw.data(), raw.size()}};
  EXPECT_FALSE(a.is_zero());
  EXPECT_EQ(a[0], 0x42);
  EXPECT_EQ(a[19], 0x42);
}

TEST(FixedBytes, WrongSizeViewYieldsZero) {
  Bytes raw(5, 0x42);
  Address a{BytesView{raw.data(), raw.size()}};
  EXPECT_TRUE(a.is_zero());
}

TEST(FixedBytes, FromHexStr) {
  const auto a = Address::from_hex_str("0x" + std::string(40, '1'));
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ((*a)[0], 0x11);
  EXPECT_FALSE(Address::from_hex_str("0x1234").has_value());
}

TEST(FixedBytes, Ordering) {
  Hash32 a, b;
  b[31] = 1;
  EXPECT_LT(a, b);
  EXPECT_NE(a, b);
  a[31] = 1;
  EXPECT_EQ(a, b);
}

TEST(FixedBytes, Hashable) {
  std::unordered_set<Hash32> set;
  Hash32 a;
  Hash32 b;
  b[0] = 1;
  set.insert(a);
  set.insert(b);
  set.insert(a);
  EXPECT_EQ(set.size(), 2u);
}

// Each single-byte change gives its own hash: an address that differs only
// in its last 4 bytes, or fixed_address(tag) keys that share 19 bytes, must
// not collide in the word-wise mix or its zero-padded tail.
template <std::size_t N>
void expect_single_byte_flips_hash_apart() {
  FixedBytes<N> base;
  for (std::size_t i = 0; i < N; ++i) base[i] = static_cast<std::uint8_t>(i);
  std::unordered_set<std::size_t> hashes;
  for (std::size_t i = 0; i < N; ++i) {
    FixedBytes<N> flipped = base;
    flipped[i] ^= 0x01;
    hashes.insert(FixedBytesHasher<N>{}(flipped));
  }
  EXPECT_EQ(hashes.size(), N);
  EXPECT_EQ(hashes.count(FixedBytesHasher<N>{}(base)), 0u);
  EXPECT_EQ(std::hash<FixedBytes<N>>{}(base), FixedBytesHasher<N>{}(base));
}

TEST(FixedBytes, SingleByteFlipsHashApart) {
  expect_single_byte_flips_hash_apart<20>();
  expect_single_byte_flips_hash_apart<32>();
}

TEST(FixedBytes, TaggedAddressesHashApart) {
  std::unordered_set<std::size_t> hashes;
  for (unsigned tag = 0; tag < 256; ++tag) {
    Address address;  // the runner's fixed_address(tag) shape
    address[0] = 0xDA;
    address[19] = static_cast<std::uint8_t>(tag);
    hashes.insert(AddressHasher{}(address));
  }
  EXPECT_EQ(hashes.size(), 256u);
}

TEST(BigEndian, RoundTrip32) {
  std::uint8_t buf[4];
  put_be32(buf, 0x12345678u);
  EXPECT_EQ(buf[0], 0x12);
  EXPECT_EQ(buf[3], 0x78);
  EXPECT_EQ(get_be32(buf), 0x12345678u);
}

TEST(BigEndian, RoundTrip64) {
  std::uint8_t buf[8];
  put_be64(buf, 0x0123456789abcdefull);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[7], 0xef);
  EXPECT_EQ(get_be64(buf), 0x0123456789abcdefull);
}

TEST(BytesHelpers, Concat) {
  const Bytes a{1, 2};
  const Bytes b{3};
  EXPECT_EQ(concat(a, b), (Bytes{1, 2, 3}));
}

}  // namespace
}  // namespace srbb
