#include "crypto/signature.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <string>

namespace srbb::crypto {

// Names the `SchemeTest` parameter in gtest's `# GetParam()` suffix.
// The default printer writes the pointer, which ASLR moves on every run, and
// `gtest_discover_tests` bakes that suffix into the ctest name. Found by ADL,
// so it must sit in the scheme's namespace rather than the anonymous one.
void PrintTo(const SignatureScheme* scheme, std::ostream* os) {
  *os << scheme->name();
}

namespace {

BytesView sv(const std::string& s) {
  return BytesView{reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

class SchemeTest : public ::testing::TestWithParam<const SignatureScheme*> {};

TEST_P(SchemeTest, RoundTrip) {
  const SignatureScheme& scheme = *GetParam();
  const Identity id = scheme.make_identity(7);
  const Signature sig = scheme.sign(id, sv("hello srbb"));
  EXPECT_TRUE(scheme.verify(sv("hello srbb"), sig, id.public_key));
}

TEST_P(SchemeTest, TamperFails) {
  const SignatureScheme& scheme = *GetParam();
  const Identity id = scheme.make_identity(8);
  const Signature sig = scheme.sign(id, sv("payload"));
  EXPECT_FALSE(scheme.verify(sv("payloae"), sig, id.public_key));
}

TEST_P(SchemeTest, WrongKeyFails) {
  const SignatureScheme& scheme = *GetParam();
  const Identity a = scheme.make_identity(9);
  const Identity b = scheme.make_identity(10);
  const Signature sig = scheme.sign(a, sv("m"));
  EXPECT_FALSE(scheme.verify(sv("m"), sig, b.public_key));
}

TEST_P(SchemeTest, IdentitiesAreDeterministic) {
  const SignatureScheme& scheme = *GetParam();
  EXPECT_EQ(scheme.make_identity(3).public_key,
            scheme.make_identity(3).public_key);
  EXPECT_NE(scheme.make_identity(3).public_key,
            scheme.make_identity(4).public_key);
}

TEST_P(SchemeTest, AddressStableAndDistinct) {
  const SignatureScheme& scheme = *GetParam();
  const Identity a = scheme.make_identity(1);
  const Identity b = scheme.make_identity(2);
  EXPECT_EQ(a.address(), scheme.make_identity(1).address());
  EXPECT_NE(a.address(), b.address());
  EXPECT_FALSE(a.address().is_zero());
}

INSTANTIATE_TEST_SUITE_P(Schemes, SchemeTest,
                         ::testing::Values(&SignatureScheme::ed25519(),
                                           &SignatureScheme::fast_sim()),
                         [](const auto& info) {
                           return std::string(info.param->name()) == "ed25519"
                                      ? "Ed25519"
                                      : "FastSim";
                         });

TEST(SchemeNames, AreDistinct) {
  EXPECT_STRNE(SignatureScheme::ed25519().name(),
               SignatureScheme::fast_sim().name());
}

TEST(FastSim, NotInteroperableWithEd25519) {
  const Identity id = SignatureScheme::fast_sim().make_identity(5);
  const Signature sig = SignatureScheme::fast_sim().sign(id, sv("x"));
  EXPECT_FALSE(SignatureScheme::ed25519().verify(sv("x"), sig, id.public_key));
}

}  // namespace
}  // namespace srbb::crypto
