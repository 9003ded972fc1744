// Unit tests for the crypto substrate: SHA-256 against FIPS test vectors,
// bignum arithmetic, RSA sign/verify, and the signature-scheme properties
// the Figure 5 protocol relies on (Authentication, Unforgeability).
#include <gtest/gtest.h>

#include "crypto/bignum.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"
#include "crypto/sig.h"

namespace fastreg::crypto {
namespace {

TEST(Sha256, EmptyStringVector) {
  EXPECT_EQ(
      sha256::hex(sha256::hash(std::string{})),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, AbcVector) {
  EXPECT_EQ(
      sha256::hex(sha256::hash(std::string{"abc"})),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockVector) {
  EXPECT_EQ(
      sha256::hex(sha256::hash(std::string{
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"})),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(
      sha256::hex(h.finish()),
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  sha256 h;
  h.update(std::string{"hello "});
  h.update(std::string{"world"});
  EXPECT_EQ(sha256::hex(h.finish()),
            sha256::hex(sha256::hash(std::string{"hello world"})));
}

TEST(Sha256, ResetAllowsReuse) {
  sha256 h;
  h.update(std::string{"garbage"});
  h.reset();
  h.update(std::string{"abc"});
  EXPECT_EQ(
      sha256::hex(h.finish()),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// ------------------------------------------------------------------ bignum

TEST(Bignum, BasicArithmetic) {
  const bignum a{1000000007ull};
  const bignum b{998244353ull};
  EXPECT_EQ(a.add(b).low_u64(), 1000000007ull + 998244353ull);
  EXPECT_EQ(a.sub(b).low_u64(), 1000000007ull - 998244353ull);
  EXPECT_EQ(bignum{0xffffffffull}.add(bignum{1}).low_u64(), 0x100000000ull);
}

TEST(Bignum, MulMatches128BitReference) {
  const std::uint64_t x = 0xfedcba9876543210ull;
  const std::uint64_t y = 0x0123456789abcdefull;
  const bignum p = bignum{x}.mul(bignum{y});
  const unsigned __int128 ref =
      static_cast<unsigned __int128>(x) * static_cast<unsigned __int128>(y);
  EXPECT_EQ(p.mod(bignum{~0ull}).low_u64(),
            static_cast<std::uint64_t>(ref % (~0ull)));
}

TEST(Bignum, DivmodIdentity) {
  rng r(5);
  for (int i = 0; i < 50; ++i) {
    const bignum a = bignum::random_bits(160, r);
    const bignum b = bignum::random_bits(70, r);
    const auto [q, rem] = a.divmod(b);
    EXPECT_TRUE(rem < b);
    EXPECT_EQ(q.mul(b).add(rem), a);
  }
}

TEST(Bignum, ShiftRoundTrip) {
  rng r(6);
  const bignum a = bignum::random_bits(100, r);
  EXPECT_EQ(a.shl(37).shr(37), a);
}

TEST(Bignum, HexRoundTrip) {
  const bignum a = bignum::from_hex("deadbeefcafebabe0123456789");
  EXPECT_EQ(a.to_hex(), "deadbeefcafebabe0123456789");
}

TEST(Bignum, BytesRoundTrip) {
  rng r(8);
  const bignum a = bignum::random_bits(121, r);
  EXPECT_EQ(bignum::from_bytes(std::span<const std::uint8_t>(a.to_bytes())),
            a);
}

TEST(Bignum, ModexpSmallCases) {
  // 3^7 mod 11 = 2187 mod 11 = 9.
  EXPECT_EQ(bignum{3}.modexp(bignum{7}, bignum{11}).low_u64(), 9u);
  // Fermat: a^(p-1) = 1 mod p.
  EXPECT_EQ(bignum{12345}.modexp(bignum{1000000006}, bignum{1000000007})
                .low_u64(),
            1u);
}

TEST(Bignum, ModinvInvertsMultiplication) {
  rng r(10);
  const bignum m = bignum::random_prime(64, r);
  for (int i = 0; i < 10; ++i) {
    const bignum a = bignum::random_below(m, r);
    if (a.is_zero()) continue;
    const bignum inv = a.modinv(m);
    EXPECT_EQ(a.mul(inv).mod(m).low_u64(), 1u);
  }
}

TEST(Bignum, ModinvOfNonInvertibleIsZero) {
  EXPECT_TRUE(bignum{6}.modinv(bignum{9}).is_zero());
}

TEST(Bignum, GcdMatchesEuclid) {
  EXPECT_EQ(bignum::gcd(bignum{48}, bignum{18}).low_u64(), 6u);
  EXPECT_EQ(bignum::gcd(bignum{17}, bignum{31}).low_u64(), 1u);
}

TEST(Bignum, PrimalityKnownValues) {
  rng r(12);
  EXPECT_TRUE(bignum{2}.is_probable_prime(r));
  EXPECT_TRUE(bignum{1000000007ull}.is_probable_prime(r));
  EXPECT_FALSE(bignum{1000000007ull * 3}.is_probable_prime(r));
  EXPECT_FALSE(bignum{561}.is_probable_prime(r));  // Carmichael number
  EXPECT_FALSE(bignum{1}.is_probable_prime(r));
}

TEST(Bignum, RandomPrimeHasExactWidth) {
  rng r(13);
  const bignum p = bignum::random_prime(96, r);
  EXPECT_EQ(p.bit_length(), 96u);
  EXPECT_TRUE(p.is_probable_prime(r));
}

// --------------------------------------------------------------------- RSA

TEST(Rsa, SignVerifyRoundTrip) {
  rng r(42);
  const rsa_keypair kp = rsa_generate(512, r);
  const std::string msg = "ts=7 val=hello prev=world";
  const std::vector<std::uint8_t> payload(msg.begin(), msg.end());
  const auto sig = rsa_sign(kp.priv, payload);
  EXPECT_TRUE(rsa_verify(kp.pub, payload, sig));
}

TEST(Rsa, TamperedPayloadRejected) {
  rng r(43);
  const rsa_keypair kp = rsa_generate(512, r);
  std::vector<std::uint8_t> payload = {1, 2, 3, 4};
  const auto sig = rsa_sign(kp.priv, payload);
  payload[0] ^= 1;
  EXPECT_FALSE(rsa_verify(kp.pub, payload, sig));
}

TEST(Rsa, TamperedSignatureRejected) {
  rng r(44);
  const rsa_keypair kp = rsa_generate(512, r);
  const std::vector<std::uint8_t> payload = {9, 9, 9};
  auto sig = rsa_sign(kp.priv, payload);
  sig[0] ^= 0x80;
  EXPECT_FALSE(rsa_verify(kp.pub, payload, sig));
}

TEST(Rsa, WrongKeyRejected) {
  rng r(45);
  const rsa_keypair kp1 = rsa_generate(512, r);
  const rsa_keypair kp2 = rsa_generate(512, r);
  const std::vector<std::uint8_t> payload = {5, 5, 5};
  const auto sig = rsa_sign(kp1.priv, payload);
  EXPECT_FALSE(rsa_verify(kp2.pub, payload, sig));
}

TEST(Rsa, EmptySignatureRejected) {
  rng r(46);
  const rsa_keypair kp = rsa_generate(512, r);
  EXPECT_FALSE(rsa_verify(kp.pub, std::vector<std::uint8_t>{1}, {}));
}

// ------------------------------------------------------- signature schemes

class SigSchemeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SigSchemeTest, AuthenticationProperty) {
  auto scheme = make_signature_scheme(GetParam(), 77);
  const std::vector<std::uint8_t> payload = {1, 2, 3};
  const auto sig = scheme->sign(writer_id(0), payload);
  EXPECT_TRUE(scheme->verify(writer_id(0), payload, sig));
}

TEST_P(SigSchemeTest, DeterministicAcrossInstances) {
  auto a = make_signature_scheme(GetParam(), 123);
  auto b = make_signature_scheme(GetParam(), 123);
  const std::vector<std::uint8_t> payload = {7, 7};
  EXPECT_TRUE(b->verify(writer_id(0), payload, a->sign(writer_id(0), payload)));
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SigSchemeTest,
                         ::testing::Values("oracle", "rsa"));

TEST(SigScheme, UnforgeabilityOracle) {
  oracle_signature_scheme scheme(99);
  const std::vector<std::uint8_t> payload = {1, 2, 3};
  const auto sig = scheme.sign(writer_id(0), payload);
  // Another signer's signature over the same payload does not verify as w's.
  const auto other = scheme.sign(reader_id(0), payload);
  EXPECT_FALSE(scheme.verify(writer_id(0), payload, other));
  // Nor does a mutated signature.
  auto bad = sig;
  bad[0] ^= 1;
  EXPECT_FALSE(scheme.verify(writer_id(0), payload, bad));
  // Nor a signature over different content.
  EXPECT_FALSE(
      scheme.verify(writer_id(0), std::vector<std::uint8_t>{9}, sig));
}

TEST(SigScheme, FactoryNames) {
  EXPECT_EQ(make_signature_scheme("oracle")->name(), "oracle");
  EXPECT_EQ(make_signature_scheme("rsa")->name(), "rsa");
}

}  // namespace
}  // namespace fastreg::crypto
