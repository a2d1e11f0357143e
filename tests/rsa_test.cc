#include "crypto/rsa.h"

#include <string>

#include <gtest/gtest.h>

#include "util/strings.h"

namespace lbtrust::crypto {
namespace {

// A 512-bit key keeps the unit suite fast; 1024-bit generation is covered
// once below and used throughout the benchmarks.
RsaKeyPair TestKeyPair(uint64_t seed = 42, size_t bits = 512) {
  SecureRandom rng(seed);
  auto kp = RsaGenerateKeyPair(bits, &rng);
  EXPECT_TRUE(kp.ok()) << kp.status().ToString();
  return kp.value();
}

TEST(RsaTest, KeyGenerationProducesValidKey) {
  RsaKeyPair kp = TestKeyPair();
  EXPECT_EQ(kp.public_key.n.BitLength(), 512u);
  EXPECT_EQ(kp.public_key.e, BigInt(65537));
  EXPECT_EQ(kp.private_key.p * kp.private_key.q, kp.private_key.n);
  // e*d = 1 mod phi
  BigInt phi = (kp.private_key.p - BigInt(1)) * (kp.private_key.q - BigInt(1));
  auto prod = BigInt::Mod(kp.private_key.e * kp.private_key.d, phi);
  ASSERT_TRUE(prod.ok());
  EXPECT_EQ(*prod, BigInt(1));
}

TEST(RsaTest, KeyGenerationIsDeterministicPerSeed) {
  RsaKeyPair a = TestKeyPair(7);
  RsaKeyPair b = TestKeyPair(7);
  RsaKeyPair c = TestKeyPair(8);
  EXPECT_EQ(a.public_key.n, b.public_key.n);
  EXPECT_NE(a.public_key.n, c.public_key.n);
}

TEST(RsaTest, SignVerifyRoundTrip) {
  RsaKeyPair kp = TestKeyPair();
  std::string msg = "says(alice,bob,[|access(carol,file1,read).|])";
  auto sig = RsaSign(kp.private_key, msg);
  ASSERT_TRUE(sig.ok());
  EXPECT_EQ(sig->size(), 64u);  // 512-bit modulus
  EXPECT_TRUE(RsaVerify(kp.public_key, msg, *sig));
}

TEST(RsaTest, VerifyRejectsTamperedMessage) {
  RsaKeyPair kp = TestKeyPair();
  auto sig = RsaSign(kp.private_key, "access(alice,f,read)");
  ASSERT_TRUE(sig.ok());
  EXPECT_FALSE(RsaVerify(kp.public_key, "access(mallory,f,read)", *sig));
}

TEST(RsaTest, VerifyRejectsTamperedSignature) {
  RsaKeyPair kp = TestKeyPair();
  std::string msg = "m";
  auto sig = RsaSign(kp.private_key, msg);
  ASSERT_TRUE(sig.ok());
  std::string bad = *sig;
  bad[10] = static_cast<char>(bad[10] ^ 0x40);
  EXPECT_FALSE(RsaVerify(kp.public_key, msg, bad));
  EXPECT_FALSE(RsaVerify(kp.public_key, msg, sig->substr(1)));  // bad length
}

TEST(RsaTest, VerifyRejectsWrongKey) {
  RsaKeyPair kp1 = TestKeyPair(1);
  RsaKeyPair kp2 = TestKeyPair(2);
  auto sig = RsaSign(kp1.private_key, "m");
  ASSERT_TRUE(sig.ok());
  EXPECT_FALSE(RsaVerify(kp2.public_key, "m", *sig));
}

TEST(RsaTest, CrtMatchesPlainExponentiation) {
  RsaKeyPair kp = TestKeyPair();
  // Strip CRT components; PrivateOp falls back to plain d.
  RsaPrivateKey plain = kp.private_key;
  plain.p = BigInt();
  plain.q = BigInt();
  auto s1 = RsaSign(kp.private_key, "hello");
  auto s2 = RsaSign(plain, "hello");
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(*s1, *s2);
}

TEST(RsaTest, SerializeRoundTrip) {
  RsaKeyPair kp = TestKeyPair();
  auto pub = RsaPublicKey::Deserialize(kp.public_key.Serialize());
  ASSERT_TRUE(pub.ok());
  EXPECT_EQ(pub->n, kp.public_key.n);
  EXPECT_EQ(pub->e, kp.public_key.e);
  auto priv = RsaPrivateKey::Deserialize(kp.private_key.Serialize());
  ASSERT_TRUE(priv.ok());
  auto sig = RsaSign(*priv, "x");
  ASSERT_TRUE(sig.ok());
  EXPECT_TRUE(RsaVerify(kp.public_key, "x", *sig));
}

TEST(RsaTest, DeserializeRejectsJunk) {
  EXPECT_FALSE(RsaPublicKey::Deserialize("onlyonefield").ok());
  EXPECT_FALSE(RsaPublicKey::Deserialize("xx:yy").ok());
  EXPECT_FALSE(RsaPrivateKey::Deserialize("a:b:c").ok());
}

TEST(RsaTest, EncryptDecryptRoundTrip) {
  RsaKeyPair kp = TestKeyPair();
  SecureRandom rng(uint64_t{11});
  std::string secret = "sharedsecret(alice,bob,k123)";
  auto ct = RsaEncrypt(kp.public_key, secret, &rng);
  ASSERT_TRUE(ct.ok());
  auto pt = RsaDecrypt(kp.private_key, *ct);
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(*pt, secret);
}

TEST(RsaTest, DecryptRejectsCorruptedCiphertext) {
  RsaKeyPair kp = TestKeyPair();
  SecureRandom rng(uint64_t{12});
  auto ct = RsaEncrypt(kp.public_key, "msg", &rng);
  ASSERT_TRUE(ct.ok());
  std::string bad = *ct;
  bad[5] = static_cast<char>(bad[5] ^ 0x01);
  auto pt = RsaDecrypt(kp.private_key, bad);
  // Either padding failure or wrong plaintext; must not equal original.
  if (pt.ok()) {
    EXPECT_NE(*pt, "msg");
  }
}

TEST(RsaTest, EncryptRejectsOversizedPlaintext) {
  RsaKeyPair kp = TestKeyPair();
  SecureRandom rng(uint64_t{13});
  std::string big(100, 'x');  // > 64 - 11
  EXPECT_FALSE(RsaEncrypt(kp.public_key, big, &rng).ok());
}

TEST(RsaTest, Generate1024BitKey) {
  SecureRandom rng(uint64_t{2009});
  auto kp = RsaGenerateKeyPair(1024, &rng);
  ASSERT_TRUE(kp.ok()) << kp.status().ToString();
  EXPECT_EQ(kp->public_key.n.BitLength(), 1024u);
  auto sig = RsaSign(kp->private_key, "paper-figure-2");
  ASSERT_TRUE(sig.ok());
  EXPECT_EQ(sig->size(), 128u);
  EXPECT_TRUE(RsaVerify(kp->public_key, "paper-figure-2", *sig));
}

// PKCS#1 v1.5 signing is deterministic, so a key from a fixed seed and its
// signatures over fixed messages are exact values: any change to the
// arithmetic kernels, key generation's RNG draws or the encoding shows here.
TEST(RsaTest, KnownAnswer1024) {
  SecureRandom rng(uint64_t{2009});
  auto kp = RsaGenerateKeyPair(1024, &rng);
  ASSERT_TRUE(kp.ok()) << kp.status().ToString();
  EXPECT_EQ(KeyFingerprint(kp->public_key), "9b1ce9d78f181549");
  const struct {
    const char* message;
    const char* signature_hex;
  } kCases[] = {
      {"",
       "98491112e78fb9e475d3de38f301cce9446981739d3e00f0e6668238b7ac7804"
       "c7739bac99e5b49f7ab91574a75eaaba215f6c1b7dd0e936bfa9881b6dc46efc"
       "dfda50639700679424690102324ec783fbdcf6c4206e4bf1f4499a95615b78b7"
       "5b5d91101ea550c0ac370793523cccc9d53746748a7a670c697f60f576c49a51"},
      {"paper-figure-2",
       "686686c4ccfd26ba61e7cfd1e764b976ea96a575ce641dec70dd88950527cf44"
       "f381595f9ee9682b56d55380aa89734a8cd63579d4df9bc3d065ac2b435191fe"
       "a3de22cd825bf235281213b4f3b37c577b8a2a87481314ffe66faa67c3f66383"
       "72046822bcec0972fe7ac8cee14866d57c81d295188b3ceeae778eb57e955d14"},
      {"says(alice,bob,[|access(carol,file1,read).|])",
       "7925d962ca02de24239d2d9b2dd718a7e5dc6095c058a9e7e3d7bbadec09d1d5"
       "d81d63fbff9d8bf7c080f83641930c4a8a981e3b9892f04fd3079766a161c0a7"
       "dce8c98e02f9add7ca748bb76ebaed07f3050f4a4ade3c029cc9ec266e8b5865"
       "d4a766cc4ea51e49af7605ecbcb0c17b7cfe455386dd3501f409d638b642541b"},
  };
  for (const auto& c : kCases) {
    auto sig = RsaSign(kp->private_key, c.message);
    ASSERT_TRUE(sig.ok());
    EXPECT_EQ(util::HexEncode(*sig), c.signature_hex) << c.message;
    EXPECT_TRUE(RsaVerify(kp->public_key, c.message, *sig)) << c.message;
  }
}

TEST(RsaTest, RejectsBadKeySize) {
  SecureRandom rng(uint64_t{1});
  EXPECT_FALSE(RsaGenerateKeyPair(100, &rng).ok());  // not even/too small
  EXPECT_FALSE(RsaGenerateKeyPair(129, &rng).ok());
}

}  // namespace
}  // namespace lbtrust::crypto
