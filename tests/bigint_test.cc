#include "crypto/bigint.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "crypto/secure_random.h"

namespace lbtrust::crypto {
namespace {

BigInt FromHexOrDie(std::string_view hex) {
  auto r = BigInt::FromHex(hex);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.value();
}

TEST(BigIntTest, ZeroProperties) {
  BigInt z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_FALSE(z.is_negative());
  EXPECT_EQ(z.BitLength(), 0u);
  EXPECT_EQ(z.ToHex(), "0");
  EXPECT_EQ(z.Uint64(), 0u);
}

TEST(BigIntTest, Int64Construction) {
  EXPECT_EQ(BigInt(5).ToHex(), "5");
  EXPECT_EQ(BigInt(-5).ToHex(), "-5");
  EXPECT_EQ(BigInt(0).ToHex(), "0");
  EXPECT_EQ(BigInt(INT64_MIN).ToHex(), "-8000000000000000");
  EXPECT_EQ(BigInt(INT64_MAX).ToHex(), "7fffffffffffffff");
}

TEST(BigIntTest, HexRoundTrip) {
  const char* cases[] = {"0",
                         "1",
                         "ff",
                         "100",
                         "123456789abcdef0",
                         "fedcba98765432100123456789abcdef",
                         "-deadbeefcafebabe1234"};
  for (const char* hex : cases) {
    EXPECT_EQ(FromHexOrDie(hex).ToHex(), hex);
  }
}

TEST(BigIntTest, FromHexRejectsJunk) {
  EXPECT_FALSE(BigInt::FromHex("12g4").ok());
  EXPECT_FALSE(BigInt::FromHex("0x12").ok());
}

TEST(BigIntTest, BytesRoundTrip) {
  BigInt v = FromHexOrDie("0102030405060708090a0b");
  std::string bytes = v.ToBytes();
  EXPECT_EQ(bytes.size(), 11u);
  EXPECT_EQ(BigInt::FromBytes(bytes), v);
  // Padding.
  std::string padded = v.ToBytes(16);
  EXPECT_EQ(padded.size(), 16u);
  EXPECT_EQ(BigInt::FromBytes(padded), v);
}

TEST(BigIntTest, ComparisonRespectSign) {
  EXPECT_LT(BigInt(-3), BigInt(2));
  EXPECT_LT(BigInt(-3), BigInt(-2));
  EXPECT_GT(BigInt(7), BigInt(-7));
  EXPECT_EQ(BigInt(0), BigInt(-0));
  EXPECT_LE(BigInt(4), BigInt(4));
}

TEST(BigIntTest, AddSubSmallMatchesInt64) {
  const int64_t vals[] = {0, 1, -1, 5, -5, 123456789, -987654321, 1L << 40};
  for (int64_t a : vals) {
    for (int64_t b : vals) {
      EXPECT_EQ(BigInt(a) + BigInt(b), BigInt(a + b)) << a << "+" << b;
      EXPECT_EQ(BigInt(a) - BigInt(b), BigInt(a - b)) << a << "-" << b;
      // Guard the reference computation against int64 overflow.
      if (a > -(1L << 31) && a < (1L << 31) && b > -(1L << 31) &&
          b < (1L << 31)) {
        EXPECT_EQ(BigInt(a) * BigInt(b), BigInt(a * b)) << a << "*" << b;
      }
    }
  }
}

TEST(BigIntTest, CarryPropagation) {
  BigInt max64 = FromHexOrDie("ffffffffffffffff");
  EXPECT_EQ((max64 + BigInt(1)).ToHex(), "10000000000000000");
  EXPECT_EQ((FromHexOrDie("10000000000000000") - BigInt(1)).ToHex(),
            "ffffffffffffffff");
}

TEST(BigIntTest, MulWide) {
  BigInt a = FromHexOrDie("ffffffffffffffff");
  EXPECT_EQ((a * a).ToHex(), "fffffffffffffffe0000000000000001");
}

TEST(BigIntTest, Shifts) {
  BigInt one(1);
  EXPECT_EQ((one << 0).ToHex(), "1");
  EXPECT_EQ((one << 4).ToHex(), "10");
  EXPECT_EQ((one << 64).ToHex(), "10000000000000000");
  EXPECT_EQ((one << 127).ToHex(), "80000000000000000000000000000000");
  EXPECT_EQ(((one << 127) >> 127).ToHex(), "1");
  EXPECT_EQ((FromHexOrDie("ff00") >> 8).ToHex(), "ff");
  EXPECT_EQ((FromHexOrDie("ff") >> 9).ToHex(), "0");
}

TEST(BigIntTest, BitAccess) {
  BigInt v = FromHexOrDie("5");  // 101
  EXPECT_TRUE(v.Bit(0));
  EXPECT_FALSE(v.Bit(1));
  EXPECT_TRUE(v.Bit(2));
  EXPECT_FALSE(v.Bit(200));
  EXPECT_EQ(v.BitLength(), 3u);
}

TEST(BigIntTest, DivModInvariantSmall) {
  const int64_t as[] = {0, 1, -1, 17, -17, 100, -100, 123456789};
  const int64_t bs[] = {1, -1, 2, 3, -3, 10, 17, 1000};
  for (int64_t a : as) {
    for (int64_t b : bs) {
      BigInt q, r;
      ASSERT_TRUE(BigInt::DivMod(BigInt(a), BigInt(b), &q, &r).ok());
      EXPECT_EQ(q, BigInt(a / b)) << a << "/" << b;
      EXPECT_EQ(r, BigInt(a % b)) << a << "%" << b;
      // Invariant a = q*b + r.
      EXPECT_EQ(q * BigInt(b) + r, BigInt(a));
    }
  }
}

// Bit-serial long division, one shift, compare and subtract per dividend
// bit: too slow for the library, simple enough to serve as DivMod's oracle.
void BitSerialDivMod(const BigInt& a, const BigInt& b, BigInt* q, BigInt* r) {
  const BigInt mag_a = a.is_negative() ? -a : a;
  const BigInt mag_b = b.is_negative() ? -b : b;
  BigInt quotient;
  BigInt remainder;
  for (size_t i = mag_a.BitLength(); i-- > 0;) {
    remainder = remainder << 1;
    if (mag_a.Bit(i)) remainder = remainder + BigInt(1);
    if (remainder >= mag_b) {
      remainder = remainder - mag_b;
      quotient = quotient + (BigInt(1) << i);
    }
  }
  *q = a.is_negative() != b.is_negative() ? -quotient : quotient;
  *r = a.is_negative() ? -remainder : remainder;
}

// Little-endian limbs -> non-negative integer.
BigInt FromLimbs(const std::vector<uint64_t>& limbs) {
  BigInt out;
  for (size_t i = limbs.size(); i-- > 0;) {
    out = (out << 64) + BigInt::FromUint64(limbs[i]);
  }
  return out;
}

// Operands made of limbs at the edges of Algorithm D's quotient estimate
// reach its correction and add-back steps, which uniformly random operands
// almost never do.
TEST(BigIntTest, DivModMatchesBitSerialReference) {
  const uint64_t kEdges[] = {0, 1, (uint64_t{1} << 63) - 1, uint64_t{1} << 63,
                             ~uint64_t{0}};
  SecureRandom rng(uint64_t{0xD1F});
  auto limb = [&]() {
    uint64_t pick = rng.Uniform(6);
    return pick < 5 ? kEdges[pick] : rng.NextUint64();
  };
  for (int i = 0; i < 1500; ++i) {
    // One- to four-limb divisors; dividends from as many limbs as the
    // divisor up to three more.
    std::vector<uint64_t> bl(1 + rng.Uniform(4));
    std::vector<uint64_t> al(bl.size() + rng.Uniform(4));
    for (uint64_t& l : bl) l = limb();
    for (uint64_t& l : al) l = limb();
    // Normalisation shift 63, shift 0, or whatever the draw gave.
    if (i % 3 == 0) bl.back() = 1;
    if (i % 3 == 1) bl.back() |= uint64_t{1} << 63;
    const BigInt a = FromLimbs(al);
    const BigInt b = FromLimbs(bl);
    if (b.is_zero()) continue;
    for (int signs = 0; signs < 4; ++signs) {
      const BigInt sa = (signs & 1) ? -a : a;
      const BigInt sb = (signs & 2) ? -b : b;
      BigInt q, r, want_q, want_r;
      ASSERT_TRUE(BigInt::DivMod(sa, sb, &q, &r).ok());
      BitSerialDivMod(sa, sb, &want_q, &want_r);
      ASSERT_EQ(q, want_q) << sa.ToHex() << " / " << sb.ToHex();
      ASSERT_EQ(r, want_r) << sa.ToHex() << " % " << sb.ToHex();
    }
  }
}

TEST(BigIntTest, DivModByZeroFails) {
  BigInt q, r;
  EXPECT_FALSE(BigInt::DivMod(BigInt(3), BigInt(0), &q, &r).ok());
}

TEST(BigIntTest, ModNonNegative) {
  auto m = BigInt::Mod(BigInt(-7), BigInt(3));
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(*m, BigInt(2));
}

TEST(BigIntTest, ModUint64) {
  BigInt v = FromHexOrDie("123456789abcdef0123456789abcdef");
  // Cross-check against DivMod.
  for (uint64_t m : {3ull, 7ull, 97ull, 65537ull, 4294967291ull}) {
    BigInt q, r;
    ASSERT_TRUE(BigInt::DivMod(v, BigInt::FromUint64(m), &q, &r).ok());
    EXPECT_EQ(v.ModUint64(m), r.Uint64()) << m;
  }
}

// Property sweep: random arithmetic invariants at several widths.
class BigIntPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BigIntPropertyTest, DivModInvariantRandom) {
  size_t bits = GetParam();
  SecureRandom rng(uint64_t{0xB16B00B5} + bits);
  for (int i = 0; i < 25; ++i) {
    BigInt a = rng.RandomBits(bits);
    BigInt b = rng.RandomBits(bits / 2 + 1);
    BigInt q, r;
    ASSERT_TRUE(BigInt::DivMod(a, b, &q, &r).ok());
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(r, b);
    EXPECT_FALSE(r.is_negative());
  }
}

TEST_P(BigIntPropertyTest, AddSubInverse) {
  size_t bits = GetParam();
  SecureRandom rng(uint64_t{0xC0FFEE} + bits);
  for (int i = 0; i < 25; ++i) {
    BigInt a = rng.RandomBits(bits);
    BigInt b = rng.RandomBits(bits);
    EXPECT_EQ((a + b) - b, a);
    EXPECT_EQ((a - b) + b, a);
    EXPECT_EQ(a + b, b + a);
  }
}

TEST_P(BigIntPropertyTest, MulDistributes) {
  size_t bits = GetParam();
  SecureRandom rng(uint64_t{0xD15EA5E} + bits);
  for (int i = 0; i < 10; ++i) {
    BigInt a = rng.RandomBits(bits);
    BigInt b = rng.RandomBits(bits);
    BigInt c = rng.RandomBits(bits);
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a * b, b * a);
  }
}

TEST_P(BigIntPropertyTest, MontgomeryMatchesPlainModExp) {
  size_t bits = GetParam();
  SecureRandom rng(uint64_t{0xFACADE} + bits);
  for (int i = 0; i < 5; ++i) {
    BigInt m = rng.RandomBits(bits);
    if (!m.is_odd()) m = m + BigInt(1);
    BigInt base = rng.RandomBits(bits);
    BigInt exp = rng.RandomBits(16);
    auto fast = BigInt::ModExp(base, exp, m);
    ASSERT_TRUE(fast.ok());
    // Naive square-and-multiply with explicit Mod.
    auto naive_mod = [&](const BigInt& x) {
      auto r = BigInt::Mod(x, m);
      return r.value();
    };
    BigInt acc(1);
    BigInt b = naive_mod(base);
    for (size_t bit = exp.BitLength(); bit-- > 0;) {
      acc = naive_mod(acc * acc);
      if (exp.Bit(bit)) acc = naive_mod(acc * b);
    }
    EXPECT_EQ(*fast, acc);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BigIntPropertyTest,
                         ::testing::Values(64, 128, 256, 512, 1024));

TEST(BigIntTest, ModExpKnownValues) {
  // 2^10 mod 1000 = 24
  auto r = BigInt::ModExp(BigInt(2), BigInt(10), BigInt(1001));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, BigInt(23));  // 1024 mod 1001
  // Fermat: a^(p-1) = 1 mod p for prime p.
  auto f = BigInt::ModExp(BigInt(12345), BigInt(65536), BigInt(65537));
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(*f, BigInt(1));
}

TEST(BigIntTest, ModExpZeroExponent) {
  auto r = BigInt::ModExp(BigInt(7), BigInt(0), BigInt(13));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, BigInt(1));
}

TEST(BigIntTest, ModExpRejectsEvenModulus) {
  EXPECT_FALSE(BigInt::ModExp(BigInt(2), BigInt(3), BigInt(8)).ok());
}

TEST(BigIntTest, ModInverse) {
  auto inv = BigInt::ModInverse(BigInt(3), BigInt(11));
  ASSERT_TRUE(inv.ok());
  EXPECT_EQ(*inv, BigInt(4));  // 3*4 = 12 = 1 mod 11
  EXPECT_FALSE(BigInt::ModInverse(BigInt(4), BigInt(8)).ok());  // gcd 4
}

TEST(BigIntTest, ModInversePropertyRandom) {
  SecureRandom rng(uint64_t{0x1234});
  BigInt m = rng.RandomBits(256);
  if (!m.is_odd()) m = m + BigInt(1);
  for (int i = 0; i < 10; ++i) {
    BigInt a = rng.RandomBits(200);
    if (!(BigInt::Gcd(a, m) == BigInt(1))) continue;
    auto inv = BigInt::ModInverse(a, m);
    ASSERT_TRUE(inv.ok());
    auto prod = BigInt::Mod(a * *inv, m);
    ASSERT_TRUE(prod.ok());
    EXPECT_EQ(*prod, BigInt(1));
  }
}

TEST(BigIntTest, Gcd) {
  EXPECT_EQ(BigInt::Gcd(BigInt(12), BigInt(18)), BigInt(6));
  EXPECT_EQ(BigInt::Gcd(BigInt(17), BigInt(5)), BigInt(1));
  EXPECT_EQ(BigInt::Gcd(BigInt(0), BigInt(5)), BigInt(5));
  EXPECT_EQ(BigInt::Gcd(BigInt(-12), BigInt(18)), BigInt(6));
}

TEST(BigIntTest, PrimalityKnownPrimes) {
  SecureRandom rng(uint64_t{7});
  auto bytes = [&rng](uint8_t* out, size_t len) { rng.Bytes(out, len); };
  EXPECT_TRUE(IsProbablePrime(BigInt(2), 10, bytes));
  EXPECT_TRUE(IsProbablePrime(BigInt(65537), 10, bytes));
  // 2^127 - 1 is a Mersenne prime.
  BigInt m127 = (BigInt(1) << 127) - BigInt(1);
  EXPECT_TRUE(IsProbablePrime(m127, 20, bytes));
}

TEST(BigIntTest, PrimalityKnownComposites) {
  SecureRandom rng(uint64_t{8});
  auto bytes = [&rng](uint8_t* out, size_t len) { rng.Bytes(out, len); };
  EXPECT_FALSE(IsProbablePrime(BigInt(1), 10, bytes));
  EXPECT_FALSE(IsProbablePrime(BigInt(0), 10, bytes));
  EXPECT_FALSE(IsProbablePrime(BigInt(561), 20, bytes));   // Carmichael
  EXPECT_FALSE(IsProbablePrime(BigInt(65536), 10, bytes));
  BigInt m127 = (BigInt(1) << 127) - BigInt(1);
  EXPECT_FALSE(IsProbablePrime(m127 * BigInt(3), 20, bytes));
}

TEST(MontgomeryTest, RoundTripDomain) {
  BigInt m = FromHexOrDie("fedcba9876543210fedcba9876543211");  // odd
  auto ctx = MontgomeryContext::Create(m);
  ASSERT_TRUE(ctx.ok());
  for (int64_t v : {0L, 1L, 2L, 123456789L}) {
    BigInt x(v);
    EXPECT_EQ(ctx->FromMont(ctx->ToMont(x)), x);
  }
  // Inputs at or beyond the modulus, up to several times its width, and
  // negative ones come back reduced mod n.
  SecureRandom rng(uint64_t{0x4D0});
  BigInt n256 = rng.RandomBits(256);
  if (!n256.is_odd()) n256 = n256 + BigInt(1);
  auto wide = MontgomeryContext::Create(n256);
  ASSERT_TRUE(wide.ok());
  const BigInt one_m = wide->ToMont(BigInt(1));
  for (const BigInt& x :
       {n256 - BigInt(1), n256, n256 + BigInt(1), rng.RandomBits(257),
        rng.RandomBits(400), rng.RandomBits(1000), -rng.RandomBits(100),
        -rng.RandomBits(400)}) {
    auto want = BigInt::Mod(x, n256);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(wide->FromMont(wide->ToMont(x)), *want) << x.ToHex();
    EXPECT_EQ(wide->ToMont(wide->FromMont(x)), *want) << x.ToHex();
    // MulMont reduces its operands too: x times 1 in the domain is x.
    EXPECT_EQ(wide->MulMont(x, one_m), *want) << x.ToHex();
    EXPECT_EQ(wide->MulMont(one_m, x), *want) << x.ToHex();
  }
}

TEST(MontgomeryTest, RejectsEvenModulus) {
  EXPECT_FALSE(MontgomeryContext::Create(BigInt(10)).ok());
  EXPECT_FALSE(MontgomeryContext::Create(BigInt(1)).ok());
}

TEST(MontgomeryTest, MulMatchesSchoolbook) {
  BigInt m = FromHexOrDie("f123456789abcdef123456789abcdef1");
  auto ctx = MontgomeryContext::Create(m);
  ASSERT_TRUE(ctx.ok());
  SecureRandom rng(uint64_t{99});
  for (int i = 0; i < 20; ++i) {
    BigInt a = rng.RandomBits(120);
    BigInt b = rng.RandomBits(120);
    BigInt got = ctx->FromMont(ctx->MulMont(ctx->ToMont(a), ctx->ToMont(b)));
    auto want = BigInt::Mod(a * b, m);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(got, *want);
  }
}

}  // namespace
}  // namespace lbtrust::crypto
