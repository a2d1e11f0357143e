#ifndef LBTRUST_CRYPTO_BIGINT_H_
#define LBTRUST_CRYPTO_BIGINT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace lbtrust::crypto {

/// Arbitrary-precision signed integer with little-endian 64-bit limbs.
///
/// This is the arithmetic substrate for the RSA implementation (the paper's
/// `rsasign`/`rsaverify` built-ins use 1024-bit RSA). Only the operations the
/// trust layer needs are provided: ring arithmetic, comparison, shifting,
/// division, modular exponentiation (via Montgomery reduction, see
/// MontgomeryContext), modular inverse, and Miller-Rabin primality.
///
/// The kernels work a limb at a time with `unsigned __int128` products:
/// division is Knuth's Algorithm D (one quotient limb per step, estimated
/// from the top two remainder limbs), and modular exponentiation is a 4-bit
/// fixed window over a CIOS Montgomery product on fixed-width k-limb
/// buffers, with R^2 mod n obtained from one such division.
class BigInt {
 public:
  /// Zero.
  BigInt() = default;
  /// From a signed machine integer.
  explicit BigInt(int64_t v);

  static BigInt FromUint64(uint64_t v);
  /// Parses lowercase/uppercase hex (no 0x prefix, may be empty => 0).
  static util::Result<BigInt> FromHex(std::string_view hex);
  /// Big-endian unsigned bytes -> non-negative integer.
  static BigInt FromBytes(const uint8_t* data, size_t len);
  static BigInt FromBytes(const std::string& bytes);

  /// Lowercase hex, no leading zeros ("0" for zero), "-" prefix if negative.
  std::string ToHex() const;
  /// Big-endian magnitude bytes, zero-padded on the left to `width` (0 = no
  /// padding). Sign is discarded.
  std::string ToBytes(size_t width = 0) const;
  /// Low 64 bits of the magnitude.
  uint64_t Uint64() const;

  bool is_zero() const { return limbs_.empty(); }
  bool is_negative() const { return negative_; }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  /// Number of significant bits of the magnitude (0 for zero).
  size_t BitLength() const;
  /// Value of bit `i` of the magnitude.
  bool Bit(size_t i) const;

  /// Three-way comparison (-1, 0, +1) respecting sign.
  static int Compare(const BigInt& a, const BigInt& b);

  BigInt operator-() const;
  BigInt operator+(const BigInt& other) const;
  BigInt operator-(const BigInt& other) const;
  BigInt operator*(const BigInt& other) const;
  BigInt operator<<(size_t bits) const;
  BigInt operator>>(size_t bits) const;

  /// Truncated division: q = a / b rounded toward zero, r has sign of a.
  /// Fails on division by zero.
  static util::Status DivMod(const BigInt& a, const BigInt& b, BigInt* q,
                             BigInt* r);
  /// Non-negative remainder a mod m (m > 0).
  static util::Result<BigInt> Mod(const BigInt& a, const BigInt& m);
  /// Magnitude modulo a small modulus; requires m != 0 and *this >= 0.
  uint64_t ModUint64(uint64_t m) const;

  /// (base ^ exp) mod m for m odd > 1, exp >= 0, via MontgomeryContext.
  static util::Result<BigInt> ModExp(const BigInt& base, const BigInt& exp,
                                     const BigInt& m);
  /// Multiplicative inverse of a modulo m (extended Euclid); fails if
  /// gcd(a, m) != 1.
  static util::Result<BigInt> ModInverse(const BigInt& a, const BigInt& m);
  static BigInt Gcd(BigInt a, BigInt b);

  friend bool operator==(const BigInt& a, const BigInt& b) {
    return Compare(a, b) == 0;
  }
  friend bool operator!=(const BigInt& a, const BigInt& b) {
    return Compare(a, b) != 0;
  }
  friend bool operator<(const BigInt& a, const BigInt& b) {
    return Compare(a, b) < 0;
  }
  friend bool operator<=(const BigInt& a, const BigInt& b) {
    return Compare(a, b) <= 0;
  }
  friend bool operator>(const BigInt& a, const BigInt& b) {
    return Compare(a, b) > 0;
  }
  friend bool operator>=(const BigInt& a, const BigInt& b) {
    return Compare(a, b) >= 0;
  }

  const std::vector<uint64_t>& limbs() const { return limbs_; }

 private:
  friend class MontgomeryContext;

  void Trim();
  // Magnitude helpers ignoring sign.
  static std::vector<uint64_t> AddMag(const std::vector<uint64_t>& a,
                                      const std::vector<uint64_t>& b);
  // Requires |a| >= |b|.
  static std::vector<uint64_t> SubMag(const std::vector<uint64_t>& a,
                                      const std::vector<uint64_t>& b);
  static int CompareMag(const std::vector<uint64_t>& a,
                        const std::vector<uint64_t>& b);

  std::vector<uint64_t> limbs_;  // little-endian, no trailing zero limbs
  bool negative_ = false;        // never set when limbs_ is empty
};

/// Precomputed Montgomery domain for a fixed odd modulus n of k limbs
/// (R = 2^(64*k)); makes repeated modular multiplication (the RSA hot path)
/// division-free. Every entry point first reduces its operands mod n, so
/// any integer, including a negative one or one wider than n, is accepted.
class MontgomeryContext {
 public:
  /// `modulus` must be odd and > 1.
  static util::Result<MontgomeryContext> Create(const BigInt& modulus);

  const BigInt& modulus() const { return n_; }

  /// a*R mod n and a*R^{-1} mod n: into / out of the Montgomery domain.
  BigInt ToMont(const BigInt& a) const;
  BigInt FromMont(const BigInt& a) const;
  /// Montgomery product a*b*R^{-1} mod n: for in-domain a and b, their
  /// in-domain product.
  BigInt MulMont(const BigInt& a, const BigInt& b) const;
  /// (base ^ |exp|) mod n with base in the normal domain; 4-bit window.
  BigInt ModExp(const BigInt& base, const BigInt& exp) const;

 private:
  MontgomeryContext() = default;

  // Writes a mod n into the k-limb buffer `out`.
  void Load(const BigInt& a, uint64_t* out) const;
  // out = a*b*R^{-1} mod n for k-limb a, b < n (CIOS: multiply and reduce
  // interleaved a limb of b at a time). `t` is k+2 limbs of scratch; out may
  // alias a or b.
  void Mul(const uint64_t* a, const uint64_t* b, uint64_t* out,
           uint64_t* t) const;
  // MulMont with a k-limb right operand b < n.
  BigInt MulBy(const BigInt& a, const uint64_t* b) const;

  BigInt n_;
  uint64_t n0_inv_ = 0;        // -n^{-1} mod 2^64
  std::vector<uint64_t> r2_;   // R^2 mod n as exactly k limbs
  size_t k_ = 0;               // limb count of n
};

/// Miller-Rabin probabilistic primality test; `rounds` random bases drawn
/// from `rng_bytes` (a callable producing uniform random bytes).
/// Deterministic small-prime trial division happens first.
bool IsProbablePrime(const BigInt& n, int rounds,
                     const std::function<void(uint8_t*, size_t)>& rng_bytes);

}  // namespace lbtrust::crypto

#endif  // LBTRUST_CRYPTO_BIGINT_H_
