#include "crypto/bigint.h"

#include <algorithm>

#include "util/strings.h"

namespace lbtrust::crypto {

using util::InvalidArgument;
using util::Result;
using util::Status;

namespace {
using uint128 = unsigned __int128;

// Knuth's Algorithm D (TAOCP vol. 2, 4.3.1) on 64-bit limbs: divides the
// magnitude u by the magnitude v, where v.back() != 0 and
// u.size() >= v.size(). Leaves u.size() - v.size() + 1 quotient limbs in *q
// and v.size() remainder limbs in *r, both untrimmed.
void DivModLimbs(const std::vector<uint64_t>& u,
                 const std::vector<uint64_t>& v, std::vector<uint64_t>* q,
                 std::vector<uint64_t>* r) {
  const size_t n = v.size();
  const size_t m = u.size() - n;
  q->assign(m + 1, 0);
  if (n == 1) {
    uint128 rem = 0;
    for (size_t j = u.size(); j-- > 0;) {
      rem = (rem << 64) | u[j];
      (*q)[j] = static_cast<uint64_t>(rem / v[0]);
      rem %= v[0];
    }
    r->assign(1, static_cast<uint64_t>(rem));
    return;
  }
  // D1: shift both operands left until the divisor's top bit is set; the
  // quotient-limb estimate below is then at most two too large.
  const int s = __builtin_clzll(v[n - 1]);
  auto spill = [s](uint64_t low) { return s == 0 ? 0 : low >> (64 - s); };
  std::vector<uint64_t> vn(n);
  std::vector<uint64_t> un(u.size() + 1);
  for (size_t i = n; i-- > 1;) vn[i] = (v[i] << s) | spill(v[i - 1]);
  vn[0] = v[0] << s;
  un[u.size()] = spill(u.back());
  for (size_t i = u.size(); i-- > 1;) un[i] = (u[i] << s) | spill(u[i - 1]);
  un[0] = u[0] << s;
  const uint64_t v1 = vn[n - 1];
  const uint64_t v2 = vn[n - 2];
  for (size_t j = m + 1; j-- > 0;) {
    // D3: estimate the quotient limb from the remainder's top two limbs and
    // correct it against the divisor's top two.
    uint128 num = (static_cast<uint128>(un[j + n]) << 64) | un[j + n - 1];
    uint128 qhat = num / v1;
    uint128 rhat = num % v1;
    while ((qhat >> 64) != 0 ||
           qhat * v2 > ((rhat << 64) | un[j + n - 2])) {
      --qhat;
      rhat += v1;
      if ((rhat >> 64) != 0) break;
    }
    // D4: subtract qhat * v from the window un[j .. j+n].
    uint64_t qj = static_cast<uint64_t>(qhat);
    uint64_t carry = 0;
    uint64_t borrow = 0;
    for (size_t i = 0; i < n; ++i) {
      uint128 prod = static_cast<uint128>(qj) * vn[i] + carry;
      carry = static_cast<uint64_t>(prod >> 64);
      uint128 diff = static_cast<uint128>(un[i + j]) -
                     static_cast<uint64_t>(prod) - borrow;
      un[i + j] = static_cast<uint64_t>(diff);
      borrow = static_cast<uint64_t>(diff >> 64) & 1;
    }
    uint128 top = static_cast<uint128>(un[j + n]) - carry - borrow;
    un[j + n] = static_cast<uint64_t>(top);
    // D6: the window went negative, so qhat was still one too large (a
    // case of probability about 2^-63): add v back.
    if ((top >> 64) != 0) {
      --qj;
      uint64_t c = 0;
      for (size_t i = 0; i < n; ++i) {
        uint128 sum = static_cast<uint128>(un[i + j]) + vn[i] + c;
        un[i + j] = static_cast<uint64_t>(sum);
        c = static_cast<uint64_t>(sum >> 64);
      }
      un[j + n] += c;
    }
    (*q)[j] = qj;
  }
  // D8: the remainder is un[0 .. n-1] shifted back right.
  r->resize(n);
  for (size_t i = 0; i < n; ++i) {
    (*r)[i] = (un[i] >> s) | (s == 0 ? 0 : un[i + 1] << (64 - s));
  }
}

// Three-way comparison of two k-limb magnitudes.
int CompareLimbs(const uint64_t* a, const uint64_t* b, size_t k) {
  for (size_t i = k; i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}
}  // namespace

BigInt::BigInt(int64_t v) {
  uint64_t mag;
  if (v < 0) {
    negative_ = true;
    mag = static_cast<uint64_t>(-(v + 1)) + 1;  // avoids INT64_MIN overflow
  } else {
    mag = static_cast<uint64_t>(v);
  }
  if (mag != 0) limbs_.push_back(mag);
  if (limbs_.empty()) negative_ = false;
}

BigInt BigInt::FromUint64(uint64_t v) {
  BigInt out;
  if (v != 0) out.limbs_.push_back(v);
  return out;
}

Result<BigInt> BigInt::FromHex(std::string_view hex) {
  BigInt out;
  bool negative = false;
  if (!hex.empty() && hex[0] == '-') {
    negative = true;
    hex.remove_prefix(1);
  }
  uint64_t limb = 0;
  int shift = 0;
  for (size_t i = 0; i < hex.size(); ++i) {
    char c = hex[hex.size() - 1 - i];
    int nibble;
    if (c >= '0' && c <= '9') {
      nibble = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      nibble = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      nibble = c - 'A' + 10;
    } else {
      return InvalidArgument(util::StrCat("bad hex digit '", c, "'"));
    }
    limb |= static_cast<uint64_t>(nibble) << shift;
    shift += 4;
    if (shift == 64) {
      out.limbs_.push_back(limb);
      limb = 0;
      shift = 0;
    }
  }
  if (limb != 0) out.limbs_.push_back(limb);
  out.Trim();
  out.negative_ = negative && !out.limbs_.empty();
  return out;
}

BigInt BigInt::FromBytes(const uint8_t* data, size_t len) {
  BigInt out;
  for (size_t i = 0; i < len; ++i) {
    size_t bit = (len - 1 - i) * 8;
    size_t limb_idx = bit / 64;
    size_t limb_shift = bit % 64;
    if (out.limbs_.size() <= limb_idx) out.limbs_.resize(limb_idx + 1, 0);
    out.limbs_[limb_idx] |= static_cast<uint64_t>(data[i]) << limb_shift;
  }
  out.Trim();
  return out;
}

BigInt BigInt::FromBytes(const std::string& bytes) {
  return FromBytes(reinterpret_cast<const uint8_t*>(bytes.data()),
                   bytes.size());
}

std::string BigInt::ToHex() const {
  if (is_zero()) return "0";
  std::string out;
  if (negative_) out.push_back('-');
  static constexpr char kDigits[] = "0123456789abcdef";
  bool leading = true;
  for (size_t i = limbs_.size(); i-- > 0;) {
    for (int shift = 60; shift >= 0; shift -= 4) {
      int nibble = static_cast<int>((limbs_[i] >> shift) & 0xf);
      if (leading && nibble == 0) continue;
      leading = false;
      out.push_back(kDigits[nibble]);
    }
  }
  return out;
}

std::string BigInt::ToBytes(size_t width) const {
  size_t nbytes = (BitLength() + 7) / 8;
  size_t total = std::max(nbytes, width);
  std::string out(total, '\0');
  for (size_t i = 0; i < nbytes; ++i) {
    size_t bit = i * 8;
    uint8_t byte = static_cast<uint8_t>(limbs_[bit / 64] >> (bit % 64));
    out[total - 1 - i] = static_cast<char>(byte);
  }
  return out;
}

uint64_t BigInt::Uint64() const { return limbs_.empty() ? 0 : limbs_[0]; }

size_t BigInt::BitLength() const {
  if (limbs_.empty()) return 0;
  uint64_t top = limbs_.back();
  size_t bits = (limbs_.size() - 1) * 64;
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigInt::Bit(size_t i) const {
  size_t limb = i / 64;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 64)) & 1;
}

void BigInt::Trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
  if (limbs_.empty()) negative_ = false;
}

int BigInt::CompareMag(const std::vector<uint64_t>& a,
                       const std::vector<uint64_t>& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

int BigInt::Compare(const BigInt& a, const BigInt& b) {
  if (a.negative_ != b.negative_) return a.negative_ ? -1 : 1;
  int mag = CompareMag(a.limbs_, b.limbs_);
  return a.negative_ ? -mag : mag;
}

std::vector<uint64_t> BigInt::AddMag(const std::vector<uint64_t>& a,
                                     const std::vector<uint64_t>& b) {
  const std::vector<uint64_t>& big = a.size() >= b.size() ? a : b;
  const std::vector<uint64_t>& small = a.size() >= b.size() ? b : a;
  std::vector<uint64_t> out(big.size() + 1, 0);
  uint64_t carry = 0;
  for (size_t i = 0; i < big.size(); ++i) {
    uint128 sum = static_cast<uint128>(big[i]) + carry;
    if (i < small.size()) sum += small[i];
    out[i] = static_cast<uint64_t>(sum);
    carry = static_cast<uint64_t>(sum >> 64);
  }
  out[big.size()] = carry;
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

std::vector<uint64_t> BigInt::SubMag(const std::vector<uint64_t>& a,
                                     const std::vector<uint64_t>& b) {
  std::vector<uint64_t> out(a.size(), 0);
  uint64_t borrow = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t bi = i < b.size() ? b[i] : 0;
    uint64_t ai = a[i];
    uint64_t sub = bi + borrow;
    // Detect borrow-out: sub may wrap when bi == UINT64_MAX and borrow == 1.
    uint64_t next_borrow = (sub < bi) || (ai < sub) ? 1 : 0;
    out[i] = ai - sub;
    borrow = next_borrow;
  }
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

BigInt BigInt::operator-() const {
  BigInt out = *this;
  if (!out.limbs_.empty()) out.negative_ = !out.negative_;
  return out;
}

BigInt BigInt::operator+(const BigInt& other) const {
  BigInt out;
  if (negative_ == other.negative_) {
    out.limbs_ = AddMag(limbs_, other.limbs_);
    out.negative_ = negative_ && !out.limbs_.empty();
    return out;
  }
  int cmp = CompareMag(limbs_, other.limbs_);
  if (cmp == 0) return out;  // zero
  if (cmp > 0) {
    out.limbs_ = SubMag(limbs_, other.limbs_);
    out.negative_ = negative_;
  } else {
    out.limbs_ = SubMag(other.limbs_, limbs_);
    out.negative_ = other.negative_;
  }
  out.Trim();
  return out;
}

BigInt BigInt::operator-(const BigInt& other) const { return *this + (-other); }

BigInt BigInt::operator*(const BigInt& other) const {
  BigInt out;
  if (is_zero() || other.is_zero()) return out;
  out.limbs_.assign(limbs_.size() + other.limbs_.size(), 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    uint64_t carry = 0;
    for (size_t j = 0; j < other.limbs_.size(); ++j) {
      uint128 cur = static_cast<uint128>(limbs_[i]) * other.limbs_[j] +
                    out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    out.limbs_[i + other.limbs_.size()] += carry;
  }
  out.Trim();
  out.negative_ = (negative_ != other.negative_) && !out.limbs_.empty();
  return out;
}

BigInt BigInt::operator<<(size_t bits) const {
  if (is_zero() || bits == 0) {
    BigInt out = *this;
    return out;
  }
  size_t limb_shift = bits / 64;
  size_t bit_shift = bits % 64;
  BigInt out;
  out.negative_ = negative_;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= limbs_[i] << bit_shift;
    if (bit_shift != 0) {
      out.limbs_[i + limb_shift + 1] |= limbs_[i] >> (64 - bit_shift);
    }
  }
  out.Trim();
  return out;
}

BigInt BigInt::operator>>(size_t bits) const {
  size_t limb_shift = bits / 64;
  size_t bit_shift = bits % 64;
  BigInt out;
  if (limb_shift >= limbs_.size()) return out;
  out.negative_ = negative_;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < out.limbs_.size(); ++i) {
    out.limbs_[i] = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      out.limbs_[i] |= limbs_[i + limb_shift + 1] << (64 - bit_shift);
    }
  }
  out.Trim();
  return out;
}

Status BigInt::DivMod(const BigInt& a, const BigInt& b, BigInt* q, BigInt* r) {
  if (b.is_zero()) return InvalidArgument("division by zero");
  // Word-level long division: O(limbs(q) * limbs(b)). Key generation
  // (ModInverse, Gcd, dp/dq), CRT recombination and the base reduction of
  // every ModExp all come through here.
  int cmp = CompareMag(a.limbs_, b.limbs_);
  if (cmp < 0) {
    *q = BigInt();
    *r = a;
    return util::OkStatus();
  }
  BigInt quotient;
  BigInt remainder;
  DivModLimbs(a.limbs_, b.limbs_, &quotient.limbs_, &remainder.limbs_);
  quotient.Trim();
  remainder.Trim();
  quotient.negative_ = (a.negative_ != b.negative_) && !quotient.limbs_.empty();
  remainder.negative_ = a.negative_ && !remainder.limbs_.empty();
  *q = std::move(quotient);
  *r = std::move(remainder);
  return util::OkStatus();
}

Result<BigInt> BigInt::Mod(const BigInt& a, const BigInt& m) {
  if (m.is_zero() || m.is_negative()) {
    return InvalidArgument("modulus must be positive");
  }
  BigInt q, r;
  LB_RETURN_IF_ERROR(DivMod(a, m, &q, &r));
  if (r.is_negative()) r = r + m;
  return r;
}

uint64_t BigInt::ModUint64(uint64_t m) const {
  // Magnitude only; callers use this for small-prime trial division.
  uint128 rem = 0;
  for (size_t i = limbs_.size(); i-- > 0;) {
    rem = ((rem << 64) | limbs_[i]) % m;
  }
  return static_cast<uint64_t>(rem);
}

Result<BigInt> BigInt::ModExp(const BigInt& base, const BigInt& exp,
                              const BigInt& m) {
  LB_ASSIGN_OR_RETURN(MontgomeryContext ctx, MontgomeryContext::Create(m));
  if (exp.is_negative()) return InvalidArgument("negative exponent");
  return ctx.ModExp(base, exp);
}

Result<BigInt> BigInt::ModInverse(const BigInt& a, const BigInt& m) {
  if (m.is_zero() || m.is_negative()) {
    return InvalidArgument("modulus must be positive");
  }
  // Extended Euclid on (a mod m, m).
  LB_ASSIGN_OR_RETURN(BigInt r0, Mod(a, m));
  BigInt r1 = m;
  BigInt s0(1), s1(0);
  while (!r1.is_zero()) {
    BigInt q, r;
    Status st = DivMod(r0, r1, &q, &r);
    if (!st.ok()) return st;
    BigInt s = s0 - q * s1;
    r0 = r1;
    r1 = r;
    s0 = s1;
    s1 = s;
  }
  if (!(r0 == BigInt(1))) {
    return InvalidArgument("not invertible: gcd != 1");
  }
  return Mod(s0, m);
}

BigInt BigInt::Gcd(BigInt a, BigInt b) {
  a.negative_ = false;
  b.negative_ = false;
  while (!b.is_zero()) {
    BigInt q, r;
    Status st = DivMod(a, b, &q, &r);
    (void)st;  // b != 0 here
    a = b;
    b = r;
  }
  return a;
}

// ---------------------------------------------------------------------------
// Montgomery arithmetic
// ---------------------------------------------------------------------------

Result<MontgomeryContext> MontgomeryContext::Create(const BigInt& modulus) {
  if (modulus.is_negative() || modulus.is_zero() || !modulus.is_odd() ||
      modulus == BigInt(1)) {
    return InvalidArgument("Montgomery modulus must be odd and > 1");
  }
  MontgomeryContext ctx;
  ctx.n_ = modulus;
  ctx.k_ = modulus.limbs_.size();
  // n0_inv = -n^{-1} mod 2^64 by Newton iteration (n odd).
  uint64_t n0 = modulus.limbs_[0];
  uint64_t inv = 1;
  for (int i = 0; i < 6; ++i) {  // 2^(2^6) >= 2^64 bits of precision
    inv *= 2 - n0 * inv;
  }
  ctx.n0_inv_ = ~inv + 1;  // -inv mod 2^64
  // r2 = 2^(128k) mod n: the remainder of one division.
  std::vector<uint64_t> r_squared(2 * ctx.k_ + 1, 0);
  r_squared.back() = 1;
  std::vector<uint64_t> quotient;
  DivModLimbs(r_squared, modulus.limbs_, &quotient, &ctx.r2_);
  return ctx;
}

void MontgomeryContext::Load(const BigInt& a, uint64_t* out) const {
  const std::vector<uint64_t>* limbs = &a.limbs_;
  BigInt reduced;
  if (a.negative_ || BigInt::CompareMag(a.limbs_, n_.limbs_) >= 0) {
    util::Result<BigInt> mod = BigInt::Mod(a, n_);  // n_ > 1: cannot fail
    if (mod.ok()) reduced = std::move(mod.value());
    limbs = &reduced.limbs_;
  }
  std::fill(out, out + k_, 0);
  std::copy(limbs->begin(), limbs->end(), out);
}

void MontgomeryContext::Mul(const uint64_t* a, const uint64_t* b,
                            uint64_t* out, uint64_t* t) const {
  const size_t k = k_;
  const uint64_t* n = n_.limbs_.data();
  const uint64_t n0_inv = n0_inv_;
  std::fill(t, t + k + 2, 0);
  for (size_t i = 0; i < k; ++i) {
    // t += a * b[i]
    const uint64_t bi = b[i];
    uint64_t carry = 0;
    for (size_t j = 0; j < k; ++j) {
      uint128 cur = static_cast<uint128>(a[j]) * bi + t[j] + carry;
      t[j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    uint128 top = static_cast<uint128>(t[k]) + carry;
    t[k] = static_cast<uint64_t>(top);
    t[k + 1] = static_cast<uint64_t>(top >> 64);
    // t = (t + m * n) / 2^64, with m chosen so the low limb cancels.
    uint64_t m = t[0] * n0_inv;
    uint128 cur = static_cast<uint128>(m) * n[0] + t[0];
    carry = static_cast<uint64_t>(cur >> 64);
    for (size_t j = 1; j < k; ++j) {
      cur = static_cast<uint128>(m) * n[j] + t[j] + carry;
      t[j - 1] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    top = static_cast<uint128>(t[k]) + carry;
    t[k - 1] = static_cast<uint64_t>(top);
    t[k] = t[k + 1] + static_cast<uint64_t>(top >> 64);
  }
  // a, b < n keeps t < 2n, so one conditional subtraction finishes.
  if (t[k] == 0 && CompareLimbs(t, n, k) < 0) {
    std::copy(t, t + k, out);
    return;
  }
  uint64_t borrow = 0;
  for (size_t j = 0; j < k; ++j) {
    uint128 diff = static_cast<uint128>(t[j]) - n[j] - borrow;
    out[j] = static_cast<uint64_t>(diff);
    borrow = static_cast<uint64_t>(diff >> 64) & 1;
  }
}

BigInt MontgomeryContext::MulBy(const BigInt& a, const uint64_t* b) const {
  std::vector<uint64_t> buf(2 * k_ + 2);
  Load(a, buf.data());
  Mul(buf.data(), b, buf.data(), buf.data() + k_);
  BigInt out;
  out.limbs_.assign(buf.begin(), buf.begin() + static_cast<long>(k_));
  out.Trim();
  return out;
}

BigInt MontgomeryContext::MulMont(const BigInt& a, const BigInt& b) const {
  std::vector<uint64_t> rhs(k_);
  Load(b, rhs.data());
  return MulBy(a, rhs.data());
}

BigInt MontgomeryContext::ToMont(const BigInt& a) const {
  return MulBy(a, r2_.data());
}

BigInt MontgomeryContext::FromMont(const BigInt& a) const {
  std::vector<uint64_t> one(k_, 0);
  one[0] = 1;
  return MulBy(a, one.data());
}

BigInt MontgomeryContext::ModExp(const BigInt& base, const BigInt& exp) const {
  if (exp.is_zero()) return BigInt(1);
  const size_t k = k_;
  // One buffer for the whole call: base^1 .. base^15 in the Montgomery
  // domain (base^d at table + (d-1)*k), the accumulator, and the product's
  // scratch. Past Load, which divides only a base >= n, nothing allocates.
  std::vector<uint64_t> scratch(17 * k + 2);
  uint64_t* table = scratch.data();
  uint64_t* acc = table + 15 * k;
  uint64_t* t = acc + k;
  Load(base, table);
  Mul(table, r2_.data(), table, t);
  for (size_t d = 1; d < 15; ++d) {
    Mul(table + (d - 1) * k, table, table + d * k, t);
  }
  // 4-bit fixed window, most significant first; a window never straddles
  // a limb, and the top one is nonzero, so it seeds the accumulator.
  const std::vector<uint64_t>& e = exp.limbs_;
  auto digit = [&e](size_t w) {
    return static_cast<size_t>((e[w / 16] >> (w % 16 * 4)) & 0xf);
  };
  size_t w = (exp.BitLength() + 3) / 4 - 1;
  std::copy(table + (digit(w) - 1) * k, table + digit(w) * k, acc);
  while (w-- > 0) {
    for (int s = 0; s < 4; ++s) Mul(acc, acc, acc, t);
    if (size_t d = digit(w); d != 0) Mul(acc, table + (d - 1) * k, acc, t);
  }
  // Leave the domain: a Montgomery product with plain 1.
  std::fill(table, table + k, 0);
  table[0] = 1;
  Mul(acc, table, acc, t);
  BigInt out;
  out.limbs_.assign(acc, acc + k);
  out.Trim();
  return out;
}

// ---------------------------------------------------------------------------
// Primality
// ---------------------------------------------------------------------------

namespace {
// Small primes for trial division before Miller-Rabin.
const uint64_t kSmallPrimes[] = {
    2,   3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,
    47,  53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107,
    109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
    191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263,
    269, 271, 277, 281, 283, 293, 307, 311, 313, 317, 331, 337, 347, 349,
    353, 359, 367, 373, 379, 383, 389, 397, 401, 409, 419, 421, 431, 433,
    439, 443, 449, 457, 461, 463, 467, 479, 487, 491, 499, 503, 509, 521,
    523, 541, 547, 557, 563, 569, 571, 577, 587, 593, 599, 601, 607, 613,
    617, 619, 631, 641, 643, 647, 653, 659, 661, 673, 677, 683, 691, 701,
    709, 719, 727, 733, 739, 743, 751, 757, 761, 769, 773, 787, 797, 809,
    811, 821, 823, 827, 829, 839, 853, 857, 859, 863, 877, 881, 883, 887,
    907, 911, 919, 929, 937, 941, 947, 953, 967, 971, 977, 983, 991, 997};
}  // namespace

bool IsProbablePrime(const BigInt& n, int rounds,
                     const std::function<void(uint8_t*, size_t)>& rng_bytes) {
  if (n.is_negative() || n.is_zero()) return false;
  if (n.BitLength() <= 10) {
    uint64_t v = n.Uint64();
    for (uint64_t p : kSmallPrimes) {
      if (v == p) return true;
      if (v % p == 0) return false;
    }
    return v > 1;
  }
  for (uint64_t p : kSmallPrimes) {
    if (n.ModUint64(p) == 0) return false;
  }
  if (!n.is_odd()) return false;
  // n - 1 = d * 2^s
  BigInt n_minus_1 = n - BigInt(1);
  size_t s = 0;
  BigInt d = n_minus_1;
  while (!d.is_odd()) {
    d = d >> 1;
    ++s;
  }
  util::Result<MontgomeryContext> ctx_or = MontgomeryContext::Create(n);
  if (!ctx_or.ok()) return false;
  const MontgomeryContext& ctx = ctx_or.value();
  // The squarings stay in the Montgomery domain, where n-1 is this value.
  const BigInt minus_one_m = ctx.ToMont(n_minus_1);
  size_t nbytes = (n.BitLength() + 7) / 8;
  std::vector<uint8_t> buf(nbytes);
  for (int round = 0; round < rounds; ++round) {
    // Random base in [2, n-2].
    BigInt a;
    do {
      rng_bytes(buf.data(), buf.size());
      a = BigInt::FromBytes(buf.data(), buf.size());
      util::Result<BigInt> m = BigInt::Mod(a, n - BigInt(3));
      a = m.ok() ? m.value() + BigInt(2) : BigInt(2);
    } while (a >= n - BigInt(1) || a <= BigInt(1));
    BigInt x = ctx.ModExp(a, d);
    if (x == BigInt(1) || x == n_minus_1) continue;
    x = ctx.ToMont(x);
    bool witness = true;
    for (size_t i = 0; i + 1 < s; ++i) {
      x = ctx.MulMont(x, x);
      if (x == minus_one_m) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

}  // namespace lbtrust::crypto
