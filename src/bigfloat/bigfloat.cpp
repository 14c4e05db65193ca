#include "bigfloat/bigfloat.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdio>

#include "softfloat/format.hpp"

namespace fpq::bigfloat {

namespace {

using Words = std::vector<std::uint64_t>;
using U128 = unsigned __int128;

// ---- little-endian big-integer helpers ------------------------------------

void trim(Words& w) {
  while (!w.empty() && w.back() == 0) w.pop_back();
}

std::size_t bit_length(const Words& w) {
  if (w.empty()) return 0;
  return 64 * (w.size() - 1) +
         (64 - static_cast<std::size_t>(std::countl_zero(w.back())));
}

bool bit_at(const Words& w, std::size_t i) {
  const std::size_t word = i / 64;
  if (word >= w.size()) return false;
  return (w[word] >> (i % 64)) & 1;
}

/// True when any bit strictly below position `i` is set.
bool any_below(const Words& w, std::size_t i) {
  const std::size_t word = i / 64;
  for (std::size_t k = 0; k < std::min(word, w.size()); ++k) {
    if (w[k] != 0) return true;
  }
  if (word < w.size() && i % 64 != 0) {
    return (w[word] & ((std::uint64_t{1} << (i % 64)) - 1)) != 0;
  }
  return false;
}

Words shift_left(const Words& w, std::size_t bits) {
  if (w.empty() || bits == 0) return w;
  const std::size_t words = bits / 64;
  const std::size_t rem = bits % 64;
  Words out(w.size() + words + 1, 0);
  for (std::size_t i = 0; i < w.size(); ++i) {
    out[i + words] |= rem == 0 ? w[i] : (w[i] << rem);
    if (rem != 0) out[i + words + 1] |= w[i] >> (64 - rem);
  }
  trim(out);
  return out;
}

/// Logical right shift, discarding low bits (caller tracks sticky).
Words shift_right(const Words& w, std::size_t bits) {
  const std::size_t words = bits / 64;
  if (words >= w.size()) return {};
  const std::size_t rem = bits % 64;
  Words out(w.size() - words, 0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = w[i + words] >> rem;
    if (rem != 0 && i + words + 1 < w.size()) {
      out[i] |= w[i + words + 1] << (64 - rem);
    }
  }
  trim(out);
  return out;
}

int compare_words(const Words& a, const Words& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (std::size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

Words add_words(const Words& a, const Words& b) {
  Words out(std::max(a.size(), b.size()) + 1, 0);
  U128 carry = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    U128 sum = carry;
    if (i < a.size()) sum += a[i];
    if (i < b.size()) sum += b[i];
    out[i] = static_cast<std::uint64_t>(sum);
    carry = sum >> 64;
  }
  trim(out);
  return out;
}

/// a - b; requires a >= b.
Words sub_words(const Words& a, const Words& b) {
  Words out(a.size(), 0);
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::uint64_t bi = i < b.size() ? b[i] : 0;
    const std::uint64_t ai = a[i];
    const std::uint64_t d1 = ai - bi;
    const std::uint64_t b1 = ai < bi ? 1u : 0u;
    const std::uint64_t d2 = d1 - borrow;
    const std::uint64_t b2 = d1 < borrow ? 1u : 0u;
    out[i] = d2;
    borrow = b1 | b2;
  }
  assert(borrow == 0 && "sub_words requires a >= b");
  trim(out);
  return out;
}

Words add_small(Words w, std::uint64_t v) {
  U128 carry = v;
  for (std::size_t i = 0; i < w.size() && carry != 0; ++i) {
    const U128 sum = carry + w[i];
    w[i] = static_cast<std::uint64_t>(sum);
    carry = sum >> 64;
  }
  if (carry != 0) w.push_back(static_cast<std::uint64_t>(carry));
  return w;
}

Words mul_words(const Words& a, const Words& b) {
  if (a.empty() || b.empty()) return {};
  Words out(a.size() + b.size(), 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    U128 carry = 0;
    for (std::size_t j = 0; j < b.size(); ++j) {
      U128 cur = out[i + j] + static_cast<U128>(a[i]) * b[j] + carry;
      out[i + j] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
    }
    std::size_t k = i + b.size();
    while (carry != 0) {
      const U128 cur = out[k] + carry;
      out[k] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
      ++k;
    }
  }
  trim(out);
  return out;
}

}  // namespace

// ---- construction ----------------------------------------------------------

BigFloat BigFloat::zero(bool negative) {
  BigFloat f;
  f.kind_ = Kind::kZero;
  f.negative_ = negative;
  return f;
}

BigFloat BigFloat::infinity(bool negative) {
  BigFloat f;
  f.kind_ = Kind::kInf;
  f.negative_ = negative;
  return f;
}

BigFloat BigFloat::nan() {
  BigFloat f;
  f.kind_ = Kind::kNaN;
  return f;
}

BigFloat BigFloat::from_double(double x) {
  if (std::isnan(x)) return nan();
  if (std::isinf(x)) return infinity(std::signbit(x));
  if (x == 0.0) return zero(std::signbit(x));
  BigFloat f;
  f.kind_ = Kind::kFinite;
  f.negative_ = std::signbit(x);
  int e = 0;
  // frexp gives |m| in [0.5, 1); scale to a 53-bit integer exactly.
  const double m = std::frexp(std::fabs(x), &e);
  const auto mant = static_cast<std::uint64_t>(std::ldexp(m, 53));
  f.mantissa_ = {mant};
  f.exp_ = static_cast<std::int64_t>(e) - 53;
  f.normalize();
  return f;
}

BigFloat BigFloat::from_int(std::int64_t v) {
  if (v == 0) return zero(false);
  BigFloat f;
  f.kind_ = Kind::kFinite;
  f.negative_ = v < 0;
  const std::uint64_t mag = f.negative_ ? 0 - static_cast<std::uint64_t>(v)
                                        : static_cast<std::uint64_t>(v);
  f.mantissa_ = {mag};
  f.exp_ = 0;
  f.normalize();
  return f;
}

void BigFloat::normalize() {
  trim(mantissa_);
  if (mantissa_.empty()) {
    kind_ = Kind::kZero;
    exp_ = 0;
    return;
  }
  // Strip trailing zero bits into the exponent (canonical form keeps the
  // mantissa odd — makes equality and bit counting cheap).
  std::size_t tz = 0;
  for (std::size_t i = 0; i < mantissa_.size(); ++i) {
    if (mantissa_[i] == 0) {
      tz += 64;
    } else {
      tz += static_cast<std::size_t>(std::countr_zero(mantissa_[i]));
      break;
    }
  }
  if (tz > 0) {
    mantissa_ = shift_right(mantissa_, tz);
    exp_ += static_cast<std::int64_t>(tz);
  }
}

std::int64_t BigFloat::msb_exponent() const noexcept {
  if (kind_ != Kind::kFinite) return 0;
  return exp_ + static_cast<std::int64_t>(bit_length(mantissa_)) - 1;
}

std::size_t BigFloat::significant_bits() const noexcept {
  if (kind_ != Kind::kFinite) return 0;
  return bit_length(mantissa_);
}

void BigFloat::round_to(unsigned precision, softfloat::Rounding rounding,
                        bool extra_sticky) {
  if (kind_ != Kind::kFinite) return;
  const std::size_t len = bit_length(mantissa_);
  if (len <= precision) {
    if (extra_sticky) {
      // Dropped tail below the kept bits: only away-from-zero directed
      // modes care, and the increment must land at the precision'th bit
      // (one ulp at the target precision), so pad first.
      const bool up =
          (rounding == softfloat::Rounding::kUp && !negative_) ||
          (rounding == softfloat::Rounding::kDown && negative_);
      if (up) {
        const std::size_t pad = precision - len;
        mantissa_ = shift_left(mantissa_, pad);
        exp_ -= static_cast<std::int64_t>(pad);
        mantissa_ = add_small(std::move(mantissa_), 1);
        normalize();
      }
    }
    return;
  }
  const std::size_t drop = len - precision;
  const bool round_bit = bit_at(mantissa_, drop - 1);
  const bool sticky = extra_sticky || any_below(mantissa_, drop - 1);
  Words kept = shift_right(mantissa_, drop);
  const bool lsb = !kept.empty() && (kept[0] & 1);
  bool increment = false;
  switch (rounding) {
    case softfloat::Rounding::kNearestEven:
      increment = round_bit && (sticky || lsb);
      break;
    case softfloat::Rounding::kNearestAway:
      increment = round_bit;
      break;
    case softfloat::Rounding::kTowardZero:
      increment = false;
      break;
    case softfloat::Rounding::kUp:
      increment = !negative_ && (round_bit || sticky);
      break;
    case softfloat::Rounding::kDown:
      increment = negative_ && (round_bit || sticky);
      break;
  }
  if (increment) kept = add_small(std::move(kept), 1);
  mantissa_ = std::move(kept);
  exp_ += static_cast<std::int64_t>(drop);
  normalize();
}

// ---- arithmetic ------------------------------------------------------------

namespace {

// Magnitude comparison of finite nonzero BigFloats via (msb exponent,
// aligned mantissa).
int compare_magnitude(std::int64_t ea, const Words& ma, std::int64_t base_a,
                      std::int64_t eb, const Words& mb,
                      std::int64_t base_b) {
  (void)base_a;
  (void)base_b;
  if (ea != eb) return ea < eb ? -1 : 1;
  // Same MSB exponent: compare bit by bit from the top.
  const std::size_t la = bit_length(ma);
  const std::size_t lb = bit_length(mb);
  const std::size_t n = std::max(la, lb);
  for (std::size_t i = 0; i < n; ++i) {
    const bool ba = i < la && bit_at(ma, la - 1 - i);
    const bool bb = i < lb && bit_at(mb, lb - 1 - i);
    if (ba != bb) return ba ? 1 : -1;
  }
  return 0;
}

}  // namespace

BigFloat BigFloat::add(const BigFloat& a, const BigFloat& b,
                       const Context& ctx) {
  if (a.is_nan() || b.is_nan()) return nan();
  if (a.is_infinity() || b.is_infinity()) {
    if (a.is_infinity() && b.is_infinity()) {
      if (a.negative_ != b.negative_) return nan();  // inf - inf
      return a;
    }
    return a.is_infinity() ? a : b;
  }
  if (a.is_zero() && b.is_zero()) {
    if (a.negative_ == b.negative_) return a;
    return zero(ctx.rounding == softfloat::Rounding::kDown);
  }
  if (a.is_zero()) {
    BigFloat r = b;
    r.round_to(ctx.precision, ctx.rounding, false);
    return r;
  }
  if (b.is_zero()) {
    BigFloat r = a;
    r.round_to(ctx.precision, ctx.rounding, false);
    return r;
  }

  // Alignment guard: beyond precision + 64 bits of exponent gap the
  // smaller operand is pure sticky.
  const std::int64_t msb_a = a.msb_exponent();
  const std::int64_t msb_b = b.msb_exponent();
  const bool a_bigger_mag =
      compare_magnitude(msb_a, a.mantissa_, 0, msb_b, b.mantissa_, 0) >= 0;
  const BigFloat& big = a_bigger_mag ? a : b;
  const BigFloat& small = a_bigger_mag ? b : a;
  const std::int64_t gap = big.msb_exponent() - small.msb_exponent();
  const auto limit = static_cast<std::int64_t>(ctx.precision) + 64;

  BigFloat r;
  r.kind_ = Kind::kFinite;
  r.negative_ = big.negative_;

  if (gap > limit) {
    // small contributes only sticky (and, for subtraction, a borrow of
    // less than one ulp of the guard band).
    const bool subtract = a.negative_ != b.negative_;
    Words m = shift_left(big.mantissa_, 4);  // 4 guard bits
    std::int64_t e = big.exp_ - 4;
    if (subtract) m = sub_words(m, {1});
    r.mantissa_ = std::move(m);
    r.exp_ = e;
    r.round_to(ctx.precision, ctx.rounding, true);
    return r;
  }

  // Exact alignment: bring both mantissas to the smaller exp_ scale.
  const std::int64_t common_exp = std::min(a.exp_, b.exp_);
  Words ma = shift_left(a.mantissa_,
                        static_cast<std::size_t>(a.exp_ - common_exp));
  Words mb = shift_left(b.mantissa_,
                        static_cast<std::size_t>(b.exp_ - common_exp));
  if (a.negative_ == b.negative_) {
    r.mantissa_ = add_words(ma, mb);
    r.negative_ = a.negative_;
  } else {
    const int cmp = compare_words(ma, mb);
    if (cmp == 0) {
      return zero(ctx.rounding == softfloat::Rounding::kDown);
    }
    if (cmp > 0) {
      r.mantissa_ = sub_words(ma, mb);
      r.negative_ = a.negative_;
    } else {
      r.mantissa_ = sub_words(mb, ma);
      r.negative_ = b.negative_;
    }
  }
  r.exp_ = common_exp;
  r.normalize();
  if (r.mantissa_.empty()) {
    return zero(ctx.rounding == softfloat::Rounding::kDown);
  }
  r.round_to(ctx.precision, ctx.rounding, false);
  return r;
}

BigFloat BigFloat::sub(const BigFloat& a, const BigFloat& b,
                       const Context& ctx) {
  return add(a, b.negated(), ctx);
}

BigFloat BigFloat::mul(const BigFloat& a, const BigFloat& b,
                       const Context& ctx) {
  if (a.is_nan() || b.is_nan()) return nan();
  const bool sign = a.negative_ != b.negative_;
  if (a.is_infinity() || b.is_infinity()) {
    if (a.is_zero() || b.is_zero()) return nan();  // 0 * inf
    return infinity(sign);
  }
  if (a.is_zero() || b.is_zero()) return zero(sign);
  BigFloat r;
  r.kind_ = Kind::kFinite;
  r.negative_ = sign;
  r.mantissa_ = mul_words(a.mantissa_, b.mantissa_);
  r.exp_ = a.exp_ + b.exp_;
  r.normalize();
  r.round_to(ctx.precision, ctx.rounding, false);
  return r;
}

BigFloat BigFloat::div(const BigFloat& a, const BigFloat& b,
                       const Context& ctx) {
  if (a.is_nan() || b.is_nan()) return nan();
  const bool sign = a.negative_ != b.negative_;
  if (a.is_infinity()) {
    if (b.is_infinity()) return nan();
    return infinity(sign);
  }
  if (b.is_infinity()) return zero(sign);
  if (b.is_zero()) {
    if (a.is_zero()) return nan();
    return infinity(sign);
  }
  if (a.is_zero()) return zero(sign);

  // Long division producing precision+2 quotient bits plus sticky.
  const auto want = static_cast<std::size_t>(ctx.precision) + 2;
  // Scale numerator so the first quotient bit appears near the top:
  // shift A so that msb(A') >= msb(B) + want.
  const std::int64_t msb_a = static_cast<std::int64_t>(bit_length(a.mantissa_));
  const std::int64_t msb_b = static_cast<std::int64_t>(bit_length(b.mantissa_));
  const std::int64_t pre_shift =
      std::max<std::int64_t>(0, msb_b + static_cast<std::int64_t>(want) -
                                    msb_a);
  Words rem = shift_left(a.mantissa_, static_cast<std::size_t>(pre_shift));
  const Words& divisor = b.mantissa_;

  // Quotient accumulates as a big integer via shift-and-subtract from the
  // highest feasible bit position downward.
  std::int64_t qbit = static_cast<std::int64_t>(bit_length(rem)) -
                      static_cast<std::int64_t>(bit_length(divisor));
  Words quotient;
  while (qbit >= 0) {
    const Words shifted = shift_left(divisor, static_cast<std::size_t>(qbit));
    if (compare_words(rem, shifted) >= 0) {
      rem = sub_words(rem, shifted);
      // set bit qbit of quotient
      const auto word = static_cast<std::size_t>(qbit) / 64;
      if (quotient.size() <= word) quotient.resize(word + 1, 0);
      quotient[word] |= std::uint64_t{1}
                        << (static_cast<std::size_t>(qbit) % 64);
    }
    --qbit;
    if (rem.empty()) break;
  }
  trim(quotient);
  const bool sticky = !rem.empty();

  BigFloat r;
  r.kind_ = Kind::kFinite;
  r.negative_ = sign;
  r.mantissa_ = std::move(quotient);
  // a / b = (A * 2^ea) / (B * 2^eb); we computed floor((A<<s)/B) with the
  // bits below qbit_min truncated. Quotient scale: 2^(ea - eb - s + k)
  // where k is the lowest quotient bit computed (qbit+1 after the loop).
  r.exp_ = a.exp_ - b.exp_ - pre_shift;
  r.normalize();
  if (r.mantissa_.empty()) return zero(sign);
  r.round_to(ctx.precision, ctx.rounding, sticky);
  return r;
}

BigFloat BigFloat::sqrt(const BigFloat& a, const Context& ctx) {
  if (a.is_nan()) return nan();
  if (a.is_zero()) return a;
  if (a.negative_) return nan();
  if (a.is_infinity()) return a;

  // Work on R = M * 2^(exp adjusted to even); digit-by-digit square root
  // producing precision+2 bits.
  const auto want = static_cast<std::size_t>(ctx.precision) + 2;
  // Scale so bit_length(radicand) ~ 2*want and exponent even.
  std::int64_t e = a.exp_;
  Words radicand = a.mantissa_;
  const std::size_t len = bit_length(radicand);
  std::int64_t scale =
      2 * static_cast<std::int64_t>(want) - static_cast<std::int64_t>(len);
  if (scale < 0) scale = 0;
  if ((e - scale) % 2 != 0) ++scale;
  radicand = shift_left(radicand, static_cast<std::size_t>(scale));
  e -= scale;
  // Now compute integer sqrt of `radicand` bit by bit.
  const std::size_t rlen = bit_length(radicand);
  std::int64_t bit = static_cast<std::int64_t>((rlen + 1) / 2);
  Words root;
  Words rem = radicand;
  while (bit >= 0) {
    // trial = (root << (bit+1)) + (1 << 2bit)
    Words trial = shift_left(root, static_cast<std::size_t>(bit) + 1);
    Words one_bit;
    {
      const auto pos = static_cast<std::size_t>(2 * bit);
      one_bit.resize(pos / 64 + 1, 0);
      one_bit[pos / 64] = std::uint64_t{1} << (pos % 64);
    }
    trial = add_words(trial, one_bit);
    if (compare_words(rem, trial) >= 0) {
      rem = sub_words(rem, trial);
      const auto pos = static_cast<std::size_t>(bit);
      if (root.size() <= pos / 64) root.resize(pos / 64 + 1, 0);
      root[pos / 64] |= std::uint64_t{1} << (pos % 64);
    }
    --bit;
  }
  trim(root);
  BigFloat r;
  r.kind_ = Kind::kFinite;
  r.negative_ = false;
  r.mantissa_ = std::move(root);
  r.exp_ = e / 2;
  r.normalize();
  if (r.mantissa_.empty()) return zero(false);
  r.round_to(ctx.precision, ctx.rounding, !rem.empty());
  return r;
}

BigFloat BigFloat::fma(const BigFloat& a, const BigFloat& b,
                       const BigFloat& c, const Context& ctx) {
  // Exact product (unbounded precision), then one rounded add.
  Context exact = ctx;
  exact.precision = static_cast<unsigned>(a.significant_bits() +
                                          b.significant_bits() + 4);
  if (exact.precision < ctx.precision) exact.precision = ctx.precision;
  const BigFloat product = mul(a, b, exact);
  if (product.is_nan()) return nan();
  return add(product, c, ctx);
}

BigFloat BigFloat::negated() const {
  BigFloat r = *this;
  if (!r.is_nan()) r.negative_ = !r.negative_;
  return r;
}

BigFloat BigFloat::abs() const {
  BigFloat r = *this;
  if (!r.is_nan()) r.negative_ = false;
  return r;
}

int BigFloat::compare(const BigFloat& a, const BigFloat& b) {
  if (a.is_nan() || b.is_nan()) return 2;
  if (a.is_zero() && b.is_zero()) return 0;
  // Sign classes (zero sorts with its sign only vs nonzero values).
  const int sa = a.is_zero() ? 0 : (a.negative_ ? -1 : 1);
  const int sb = b.is_zero() ? 0 : (b.negative_ ? -1 : 1);
  if (sa != sb) return sa < sb ? -1 : 1;
  if (sa == 0) return 0;
  const int mag = compare_magnitude(a.msb_exponent(), a.mantissa_, 0,
                                    b.msb_exponent(), b.mantissa_, 0);
  return sa > 0 ? mag : -mag;
}

double BigFloat::to_double() const {
  switch (kind_) {
    case Kind::kZero:
      return negative_ ? -0.0 : 0.0;
    case Kind::kInf:
      return negative_ ? -std::numeric_limits<double>::infinity()
                       : std::numeric_limits<double>::infinity();
    case Kind::kNaN:
      return std::numeric_limits<double>::quiet_NaN();
    case Kind::kFinite:
      break;
  }
  const std::int64_t msb = msb_exponent();
  if (msb > 1024) {
    return negative_ ? -std::numeric_limits<double>::infinity()
                     : std::numeric_limits<double>::infinity();
  }
  // Precision available at this magnitude (53 normal; fewer when
  // subnormal; none below the subnormal range).
  std::int64_t prec = 53;
  if (msb < -1022) prec = msb + 1075;  // subnormal staircase
  if (prec <= 0) {
    // Magnitude in (0, 2^-1074): the candidates are 0 and the smallest
    // subnormal, with the midpoint at exactly 2^-1075. Strictly above the
    // midpoint rounds to the subnormal; the midpoint itself ties to even
    // (zero); below rounds to zero.
    const double tiny = 4.9406564584124654e-324;
    if (prec == 0 && significant_bits() > 1) {
      // msb == -1075 with more than one significant bit: > midpoint.
      return negative_ ? -tiny : tiny;
    }
    return negative_ ? -0.0 : 0.0;
  }
  BigFloat copy = *this;
  copy.round_to(static_cast<unsigned>(prec),
                softfloat::Rounding::kNearestEven, false);
  // Rounding may have bumped the exponent (and with it the precision
  // class); a single re-round is stable.
  const std::int64_t msb2 = copy.msb_exponent();
  if (msb2 > 1024) {
    return negative_ ? -std::numeric_limits<double>::infinity()
                     : std::numeric_limits<double>::infinity();
  }
  // Assemble: take the mantissa as (at most 53-bit) integer * 2^exp.
  const std::size_t len = bit_length(copy.mantissa_);
  assert(len <= 53);
  std::uint64_t mant = copy.mantissa_.empty() ? 0 : copy.mantissa_[0];
  (void)len;
  const double mag =
      std::ldexp(static_cast<double>(mant), static_cast<int>(copy.exp_));
  return negative_ ? -mag : mag;
}

std::string BigFloat::to_string() const {
  switch (kind_) {
    case Kind::kZero:
      return negative_ ? "-0" : "+0";
    case Kind::kInf:
      return negative_ ? "-inf" : "+inf";
    case Kind::kNaN:
      return "nan";
    case Kind::kFinite:
      break;
  }
  char buf[96];
  const double approx = to_double();
  std::snprintf(buf, sizeof buf, "%.17g (%zu bits, 2^%lld scale)", approx,
                significant_bits(), static_cast<long long>(exp_));
  return buf;
}

double relative_error(double approx, const BigFloat& exact,
                      const Context& ctx) {
  if (std::isnan(approx) || exact.is_nan()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (exact.is_zero()) {
    return approx == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
  }
  if (std::isinf(approx) || exact.is_infinity()) {
    const bool same = std::isinf(approx) && exact.is_infinity() &&
                      std::signbit(approx) == exact.negative();
    return same ? 0.0 : std::numeric_limits<double>::infinity();
  }
  const BigFloat diff =
      BigFloat::sub(BigFloat::from_double(approx), exact, ctx);
  const BigFloat rel = BigFloat::div(diff.abs(), exact.abs(), ctx);
  return rel.to_double();
}

template <int kBits>
softfloat::Float<kBits> round_to_format(const BigFloat& x,
                                        softfloat::Rounding mode) {
  static_assert(kBits == 16 || kBits == 32,
                "the encoding below needs the format inside binary64's "
                "normal range");
  using C = softfloat::FormatConstants<kBits>;
  using S = typename C::Storage;
  using R = softfloat::Rounding;
  const bool neg = x.negative();
  const S sign = neg ? C::kSignMask : S{0};
  const std::int64_t e = x.msb_exponent();  // |x| in [2^e, 2^(e+1))
  // Bits kept: p in the normal range, down to the 2^(emin - t) quantum on
  // the subnormal staircase.
  const std::int64_t prec =
      e >= C::kEmin ? C::kPrecision : e - (C::kEmin - C::kSigBits) + 1;
  if (prec <= 0) {  // below the smallest subnormal: it or zero
    bool away = false;
    switch (mode) {
      case R::kNearestEven:  // strictly above the half-quantum tie
        away = prec == 0 && x.significant_bits() > 1;
        break;
      case R::kNearestAway: away = prec == 0; break;
      case R::kTowardZero: break;
      case R::kUp: away = !neg; break;
      case R::kDown: away = neg; break;
    }
    return softfloat::Float<kBits>{static_cast<S>(sign | (away ? 1u : 0u))};
  }
  const BigFloat r = BigFloat::add(
      x, BigFloat::zero(), Context{static_cast<unsigned>(prec), mode});
  if (r.msb_exponent() > C::kEmax) {
    const bool to_inf = mode == R::kNearestEven || mode == R::kNearestAway ||
                        (mode == R::kUp && !neg) || (mode == R::kDown && neg);
    // The largest finite encoding sits one below the infinity's.
    return softfloat::Float<kBits>{
        static_cast<S>(sign | (to_inf ? C::kExpMask : C::kExpMask - 1))};
  }
  // r has at most p bits and lies inside binary64's normal range, so the
  // double is exact; re-encode its fields in the narrow format.
  const auto b = std::bit_cast<std::uint64_t>(r.to_double());
  const int be = static_cast<int>((b >> 52) & 0x7FF) - 1023;
  const std::uint64_t sig =
      (b & ((std::uint64_t{1} << 52) - 1)) | (std::uint64_t{1} << 52);
  if (be >= C::kEmin) {
    return softfloat::Float<kBits>{static_cast<S>(
        sign | (static_cast<S>(be + C::kBias) << C::kSigBits) |
        static_cast<S>((sig >> (52 - C::kSigBits)) & C::kFracMask))};
  }
  return softfloat::Float<kBits>{static_cast<S>(
      sign | static_cast<S>(sig >> (52 - C::kSigBits + (C::kEmin - be))))};
}

template softfloat::Float16 round_to_format<16>(const BigFloat&,
                                                softfloat::Rounding);
template softfloat::Float32 round_to_format<32>(const BigFloat&,
                                                softfloat::Rounding);

}  // namespace fpq::bigfloat
