// fpq::bigfloat — arbitrary-precision binary floating point.
//
// The paper's §V calls for exactly this: "A system that would allow code
// written using floating point to be seamlessly compiled to use arbitrary
// precision would enable developers to easily sanity check the behavior
// of their code." BigFloat is that substrate: a correctly rounded
// arbitrary-precision binary float used by fpq::shadow to re-execute
// computations at high precision next to binary64 and measure the damage.
//
// Representation: sign * M * 2^exp with M an arbitrary-precision integer
// (little-endian 64-bit words, top word nonzero). All operations round to
// the Context's precision with the Context's rounding mode, IEEE-style
// (round-to-nearest-even by default). Infinities and NaN follow IEEE
// semantics; there is no underflow (the exponent is a 64-bit integer), so
// BigFloat is a strict superset of every IEEE format's finite behavior
// away from the exponent bounds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "softfloat/env.hpp"
#include "softfloat/value.hpp"

namespace fpq::bigfloat {

/// Precision and rounding for an operation sequence.
struct Context {
  unsigned precision = 256;  ///< significand bits kept after each op
  softfloat::Rounding rounding = softfloat::Rounding::kNearestEven;
};

class BigFloat {
 public:
  /// +0 by default.
  BigFloat() = default;

  // -- Constructors (all exact) -----------------------------------------
  static BigFloat zero(bool negative = false);
  static BigFloat infinity(bool negative = false);
  static BigFloat nan();
  /// Exact conversion from binary64 (every double is representable).
  static BigFloat from_double(double x);
  static BigFloat from_int(std::int64_t v);

  // -- Classification -----------------------------------------------------
  bool is_zero() const noexcept { return kind_ == Kind::kZero; }
  bool is_finite() const noexcept {
    return kind_ == Kind::kZero || kind_ == Kind::kFinite;
  }
  bool is_infinity() const noexcept { return kind_ == Kind::kInf; }
  bool is_nan() const noexcept { return kind_ == Kind::kNaN; }
  bool negative() const noexcept { return negative_; }

  /// Exponent of the most significant bit: value magnitude is in
  /// [2^e, 2^(e+1)). Only meaningful for finite nonzero values.
  std::int64_t msb_exponent() const noexcept;

  /// Number of significant bits in the mantissa (0 for zero).
  std::size_t significant_bits() const noexcept;

  // -- Arithmetic (correctly rounded to ctx.precision) -------------------
  static BigFloat add(const BigFloat& a, const BigFloat& b,
                      const Context& ctx);
  static BigFloat sub(const BigFloat& a, const BigFloat& b,
                      const Context& ctx);
  static BigFloat mul(const BigFloat& a, const BigFloat& b,
                      const Context& ctx);
  static BigFloat div(const BigFloat& a, const BigFloat& b,
                      const Context& ctx);
  static BigFloat sqrt(const BigFloat& a, const Context& ctx);
  static BigFloat fma(const BigFloat& a, const BigFloat& b,
                      const BigFloat& c, const Context& ctx);

  BigFloat negated() const;
  BigFloat abs() const;

  /// Three-way comparison of values: -1, 0, +1; NaN compares as +2
  /// (unordered sentinel).
  static int compare(const BigFloat& a, const BigFloat& b);

  /// Correctly rounded (to nearest even) conversion to binary64,
  /// including overflow to infinity and gradual underflow to subnormals.
  double to_double() const;

  /// Debug rendering: "-1.9999ap+12 (53 bits)" style hex-significand.
  std::string to_string() const;

 private:
  enum class Kind { kZero, kFinite, kInf, kNaN };

  // Rounds mantissa_/exp_ in place to `precision` bits.
  void round_to(unsigned precision, softfloat::Rounding rounding,
                bool extra_sticky);
  void normalize();

  Kind kind_ = Kind::kZero;
  bool negative_ = false;
  std::vector<std::uint64_t> mantissa_;  // little-endian, back() != 0
  std::int64_t exp_ = 0;                 // value = M * 2^exp_
};

/// |approx - exact| / |exact| computed in high precision and returned as a
/// double; 0 when exact==approx; +inf when exact is zero but approx is
/// not; NaN when either input is NaN.
double relative_error(double approx, const BigFloat& exact,
                      const Context& ctx);

/// Rounds an exact finite nonzero value once into binary16 or binary32
/// (kBits 16 or 32) under `mode`: to p bits in the normal range, to the
/// fixed subnormal quantum below it, and to the mode's overflow result
/// when the rounded magnitude passes the largest finite. The shared last
/// step of the sweeps' exact fma references; the encoding uses integer
/// arithmetic only, never the softfloat round/pack pipeline.
template <int kBits>
softfloat::Float<kBits> round_to_format(const BigFloat& x,
                                        softfloat::Rounding mode);

}  // namespace fpq::bigfloat
