// fpq::softfloat — the native-double fast path for narrow formats, written
// once for every format whose proof preconditions hold (binary16 and
// binary32 are instantiated).
//
// Lanes hold in-format VALUES as native doubles; arithmetic runs on the
// host FPU (pinned to round-to-nearest by FenvPin) and each result is
// folded back in-format through the scalar engine's own
// detail::round_pack<kBits> core, so values and flags are bit-identical to
// the softfloat operations by construction rather than by
// reimplementation. With p the format's precision:
//
//  - mul: a product of two p-bit significands has at most 2p <= 53 bits,
//    so it is EXACT in binary64.
//  - add/sub: exact in binary64 when the format's whole value range spans
//    at most 53 bits ((emax+1) - emin_sub <= 53; binary16 spans 40).
//    Otherwise (binary32) the sum is compressed through TwoSum +
//    round-to-odd first: with 53 >= p + 2, rounding the round-to-odd
//    value to the format equals rounding the exact sum in every mode
//    (Boldo–Melquiond). fma uses the same compression on t + c after the
//    exact product t = a*b in every format (its residues can fall below
//    binary64's reach, e.g. 65504 + 2^-48 in binary16).
//  - div/sqrt: correctly rounded in binary64, and with 53 >= 2p + 2 the
//    extra rounding is innocuous in all five modes (Figueroa): a quotient
//    (root) of format values is either exactly a rounding boundary or
//    separated from every boundary by far more than the binary64 rounding
//    error (sweep32_ref.hpp states the exclusion bounds), so the boundary
//    comparisons inside round_pack come out the same as for the exact
//    value.
//
// Every nonzero double these paths produce is a NORMAL double: the
// smallest magnitude is a product of two minimum subnormals
// (2^(2 emin_sub)) and the largest a quotient max / min_sub
// (< 2^(emax+1-emin_sub)). So round()'s normal-double precondition holds
// and `s == 0.0` detects an exact zero. Traits<kBits> checks each of these
// preconditions with a static_assert.
//
// Anything special — NaN or infinity operands, division by zero, sqrt of
// a negative — takes the scalar softfloat operation for that lane instead,
// which keeps NaN payload propagation and invalid/divide-by-zero flags
// canonical. The per-lane op bodies at the end are shared by the batched
// tape runner (ir/tape_batch.cpp) and the portable binary32 batch kernels
// (batch_kernels_portable.cpp); each caller supplies only its lane storage
// and its fold. Internal header.
#pragma once

#include <bit>
#include <cfenv>
#include <cmath>
#include <cstdint>

#include "softfloat/detail.hpp"
#include "softfloat/format.hpp"
#include "softfloat/ops.hpp"

namespace fpq::softfloat::fast {

inline constexpr std::uint64_t kSign64 = std::uint64_t{1} << 63;
inline constexpr std::uint64_t kExpMask64 = 0x7FF0000000000000ull;
inline constexpr std::uint64_t kFracMask64 = 0x000FFFFFFFFFFFFFull;

/// The format constants the fast path needs, and the preconditions of
/// the arguments in the file comment.
template <int kBits>
struct Traits {
  using C = FormatConstants<kBits>;
  static constexpr int kP = C::kPrecision;
  /// Exponent of the smallest subnormal.
  static constexpr int kEminSub = C::kEmin - C::kSigBits;
  /// Fraction bits a widened value carries below the format's lsb.
  static constexpr int kShift = 52 - C::kSigBits;
  /// Widened bit pattern of the largest finite value, sign cleared:
  /// anything above it after rounding overflowed.
  static constexpr std::uint64_t kMaxMag =
      (static_cast<std::uint64_t>(C::kEmax + 1023) << 52) |
      (static_cast<std::uint64_t>(C::kFracMask) << kShift);
  static constexpr double kMinNormal = std::bit_cast<double>(
      static_cast<std::uint64_t>(C::kEmin + 1023) << 52);
  static constexpr double kMinSubnormal = std::bit_cast<double>(
      static_cast<std::uint64_t>(kEminSub + 1023) << 52);
  /// Every sum of two format values is exact in binary64, so add/sub can
  /// skip the round-to-odd compression.
  static constexpr bool kExactSum = (C::kEmax + 1) - kEminSub <= 53;

  static_assert(2 * kP <= 53, "mul: the product must be exact in binary64");
  static_assert(53 >= kP + 2, "add/fma: round-to-odd needs 53 >= p + 2");
  static_assert(53 >= 2 * kP + 2,
                "div/sqrt: innocuous double rounding needs 53 >= 2p + 2");
  static_assert(2 * kEminSub >= -1022,
                "the smallest product must be a normal double");
  static_assert((C::kEmax + 1) - kEminSub <= 1023 &&
                    2 * (C::kEmax + 1) <= 1023,
                "the largest quotient / product must be a finite double");
};

/// Pins the host FPU to round-to-nearest for the duration of a kernel
/// that runs native double arithmetic, and restores the caller's whole
/// fenv — including exception flags, so kernels never leak host flags —
/// on exit, also when the kernel throws.
class FenvPin {
 public:
  FenvPin() noexcept {
    std::fegetenv(&saved_);
    std::fesetround(FE_TONEAREST);
  }
  ~FenvPin() { std::fesetenv(&saved_); }
  FenvPin(const FenvPin&) = delete;
  FenvPin& operator=(const FenvPin&) = delete;

 private:
  std::fenv_t saved_;
};

inline bool is_finite(double v) noexcept {
  return (std::bit_cast<std::uint64_t>(v) & kExpMask64) != kExpMask64;
}

/// True for a value in the format's subnormal range — the operands that
/// raise kFlagDenormalInput / get flushed by DAZ.
template <int kBits>
inline bool is_subnormal(double v) noexcept {
  return v != 0.0 && std::fabs(v) < Traits<kBits>::kMinNormal;
}

/// DAZ operand flush: subnormal magnitudes become signed zero.
template <int kBits>
inline double daz(double v) noexcept {
  return std::fabs(v) < Traits<kBits>::kMinNormal ? std::copysign(0.0, v)
                                                   : v;
}

/// Exact widening of an encoding to its double value (including NaN
/// payloads, which land in the same bits convert<64, kBits> puts them in).
template <int kBits>
inline double widen(Float<kBits> x) noexcept {
  using T = Traits<kBits>;
  const auto be = static_cast<std::uint64_t>(x.biased_exponent());
  const std::uint64_t sign = x.sign() ? kSign64 : 0;
  const auto frac = static_cast<std::uint64_t>(x.fraction());
  if (be == static_cast<std::uint64_t>(T::C::kExpInfNan)) {
    // Infinity / NaN: the payload shifts into the top bits.
    return std::bit_cast<double>(sign | kExpMask64 | (frac << T::kShift));
  }
  if (be != 0) {  // normal: rebias
    return std::bit_cast<double>(sign | ((be + (1023 - T::C::kBias)) << 52) |
                                 (frac << T::kShift));
  }
  if (frac == 0) return std::bit_cast<double>(sign);
  // Subnormal: value = frac * 2^emin_sub, normalized into a double.
  const int top = 63 - std::countl_zero(frac);
  const std::uint64_t mant = (frac ^ (std::uint64_t{1} << top)) << (52 - top);
  const auto bexp = static_cast<std::uint64_t>(top + T::kEminSub + 1023);
  return std::bit_cast<double>(sign | (bexp << 52) | mant);
}

/// Rounds a NORMAL nonzero double into the format through the scalar
/// engine's round/pack core (all five modes, FTZ, tininess after
/// rounding, per-mode overflow results). Flags accumulate on `env`
/// exactly as the softfloat operation would raise them.
template <int kBits>
inline Float<kBits> narrow(double x, Env& env) noexcept {
  const std::uint64_t b = std::bit_cast<std::uint64_t>(x);
  const auto exp = static_cast<std::int32_t>((b >> 52) & 0x7FF) - 1023;
  const std::uint64_t sig = ((b & kFracMask64) | (std::uint64_t{1} << 52))
                            << 11;
  return detail::round_pack<kBits>((b >> 63) != 0, exp, sig, false, env);
}

/// narrow() re-widened: the fold-back of the widened-lane callers.
template <int kBits>
inline double round(double x, Env& env) noexcept {
  return widen(narrow<kBits>(x, env));
}

/// True when rounding away from zero lands on infinity rather than max
/// finite for this mode/sign (round_pack's overflow policy).
inline bool overflows_to_inf(Rounding mode, bool neg) noexcept {
  return mode == Rounding::kNearestEven || mode == Rounding::kNearestAway ||
         (mode == Rounding::kUp && !neg) || (mode == Rounding::kDown && neg);
}

/// The mode-dependent bias added below the first kept bit of a
/// sign-cleared pattern before masking it with ~low. `lsb` is the kept
/// lsb for ties-to-even.
inline std::uint64_t round_bias(Rounding mode, bool neg, std::uint64_t low,
                                std::uint64_t lsb) noexcept {
  switch (mode) {
    case Rounding::kNearestEven: return (low >> 1) + lsb;
    case Rounding::kNearestAway: return (low >> 1) + 1;
    case Rounding::kTowardZero: return 0;
    case Rounding::kUp: return neg ? 0 : low;
    case Rounding::kDown: return neg ? low : 0;
  }
  return 0;
}

/// Value-only narrowing of a NORMAL nonzero double to the nearest format
/// value under `mode`, returned re-widened to double. Computes no flags —
/// it exists for operand narrowing (tape kVar lanes), where flags are
/// discarded by contract, and is several times cheaper than round(). Works
/// by add-and-mask rounding on the double's bit pattern: within the
/// format's value set, consecutive values are a fixed pattern step apart
/// (2^kShift for normals, more in the subnormal range) and the carry out
/// of the fraction walks binades, so one masked integer add rounds
/// correctly in every mode; the kept lsb is the parity ties-to-even needs.
template <int kBits>
inline double narrow_value(double x, Rounding mode) noexcept {
  using T = Traits<kBits>;
  const std::uint64_t b = std::bit_cast<std::uint64_t>(x);
  const std::uint64_t sign = b & kSign64;
  std::uint64_t mag = b ^ sign;
  const int e = static_cast<int>(mag >> 52) - 1023;
  if (e < T::kEminSub) {
    // At or below half the smallest subnormal: the candidates are 0 and
    // the smallest subnormal, decided by mode and which side of half.
    bool away = false;
    switch (mode) {
      case Rounding::kNearestEven:  // ties go to 0
        away = e == T::kEminSub - 1 && (mag & kFracMask64) != 0;
        break;
      case Rounding::kNearestAway: away = e == T::kEminSub - 1; break;
      case Rounding::kTowardZero: break;
      case Rounding::kUp: away = sign == 0; break;
      case Rounding::kDown: away = sign != 0; break;
    }
    return std::bit_cast<double>(
        sign | (away ? std::bit_cast<std::uint64_t>(T::kMinSubnormal) : 0));
  }
  const int q = T::kShift + (e < T::C::kEmin ? T::C::kEmin - e : 0);
  const std::uint64_t low = (std::uint64_t{1} << q) - 1;
  mag = (mag + round_bias(mode, sign != 0, low, (mag >> q) & 1)) & ~low;
  if (mag > T::kMaxMag) {  // per-mode overflow saturation
    mag = overflows_to_inf(mode, sign != 0) ? kExpMask64 : T::kMaxMag;
  }
  return std::bit_cast<double>(sign | mag);
}

/// Exact narrowing of an in-format double back to the encoding, for
/// handing a lane to a scalar softfloat fallback.
template <int kBits>
inline Float<kBits> to_f(double v) noexcept {
  Env quiet;
  return convert<kBits>(from_native(v), quiet);
}

/// Deterministic sign-bit flip (IEEE negate: no flags, NaN sign flips).
inline double flip_sign(double v) noexcept {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(v) ^ kSign64);
}

/// One ulp step toward the sign of `dir` (caller guarantees the step
/// cannot cross zero or leave the finite range).
inline double step_toward(double s, double dir) noexcept {
  std::uint64_t b = std::bit_cast<std::uint64_t>(s);
  b += ((dir > 0.0) == (s > 0.0)) ? 1u : std::uint64_t(-1);
  return std::bit_cast<double>(b);
}

/// Compresses the exact sum a + b (any two doubles whose sum cannot
/// overflow) to its 53-bit round-to-odd value: the sum itself when exact,
/// otherwise the odd-lsb neighbour — which preserves, for every rounding
/// boundary of a format with p <= 51, which side of it the exact sum lies
/// on. The caller pins the host to round-to-nearest; TwoSum's error term
/// is exact for ANY two doubles (no magnitude ordering required).
inline double add_round_odd(double a, double b) noexcept {
  const double s = a + b;
  const double bb = s - a;
  const double err = (a - (s - bb)) + (b - bb);
  if (err != 0.0 && (std::bit_cast<std::uint64_t>(s) & 1) == 0) {
    return step_toward(s, err);
  }
  return s;
}

/// The sign of an exact-zero sum x + y (IEEE 754-2008 §6.3): the common
/// sign of two like-signed zeros, otherwise positive in every rounding
/// mode except roundTowardNegative.
inline bool exact_zero_sign(double x, double y, Rounding mode) noexcept {
  const bool sx = std::signbit(x);
  if (x == 0.0 && y == 0.0 && sx == std::signbit(y)) return sx;
  return mode == Rounding::kDown;
}

// -- Per-lane op bodies -----------------------------------------------------
//
// Written once against a lane storage policy S:
//
//   using Value = ...;                      the caller's lane type
//   Rounding mode; bool daz;                the batch configuration
//   double load(Value) const;               exact widening
//   Float<kBits> encoding(Value) const;     exact, for the scalar fallback
//   Value store(Float<kBits>) const;        a scalar-fallback result
//   Value zero(bool negative) const;        an exact-zero result
//   Value fold(double, Env&, unsigned& fl) const;
//       rounds a nonzero normal double (exact, round-to-odd compressed or
//       innocuously double-rounded) into the format
//
// Every body ORs its lane's flags into `fl` and uses `env` (configured
// with the batch's mode and FTZ/DAZ) as scratch for the fallback and the
// fold.

/// DAZ flushes the operands; otherwise a subnormal operand raises
/// denormal-input.
template <int kBits, class... D>
inline void denormal_operands(bool daz_on, unsigned& fl, D&... v) noexcept {
  if (daz_on) {
    ((v = daz<kBits>(v)), ...);
  } else if ((is_subnormal<kBits>(v) || ...)) {
    fl |= kFlagDenormalInput;
  }
}

/// The scalar softfloat operation `op` for one lane.
template <class S, class Op>
inline typename S::Value scalar_lane(const S& s, Env& env, unsigned& fl,
                                     Op op) {
  env.clear_flags();
  const auto r = op();
  fl |= env.flags();
  return s.store(r);
}

template <int kBits, class S>
inline typename S::Value add_lane(const S& s, typename S::Value a,
                                  typename S::Value b, bool is_sub, Env& env,
                                  unsigned& fl) noexcept {
  double av = s.load(a);
  double bv = s.load(b);
  if (!(is_finite(av) && is_finite(bv))) {
    return scalar_lane(s, env, fl, [&] {
      return is_sub ? sub(s.encoding(a), s.encoding(b), env)
                    : add(s.encoding(a), s.encoding(b), env);
    });
  }
  denormal_operands<kBits>(s.daz, fl, av, bv);
  if (is_sub) bv = flip_sign(bv);
  const double sum =
      Traits<kBits>::kExactSum ? av + bv : add_round_odd(av, bv);
  if (sum == 0.0) return s.zero(exact_zero_sign(av, bv, s.mode));
  return s.fold(sum, env, fl);
}

template <int kBits, class S>
inline typename S::Value mul_lane(const S& s, typename S::Value a,
                                  typename S::Value b, Env& env,
                                  unsigned& fl) noexcept {
  double av = s.load(a);
  double bv = s.load(b);
  if (!(is_finite(av) && is_finite(bv))) {
    return scalar_lane(s, env, fl,
                       [&] { return mul(s.encoding(a), s.encoding(b), env); });
  }
  denormal_operands<kBits>(s.daz, fl, av, bv);
  const double t = av * bv;  // exact: 2p <= 53 significand bits
  if (t == 0.0) return s.zero(std::signbit(t));  // the XOR sign
  return s.fold(t, env, fl);
}

template <int kBits, class S>
inline typename S::Value div_lane(const S& s, typename S::Value a,
                                  typename S::Value b, Env& env,
                                  unsigned& fl) noexcept {
  double av = s.load(a);
  double bv = s.load(b);
  unsigned de = 0;  // raised only on the fast path: the fallback owns it
  bool slow = !(is_finite(av) && is_finite(bv));
  if (!slow) {
    denormal_operands<kBits>(s.daz, de, av, bv);
    slow = bv == 0.0;  // divide-by-zero / 0 over 0: canonical path
  }
  if (slow) {
    return scalar_lane(s, env, fl,
                       [&] { return div(s.encoding(a), s.encoding(b), env); });
  }
  fl |= de;
  const double q = av / bv;  // correctly rounded; narrowing innocuous
  if (q == 0.0) return s.zero(std::signbit(q));
  return s.fold(q, env, fl);
}

template <int kBits, class S>
inline typename S::Value sqrt_lane(const S& s, typename S::Value a,
                                   Env& env, unsigned& fl) noexcept {
  double xv = s.load(a);
  // Negative nonzero operands are invalid even when DAZ would flush them:
  // the scalar op checks the sign before unpacking.
  if (!is_finite(xv) || (std::signbit(xv) && xv != 0.0)) {
    return scalar_lane(s, env, fl, [&] { return sqrt(s.encoding(a), env); });
  }
  denormal_operands<kBits>(s.daz, fl, xv);
  if (xv == 0.0) return s.zero(std::signbit(xv));  // sqrt(±0) = ±0
  return s.fold(std::sqrt(xv), env, fl);
}

template <int kBits, class S>
inline typename S::Value fma_lane(const S& s, typename S::Value a,
                                  typename S::Value b, typename S::Value c,
                                  Env& env, unsigned& fl) noexcept {
  double av = s.load(a);
  double bv = s.load(b);
  double cv = s.load(c);
  if (!(is_finite(av) && is_finite(bv) && is_finite(cv))) {
    return scalar_lane(s, env, fl, [&] {
      return fma(s.encoding(a), s.encoding(b), s.encoding(c), env);
    });
  }
  denormal_operands<kBits>(s.daz, fl, av, bv, cv);
  const double t = av * bv;  // exact product
  const double sum = add_round_odd(t, cv);
  if (sum == 0.0) return s.zero(exact_zero_sign(t, cv, s.mode));
  return s.fold(sum, env, fl);
}

}  // namespace fpq::softfloat::fast
