// fpq::softfloat — shared per-lane bodies for the accelerated batch
// kernels. The portable kernels are straight loops over these; the AVX2
// kernels vectorize the common classes and drop any remaining lane here,
// which is what makes the two variants identical by construction on the
// hard cases (NaN payloads, subnormal-result bands, FTZ).
//
// Every helper takes the batch Env both as the source of truth it was
// configured from (mode / daz / ftz are hoisted by the caller) and as
// scratch for the scalar-fallback lanes, honouring the batch contract
// that the Env's sticky flags are clobbered. Flags are OR-ed into `fl`.
//
// Rounding in the common classes is one masked integer add on the
// encoding (the fast::narrow_value construction): consecutive
// in-format values are a fixed encoding step apart and the carry out of
// the fraction walks binades correctly, so adding a mode-dependent bias
// below the first kept bit and masking rounds in all five modes; the
// kept lsb supplies ties-to-even parity. Each helper's class boundaries
// route every case with tininess-after-rounding or payload semantics to
// the scalar engine instead of reimplementing it.
//
// Internal header: included only by batch_kernels_portable.cpp and
// batch_kernels_avx2.cpp.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

#include "softfloat/detail.hpp"
#include "softfloat/env.hpp"
#include "softfloat/fast.hpp"
#include "softfloat/ops.hpp"

namespace fpq::softfloat::kernels::impl {

inline constexpr std::uint32_t kSign32 = 0x80000000u;
inline constexpr std::uint32_t kInf32 = 0x7F800000u;
inline constexpr std::uint32_t kQNan32 = 0x7FC00000u;

using fast::overflows_to_inf;
using fast::round_bias;

/// Folds a nonzero normal double carrying a fast-path result (exact, or
/// round-to-odd compressed, or a correctly-rounded binary64 quotient /
/// root whose double rounding is innocuous — see fast.hpp) into the
/// binary32 encoding under `mode`. Magnitudes below 2^-126 go through
/// fast::narrow<32> (the scalar round_pack core) so the subnormal /
/// underflow band keeps the scalar engine's exact tininess and FTZ
/// behaviour; everything else is the masked-add shortcut, whose boundary
/// decisions on the compressed value equal those on the exact one.
inline std::uint32_t fold32(double v, Rounding mode, Env& env,
                            unsigned& fl) noexcept {
  const std::uint64_t rb = std::bit_cast<std::uint64_t>(v);
  std::uint64_t mag = rb & ~(std::uint64_t{1} << 63);
  if (mag < (std::uint64_t{897} << 52)) {  // |v| < 2^-126: tiny band
    env.clear_flags();
    const Float32 r = fast::narrow<32>(v, env);
    fl |= env.flags();
    return r.bits;
  }
  const bool neg = (rb >> 63) != 0;
  const std::uint64_t low = 0x1FFFFFFFull;  // 29 discarded bits
  const std::uint64_t discarded = mag & low;
  mag = (mag + round_bias(mode, neg, low, (mag >> 29) & 1)) & ~low;
  const std::uint32_t sign = neg ? kSign32 : 0;
  if (mag > fast::Traits<32>::kMaxMag) {
    fl |= kFlagOverflow | kFlagInexact;
    return sign | (overflows_to_inf(mode, neg) ? kInf32 : (kInf32 - 1));
  }
  if (discarded != 0) fl |= kFlagInexact;
  return sign |
         static_cast<std::uint32_t>((mag >> 29) - (std::uint64_t{896} << 23));
}

// -- Convert / round-to-int lane bodies (pure integer) ----------------------

/// convert<16, 32> for one lane.
inline std::uint16_t narrow_32_to_16_lane(std::uint32_t p, Rounding mode,
                                          bool daz, bool ftz, Env& env,
                                          unsigned& fl) noexcept {
  const std::uint32_t m = p & ~kSign32;
  const auto sign = static_cast<std::uint16_t>((p >> 16) & 0x8000u);
  if (m > kInf32) {  // NaN: payload narrowing / sNaN invalid → scalar
    env.clear_flags();
    const Float16 r = convert<16>(Float32::from_bits(p), env);
    fl |= env.flags();
    return r.bits;
  }
  if (m == kInf32) return static_cast<std::uint16_t>(sign | 0x7C00u);
  if (m == 0) return sign;
  if (m < 0x00800000u) {  // binary32-subnormal operand
    if (daz) return sign;  // flushed to zero: exact, no flags
    // |v| < 2^-126, far below the binary16 grid: rounds to 0 or the
    // minimum subnormal, tiny and inexact in every mode.
    fl |= kFlagDenormalInput | kFlagUnderflow | kFlagInexact;
    if (ftz) return sign;
    const bool away = (mode == Rounding::kUp && sign == 0) ||
                      (mode == Rounding::kDown && sign != 0);
    return static_cast<std::uint16_t>(sign | (away ? 1u : 0u));
  }
  if (m < 0x33800000u) {  // 0 < |v| < 2^-24: below the whole grid
    fl |= kFlagUnderflow | kFlagInexact;
    if (ftz) return sign;
    bool away = false;
    switch (mode) {
      case Rounding::kNearestEven:
        away = m > 0x33000000u;  // the 2^-25 tie goes to even zero
        break;
      case Rounding::kNearestAway:
        away = m >= 0x33000000u;
        break;
      case Rounding::kTowardZero:
        break;
      case Rounding::kUp:
        away = sign == 0;
        break;
      case Rounding::kDown:
        away = sign != 0;
        break;
    }
    return static_cast<std::uint16_t>(sign | (away ? 1u : 0u));
  }
  if (m < 0x38800000u) {  // result in the binary16 subnormal band (or
    // rounding up out of it): exact-subnormal flags, tininess after
    // rounding, and FTZ all live in round_pack → scalar
    env.clear_flags();
    const Float16 r = convert<16>(Float32::from_bits(p), env);
    fl |= env.flags();
    return r.bits;
  }
  // Normal-result band: masked add at q = 13 (23 - 10 fraction bits).
  const std::uint32_t low = 0x1FFFu;
  const std::uint32_t r =
      (m + static_cast<std::uint32_t>(
               round_bias(mode, sign != 0, low, (m >> 13) & 1))) &
      ~low;
  if (r > 0x477FE000u) {  // above binary16 max finite (65504)
    fl |= kFlagOverflow | kFlagInexact;
    return static_cast<std::uint16_t>(
        sign | (overflows_to_inf(mode, sign != 0) ? 0x7C00u : 0x7BFFu));
  }
  if ((m & low) != 0) fl |= kFlagInexact;
  return static_cast<std::uint16_t>(sign | ((r - 0x38000000u) >> 13));
}

/// convert<kBFloat16, 32> for one lane. bfloat16 shares binary32's
/// exponent range, so normal operands can never produce a tiny result
/// (truncating |v| >= 2^-126 onto the coarser grid still lands on
/// >= 2^-126, the shared min normal) and only the subnormal-operand /
/// subnormal-result corner needs the scalar engine.
inline std::uint16_t narrow_32_to_bf16_lane(std::uint32_t p, Rounding mode,
                                            bool daz, Env& env,
                                            unsigned& fl) noexcept {
  const std::uint32_t m = p & ~kSign32;
  const auto sign = static_cast<std::uint16_t>((p >> 16) & 0x8000u);
  if (m > kInf32) {  // NaN → scalar
    env.clear_flags();
    const BFloat16 r = convert<kBFloat16>(Float32::from_bits(p), env);
    fl |= env.flags();
    return r.bits;
  }
  if (m == kInf32) return static_cast<std::uint16_t>(sign | 0x7F80u);
  if (m == 0) return sign;
  if (m < 0x00800000u) {  // subnormal operand
    if (daz) return sign;
    env.clear_flags();  // DE + subnormal result (tininess, FTZ) → scalar
    const BFloat16 r = convert<kBFloat16>(Float32::from_bits(p), env);
    fl |= env.flags();
    return r.bits;
  }
  const std::uint32_t low = 0xFFFFu;
  const std::uint32_t r =
      (m + static_cast<std::uint32_t>(
               round_bias(mode, sign != 0, low, (m >> 16) & 1))) &
      ~low;
  if (r > 0x7F7F0000u) {  // above bfloat16 max finite
    fl |= kFlagOverflow | kFlagInexact;
    return static_cast<std::uint16_t>(
        sign | (overflows_to_inf(mode, sign != 0) ? 0x7F80u : 0x7F7Fu));
  }
  if ((m & low) != 0) fl |= kFlagInexact;
  return static_cast<std::uint16_t>(sign | (r >> 16));
}

/// convert<32, 64> for one lane.
inline std::uint32_t narrow_64_to_32_lane(std::uint64_t p, Rounding mode,
                                          Env& env, unsigned& fl) noexcept {
  const std::uint64_t m = p & ~(std::uint64_t{1} << 63);
  const std::uint32_t sign =
      static_cast<std::uint32_t>(p >> 32) & kSign32;
  if (m > fast::kExpMask64) {  // NaN → scalar
    env.clear_flags();
    const Float32 r = convert<32>(Float64::from_bits(p), env);
    fl |= env.flags();
    return r.bits;
  }
  if (m == fast::kExpMask64) return sign | kInf32;
  if (m == 0) return sign;
  if (m < (std::uint64_t{897} << 52)) {  // |v| < 2^-126: the operand may
    // be a binary64 subnormal (DE/DAZ on the SOURCE format) and the
    // result lands in the binary32 subnormal / underflow band → scalar
    env.clear_flags();
    const Float32 r = convert<32>(Float64::from_bits(p), env);
    fl |= env.flags();
    return r.bits;
  }
  const std::uint64_t low = 0x1FFFFFFFull;
  const std::uint64_t r =
      (m + round_bias(mode, sign != 0, low, (m >> 29) & 1)) & ~low;
  if (r > fast::Traits<32>::kMaxMag) {
    fl |= kFlagOverflow | kFlagInexact;
    return sign | (overflows_to_inf(mode, sign != 0) ? kInf32 : (kInf32 - 1));
  }
  if ((m & low) != 0) fl |= kFlagInexact;
  return sign |
         static_cast<std::uint32_t>((r >> 29) - (std::uint64_t{896} << 23));
}

/// convert<32, 16> for one lane (exact; only NaN payloads go scalar).
inline std::uint32_t widen_16_to_32_lane(std::uint16_t p, bool daz, Env& env,
                                         unsigned& fl) noexcept {
  const std::uint32_t sign = static_cast<std::uint32_t>(p & 0x8000u) << 16;
  const std::uint32_t be = (p >> 10) & 0x1Fu;
  const std::uint32_t frac = p & 0x3FFu;
  if (be == 0x1F) {
    if (frac != 0) {  // NaN → scalar
      env.clear_flags();
      const Float32 r = convert<32>(Float16::from_bits(p), env);
      fl |= env.flags();
      return r.bits;
    }
    return sign | kInf32;
  }
  if (be != 0) return sign | (((be + 112) << 23) | (frac << 13));
  if (frac == 0) return sign;
  if (daz) return sign;  // flushed operand: exact zero, no flags
  fl |= kFlagDenormalInput;
  // Exact normalization of frac * 2^-24 (result is binary32-normal, so
  // FTZ cannot apply).
  const int top = 31 - std::countl_zero(frac);  // 0..9
  return sign | (static_cast<std::uint32_t>(top + 103) << 23) |
         ((frac ^ (1u << top)) << (23 - top));
}

/// convert<32, kBFloat16> for one lane. The value map is encoding << 16
/// (bfloat16 is binary32's top half), but NaN payloads and non-DAZ
/// subnormal operands (whose exact result is itself subnormal: DE plus
/// possible FTZ flush) go scalar.
inline std::uint32_t widen_bf16_to_32_lane(std::uint16_t p, bool daz,
                                           Env& env, unsigned& fl) noexcept {
  const std::uint32_t be = (p >> 7) & 0xFFu;
  const std::uint32_t frac = p & 0x7Fu;
  if ((be == 0xFF && frac != 0) || (be == 0 && frac != 0 && !daz)) {
    env.clear_flags();
    const Float32 r = convert<32>(BFloat16::from_bits(p), env);
    fl |= env.flags();
    return r.bits;
  }
  if (be == 0 && frac != 0) {  // daz: flushed to signed zero, no flags
    return static_cast<std::uint32_t>(p & 0x8000u) << 16;
  }
  return static_cast<std::uint32_t>(p) << 16;
}

/// convert<64, 32> for one lane (exact; only NaN payloads go scalar).
inline std::uint64_t widen_32_to_64_lane(std::uint32_t p, bool daz, Env& env,
                                         unsigned& fl) noexcept {
  const std::uint64_t sign = static_cast<std::uint64_t>(p & kSign32) << 32;
  const std::uint32_t be = (p >> 23) & 0xFFu;
  const std::uint32_t frac = p & 0x7FFFFFu;
  if (be == 0xFF) {
    if (frac != 0) {  // NaN → scalar
      env.clear_flags();
      const Float64 r = convert<64>(Float32::from_bits(p), env);
      fl |= env.flags();
      return r.bits;
    }
    return sign | fast::kExpMask64;
  }
  if (be != 0) {
    return sign | (static_cast<std::uint64_t>(be + 896) << 52) |
           (static_cast<std::uint64_t>(frac) << 29);
  }
  if (frac == 0) return sign;
  if (daz) return sign;
  fl |= kFlagDenormalInput;
  const int top = 31 - std::countl_zero(frac);  // 0..22
  return sign | (static_cast<std::uint64_t>(top + 874) << 52) |
         (static_cast<std::uint64_t>(frac ^ (1u << top)) << (52 - top));
}

/// round_to_integral<32> for one lane.
inline std::uint32_t round_int32_lane(std::uint32_t p, Rounding mode,
                                      bool daz, Env& env,
                                      unsigned& fl) noexcept {
  const std::uint32_t m = p & ~kSign32;
  const std::uint32_t sign = p & kSign32;
  if (m > kInf32) {  // NaN → scalar (payload / sNaN invalid)
    env.clear_flags();
    const Float32 r = round_to_integral(Float32::from_bits(p), env);
    fl |= env.flags();
    return r.bits;
  }
  // |v| >= 2^23, infinity, and zero are already integral: exact copy.
  if (m >= 0x4B000000u || m == 0) return p;
  if (m < 0x00800000u) {  // subnormal
    if (daz) return sign;  // flushed: zero(sign), NO flags
    fl |= kFlagDenormalInput | kFlagInexact;
    const bool away = (mode == Rounding::kUp && sign == 0) ||
                      (mode == Rounding::kDown && sign != 0);
    return sign | (away ? 0x3F800000u : 0u);
  }
  if (m < 0x3F800000u) {  // 0 < |v| < 1: rounds to 0 or ±1
    fl |= kFlagInexact;
    bool away = false;
    switch (mode) {
      case Rounding::kNearestEven:
        away = m > 0x3F000000u;  // the 0.5 tie goes to even zero
        break;
      case Rounding::kNearestAway:
        away = m >= 0x3F000000u;
        break;
      case Rounding::kTowardZero:
        break;
      case Rounding::kUp:
        away = sign == 0;
        break;
      case Rounding::kDown:
        away = sign != 0;
        break;
    }
    return sign | (away ? 0x3F800000u : 0u);
  }
  // 1 <= |v| < 2^23: masked add at the binade-dependent integer bit.
  const int q = 150 - static_cast<int>(m >> 23);  // 1..23
  const std::uint32_t low = (1u << q) - 1;
  const std::uint32_t r =
      (m + static_cast<std::uint32_t>(
               round_bias(mode, sign != 0, low, (m >> q) & 1))) &
      ~low;
  if ((m & low) != 0) fl |= kFlagInexact;
  return sign | r;
}

/// sqrt<32> for one lane. The caller pinned the fenv to round-to-nearest.
inline std::uint32_t sqrt32_lane(std::uint32_t p, Rounding mode, bool daz,
                                 Env& env, unsigned& fl) noexcept {
  const std::uint32_t m = p & ~kSign32;
  if (m > kInf32) {  // NaN → scalar
    env.clear_flags();
    const Float32 r = softfloat::sqrt(Float32::from_bits(p), env);
    fl |= env.flags();
    return r.bits;
  }
  if (m == 0) return p;  // sqrt(±0) = ±0, exact
  if ((p & kSign32) != 0) {
    // Negative nonzero (including -inf and negative subnormals even
    // under DAZ: the scalar op checks the sign before unpacking).
    fl |= kFlagInvalid;
    return kQNan32;
  }
  if (m == kInf32) return p;  // sqrt(+inf) = +inf
  double dv;
  if (m < 0x00800000u) {
    if (daz) return 0;  // flushed operand: sqrt(+0) = +0, no flags
    fl |= kFlagDenormalInput;
    dv = fast::widen(Float32::from_bits(p));  // integer normalize
  } else {
    dv = std::bit_cast<double>((static_cast<std::uint64_t>(m) << 29) +
                               (std::uint64_t{896} << 52));
  }
  // Correctly rounded binary64 root of a binary32 value: the extra
  // rounding is innocuous (53 >= 2*24 + 2), the result is in
  // [2^-75, 2^64) — never tiny, never overflowing — and it is a binary32
  // value exactly when the exact root is one, so the masked add at q=29
  // both rounds and detects inexactness correctly.
  const std::uint64_t rb = std::bit_cast<std::uint64_t>(std::sqrt(dv));
  const std::uint64_t low = 0x1FFFFFFFull;
  const std::uint64_t r =
      (rb + round_bias(mode, false, low, (rb >> 29) & 1)) & ~low;
  if ((rb & low) != 0) fl |= kFlagInexact;
  return static_cast<std::uint32_t>((r >> 29) - (std::uint64_t{896} << 23));
}

}  // namespace fpq::softfloat::kernels::impl
