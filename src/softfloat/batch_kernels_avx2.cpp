// fpq::softfloat — AVX2 lane kernels for the unary / convert batch ops.
//
// This TU is always part of the build; CMake adds -mavx2 for it alone
// when the compiler supports the flag, and the __AVX2__ guard below
// compiles either the real kernels or forwarders to the portable ones
// (in which case avx2_compiled() reports false and dispatch never
// selects the variant).
//
// Every kernel follows one shape: classify 8 lanes, run the dominant
// class through the same masked-add rounding the portable kernels use —
// just width-8 — and drop every other lane to the per-lane bodies in
// batch_kernels_impl.hpp, byte-identical to the portable variant on the
// hard cases by construction. Vector results land in stack buffers and a
// merge loop picks per lane, so no kernel needs cross-lane permutes.
#include "softfloat/batch_kernels.hpp"

#include <cstdint>

#include "softfloat/batch_kernels_impl.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace fpq::softfloat::kernels {

bool avx2_compiled() noexcept {
#if defined(__AVX2__)
  return true;
#else
  return false;
#endif
}

namespace avx2 {

#if !defined(__AVX2__)

void sqrt32(const Float32* a, Float32* out, unsigned* flags, std::size_t n,
            Env& env) noexcept {
  portable::sqrt32(a, out, flags, n, env);
}
void round_int32(const Float32* a, Float32* out, unsigned* flags,
                 std::size_t n, Env& env) noexcept {
  portable::round_int32(a, out, flags, n, env);
}
void narrow_32_to_16(const Float32* a, Float16* out, unsigned* flags,
                     std::size_t n, Env& env) noexcept {
  portable::narrow_32_to_16(a, out, flags, n, env);
}
void narrow_32_to_bf16(const Float32* a, BFloat16* out, unsigned* flags,
                       std::size_t n, Env& env) noexcept {
  portable::narrow_32_to_bf16(a, out, flags, n, env);
}
void widen_16_to_32(const Float16* a, Float32* out, unsigned* flags,
                    std::size_t n, Env& env) noexcept {
  portable::widen_16_to_32(a, out, flags, n, env);
}
void widen_bf16_to_32(const BFloat16* a, Float32* out, unsigned* flags,
                      std::size_t n, Env& env) noexcept {
  portable::widen_bf16_to_32(a, out, flags, n, env);
}
void widen_32_to_64(const Float32* a, Float64* out, unsigned* flags,
                    std::size_t n, Env& env) noexcept {
  portable::widen_32_to_64(a, out, flags, n, env);
}

#else  // __AVX2__

namespace {

constexpr std::size_t kW = 8;  // lanes per iteration

inline unsigned mask_bits(__m256i m) noexcept {
  return static_cast<unsigned>(
      _mm256_movemask_ps(_mm256_castsi256_ps(m)));
}

/// round_bias (batch_kernels_impl.hpp) across 8 lanes, fixed shift `q`.
/// `neg` holds all-ones lanes for negative operands.
inline __m256i bias_epi32(Rounding mode, __m256i mag, __m256i neg, int q,
                          std::uint32_t low) noexcept {
  const __m256i vlow = _mm256_set1_epi32(static_cast<int>(low));
  switch (mode) {
    case Rounding::kNearestEven:
      return _mm256_add_epi32(
          _mm256_set1_epi32(static_cast<int>(low >> 1)),
          _mm256_and_si256(_mm256_srli_epi32(mag, q),
                           _mm256_set1_epi32(1)));
    case Rounding::kNearestAway:
      return _mm256_set1_epi32(static_cast<int>((low >> 1) + 1));
    case Rounding::kTowardZero:
      return _mm256_setzero_si256();
    case Rounding::kUp:
      return _mm256_andnot_si256(neg, vlow);
    case Rounding::kDown:
      return _mm256_and_si256(neg, vlow);
  }
  return _mm256_setzero_si256();
}

/// Same with a per-lane shift/mask (round_int32's binade-dependent q).
inline __m256i bias_var_epi32(Rounding mode, __m256i mag, __m256i neg,
                              __m256i vq, __m256i vlow) noexcept {
  switch (mode) {
    case Rounding::kNearestEven:
      return _mm256_add_epi32(
          _mm256_srli_epi32(vlow, 1),
          _mm256_and_si256(_mm256_srlv_epi32(mag, vq),
                           _mm256_set1_epi32(1)));
    case Rounding::kNearestAway:
      return _mm256_add_epi32(_mm256_srli_epi32(vlow, 1),
                              _mm256_set1_epi32(1));
    case Rounding::kTowardZero:
      return _mm256_setzero_si256();
    case Rounding::kUp:
      return _mm256_andnot_si256(neg, vlow);
    case Rounding::kDown:
      return _mm256_and_si256(neg, vlow);
  }
  return _mm256_setzero_si256();
}

/// Lanes where rounding away lands on infinity (round_pack's overflow
/// policy) under `mode`, given the negative-lane mask.
inline __m256i to_inf_epi32(Rounding mode, __m256i neg) noexcept {
  const __m256i ones = _mm256_set1_epi32(-1);
  switch (mode) {
    case Rounding::kNearestEven:
    case Rounding::kNearestAway:
      return ones;
    case Rounding::kTowardZero:
      return _mm256_setzero_si256();
    case Rounding::kUp:
      return _mm256_andnot_si256(neg, ones);
    case Rounding::kDown:
      return neg;
  }
  return _mm256_setzero_si256();
}

inline __m256i select_epi32(__m256i mask, __m256i yes, __m256i no) noexcept {
  return _mm256_blendv_epi8(no, yes, mask);
}

/// Unsigned m <= bound for sign-cleared magnitudes (all values fit in 31
/// bits, so signed compares are safe everywhere in this file).
inline __m256i le_epi32(__m256i m, int bound) noexcept {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(bound + 1), m);
}
inline __m256i ge_epi32(__m256i m, int bound) noexcept {
  return _mm256_cmpgt_epi32(m, _mm256_set1_epi32(bound - 1));
}

}  // namespace

void narrow_32_to_bf16(const Float32* a, BFloat16* out, unsigned* flags,
                       std::size_t n, Env& env) noexcept {
  const Rounding mode = env.rounding();
  const bool daz = env.denormals_are_zero();
  const auto* in = reinterpret_cast<const std::uint32_t*>(a);
  std::size_t i = 0;
  alignas(32) std::uint32_t ro[kW];
  alignas(32) std::uint32_t fo[kW];
  for (; i + kW <= n; i += kW) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    const __m256i m =
        _mm256_and_si256(v, _mm256_set1_epi32(0x7FFFFFFF));
    const __m256i neg = _mm256_srai_epi32(v, 31);
    const __m256i sign16 = _mm256_and_si256(_mm256_srli_epi32(v, 16),
                                            _mm256_set1_epi32(0x8000));
    // Dominant class: normal operands (result can overflow but never be
    // tiny — bfloat16 shares binary32's exponent range).
    const __m256i easy = _mm256_and_si256(
        ge_epi32(m, 0x00800000),
        le_epi32(m, static_cast<int>(impl::kInf32) - 1));
    const __m256i low = _mm256_set1_epi32(0xFFFF);
    const __m256i r = _mm256_andnot_si256(
        low, _mm256_add_epi32(m, bias_epi32(mode, m, neg, 16, 0xFFFFu)));
    const __m256i ovf =
        _mm256_cmpgt_epi32(r, _mm256_set1_epi32(0x7F7F0000));
    const __m256i ovf_val =
        select_epi32(to_inf_epi32(mode, neg), _mm256_set1_epi32(0x7F80),
                     _mm256_set1_epi32(0x7F7F));
    const __m256i inexact = _mm256_xor_si256(
        _mm256_cmpeq_epi32(_mm256_and_si256(m, low),
                           _mm256_setzero_si256()),
        _mm256_set1_epi32(-1));
    const __m256i val = _mm256_or_si256(
        sign16, select_epi32(ovf, ovf_val, _mm256_srli_epi32(r, 16)));
    const __m256i fl = select_epi32(
        ovf, _mm256_set1_epi32(kFlagOverflow | kFlagInexact),
        _mm256_and_si256(inexact, _mm256_set1_epi32(kFlagInexact)));
    _mm256_store_si256(reinterpret_cast<__m256i*>(ro), val);
    _mm256_store_si256(reinterpret_cast<__m256i*>(fo), fl);
    const unsigned hard = mask_bits(easy) ^ 0xFFu;
    if (hard == 0) {
      for (std::size_t j = 0; j < kW; ++j) {
        out[i + j] = BFloat16::from_bits(static_cast<std::uint16_t>(ro[j]));
        flags[i + j] |= fo[j];
      }
      continue;
    }
    for (std::size_t j = 0; j < kW; ++j) {
      if ((hard >> j) & 1) {
        unsigned f = 0;
        out[i + j] = BFloat16::from_bits(
            impl::narrow_32_to_bf16_lane(in[i + j], mode, daz, env, f));
        flags[i + j] |= f;
      } else {
        out[i + j] = BFloat16::from_bits(static_cast<std::uint16_t>(ro[j]));
        flags[i + j] |= fo[j];
      }
    }
  }
  for (; i < n; ++i) {
    unsigned f = 0;
    out[i] = BFloat16::from_bits(
        impl::narrow_32_to_bf16_lane(in[i], mode, daz, env, f));
    flags[i] |= f;
  }
}

void narrow_32_to_16(const Float32* a, Float16* out, unsigned* flags,
                     std::size_t n, Env& env) noexcept {
  const Rounding mode = env.rounding();
  const bool daz = env.denormals_are_zero();
  const bool ftz = env.flush_to_zero();
  const auto* in = reinterpret_cast<const std::uint32_t*>(a);
  std::size_t i = 0;
  alignas(32) std::uint32_t ro[kW];
  alignas(32) std::uint32_t fo[kW];
  for (; i + kW <= n; i += kW) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    const __m256i m =
        _mm256_and_si256(v, _mm256_set1_epi32(0x7FFFFFFF));
    const __m256i neg = _mm256_srai_epi32(v, 31);
    const __m256i sign16 = _mm256_and_si256(_mm256_srli_epi32(v, 16),
                                            _mm256_set1_epi32(0x8000));
    // Dominant class: binary16-normal results (plus overflow).
    const __m256i easy = _mm256_and_si256(
        ge_epi32(m, 0x38800000),
        le_epi32(m, static_cast<int>(impl::kInf32) - 1));
    const __m256i low = _mm256_set1_epi32(0x1FFF);
    const __m256i r = _mm256_andnot_si256(
        low, _mm256_add_epi32(m, bias_epi32(mode, m, neg, 13, 0x1FFFu)));
    const __m256i ovf =
        _mm256_cmpgt_epi32(r, _mm256_set1_epi32(0x477FE000));
    const __m256i ovf_val =
        select_epi32(to_inf_epi32(mode, neg), _mm256_set1_epi32(0x7C00),
                     _mm256_set1_epi32(0x7BFF));
    const __m256i inexact = _mm256_xor_si256(
        _mm256_cmpeq_epi32(_mm256_and_si256(m, low),
                           _mm256_setzero_si256()),
        _mm256_set1_epi32(-1));
    const __m256i narrowed = _mm256_srli_epi32(
        _mm256_sub_epi32(r, _mm256_set1_epi32(0x38000000)), 13);
    const __m256i val =
        _mm256_or_si256(sign16, select_epi32(ovf, ovf_val, narrowed));
    const __m256i fl = select_epi32(
        ovf, _mm256_set1_epi32(kFlagOverflow | kFlagInexact),
        _mm256_and_si256(inexact, _mm256_set1_epi32(kFlagInexact)));
    _mm256_store_si256(reinterpret_cast<__m256i*>(ro), val);
    _mm256_store_si256(reinterpret_cast<__m256i*>(fo), fl);
    const unsigned hard = mask_bits(easy) ^ 0xFFu;
    if (hard == 0) {
      for (std::size_t j = 0; j < kW; ++j) {
        out[i + j] = Float16::from_bits(static_cast<std::uint16_t>(ro[j]));
        flags[i + j] |= fo[j];
      }
      continue;
    }
    for (std::size_t j = 0; j < kW; ++j) {
      if ((hard >> j) & 1) {
        unsigned f = 0;
        out[i + j] = Float16::from_bits(
            impl::narrow_32_to_16_lane(in[i + j], mode, daz, ftz, env, f));
        flags[i + j] |= f;
      } else {
        out[i + j] = Float16::from_bits(static_cast<std::uint16_t>(ro[j]));
        flags[i + j] |= fo[j];
      }
    }
  }
  for (; i < n; ++i) {
    unsigned f = 0;
    out[i] = Float16::from_bits(
        impl::narrow_32_to_16_lane(in[i], mode, daz, ftz, env, f));
    flags[i] |= f;
  }
}

void widen_16_to_32(const Float16* a, Float32* out, unsigned* flags,
                    std::size_t n, Env& env) noexcept {
  const bool daz = env.denormals_are_zero();
  const auto* in = reinterpret_cast<const std::uint16_t*>(a);
  std::size_t i = 0;
  alignas(32) std::uint32_t ro[kW];
  for (; i + kW <= n; i += kW) {
    const __m256i p = _mm256_cvtepu16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i)));
    const __m256i be = _mm256_and_si256(_mm256_srli_epi32(p, 10),
                                        _mm256_set1_epi32(0x1F));
    // Dominant class: normal operands (be in [1, 30]); the widening is
    // exact and raises nothing.
    const __m256i easy = _mm256_and_si256(
        _mm256_cmpgt_epi32(be, _mm256_setzero_si256()),
        _mm256_cmpgt_epi32(_mm256_set1_epi32(31), be));
    const __m256i sign = _mm256_slli_epi32(
        _mm256_and_si256(p, _mm256_set1_epi32(0x8000)), 16);
    const __m256i val = _mm256_or_si256(
        sign,
        _mm256_add_epi32(
            _mm256_slli_epi32(
                _mm256_and_si256(p, _mm256_set1_epi32(0x7FFF)), 13),
            _mm256_set1_epi32(0x38000000)));
    _mm256_store_si256(reinterpret_cast<__m256i*>(ro), val);
    const unsigned hard = mask_bits(easy) ^ 0xFFu;
    if (hard == 0) {
      for (std::size_t j = 0; j < kW; ++j) {
        out[i + j] = Float32::from_bits(ro[j]);
      }
      continue;
    }
    for (std::size_t j = 0; j < kW; ++j) {
      if ((hard >> j) & 1) {
        unsigned f = 0;
        out[i + j] =
            Float32::from_bits(impl::widen_16_to_32_lane(in[i + j], daz,
                                                         env, f));
        flags[i + j] |= f;
      } else {
        out[i + j] = Float32::from_bits(ro[j]);
      }
    }
  }
  for (; i < n; ++i) {
    unsigned f = 0;
    out[i] = Float32::from_bits(impl::widen_16_to_32_lane(in[i], daz,
                                                          env, f));
    flags[i] |= f;
  }
}

void widen_bf16_to_32(const BFloat16* a, Float32* out, unsigned* flags,
                      std::size_t n, Env& env) noexcept {
  const bool daz = env.denormals_are_zero();
  const auto* in = reinterpret_cast<const std::uint16_t*>(a);
  std::size_t i = 0;
  alignas(32) std::uint32_t ro[kW];
  for (; i + kW <= n; i += kW) {
    const __m256i p = _mm256_cvtepu16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i)));
    const __m256i be = _mm256_and_si256(_mm256_srli_epi32(p, 7),
                                        _mm256_set1_epi32(0xFF));
    const __m256i frac_zero = _mm256_cmpeq_epi32(
        _mm256_and_si256(p, _mm256_set1_epi32(0x7F)),
        _mm256_setzero_si256());
    // Hard: NaN payloads and subnormal operands; everything else is the
    // exact encoding shift with no flags.
    const __m256i boundary_be = _mm256_or_si256(
        _mm256_cmpeq_epi32(be, _mm256_setzero_si256()),
        _mm256_cmpeq_epi32(be, _mm256_set1_epi32(0xFF)));
    const __m256i easy =
        _mm256_or_si256(frac_zero,
                        _mm256_xor_si256(boundary_be,
                                         _mm256_set1_epi32(-1)));
    _mm256_store_si256(reinterpret_cast<__m256i*>(ro),
                       _mm256_slli_epi32(p, 16));
    const unsigned hard = mask_bits(easy) ^ 0xFFu;
    if (hard == 0) {
      for (std::size_t j = 0; j < kW; ++j) {
        out[i + j] = Float32::from_bits(ro[j]);
      }
      continue;
    }
    for (std::size_t j = 0; j < kW; ++j) {
      if ((hard >> j) & 1) {
        unsigned f = 0;
        out[i + j] = Float32::from_bits(
            impl::widen_bf16_to_32_lane(in[i + j], daz, env, f));
        flags[i + j] |= f;
      } else {
        out[i + j] = Float32::from_bits(ro[j]);
      }
    }
  }
  for (; i < n; ++i) {
    unsigned f = 0;
    out[i] = Float32::from_bits(impl::widen_bf16_to_32_lane(in[i], daz,
                                                            env, f));
    flags[i] |= f;
  }
}

void widen_32_to_64(const Float32* a, Float64* out, unsigned* flags,
                    std::size_t n, Env& env) noexcept {
  const bool daz = env.denormals_are_zero();
  const auto* in = reinterpret_cast<const std::uint32_t*>(a);
  std::size_t i = 0;
  alignas(32) std::uint64_t ro[kW];
  for (; i + kW <= n; i += kW) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    const __m256i m =
        _mm256_and_si256(v, _mm256_set1_epi32(0x7FFFFFFF));
    const __m256i be = _mm256_srli_epi32(m, 23);
    // Dominant class: normal operands and zeros (exact, no flags).
    const __m256i normal = _mm256_and_si256(
        _mm256_cmpgt_epi32(be, _mm256_setzero_si256()),
        _mm256_cmpgt_epi32(_mm256_set1_epi32(0xFF), be));
    const __m256i easy = _mm256_or_si256(
        normal, _mm256_cmpeq_epi32(m, _mm256_setzero_si256()));
    for (int half = 0; half < 2; ++half) {
      const __m128i lane4 = half == 0 ? _mm256_castsi256_si128(v)
                                      : _mm256_extracti128_si256(v, 1);
      const __m256i x = _mm256_cvtepu32_epi64(lane4);
      const __m256i sign64 = _mm256_slli_epi64(
          _mm256_and_si256(x, _mm256_set1_epi64x(0x80000000ll)), 32);
      const __m256i m64 = _mm256_and_si256(
          x, _mm256_set1_epi64x(0x7FFFFFFFll));
      const __m256i widened = _mm256_add_epi64(
          _mm256_slli_epi64(m64, 29),
          _mm256_set1_epi64x(static_cast<long long>(
              std::uint64_t{896} << 52)));
      // Zeros must stay zero, not pick up the rebias term.
      const __m256i zero64 =
          _mm256_cmpeq_epi64(m64, _mm256_setzero_si256());
      const __m256i val = _mm256_or_si256(
          sign64, _mm256_andnot_si256(zero64, widened));
      _mm256_store_si256(reinterpret_cast<__m256i*>(ro + 4 * half), val);
    }
    const unsigned hard = mask_bits(easy) ^ 0xFFu;
    if (hard == 0) {
      for (std::size_t j = 0; j < kW; ++j) {
        out[i + j] = Float64::from_bits(ro[j]);
      }
      continue;
    }
    for (std::size_t j = 0; j < kW; ++j) {
      if ((hard >> j) & 1) {
        unsigned f = 0;
        out[i + j] = Float64::from_bits(
            impl::widen_32_to_64_lane(in[i + j], daz, env, f));
        flags[i + j] |= f;
      } else {
        out[i + j] = Float64::from_bits(ro[j]);
      }
    }
  }
  for (; i < n; ++i) {
    unsigned f = 0;
    out[i] = Float64::from_bits(impl::widen_32_to_64_lane(in[i], daz,
                                                          env, f));
    flags[i] |= f;
  }
}

void round_int32(const Float32* a, Float32* out, unsigned* flags,
                 std::size_t n, Env& env) noexcept {
  const Rounding mode = env.rounding();
  const bool daz = env.denormals_are_zero();
  const auto* in = reinterpret_cast<const std::uint32_t*>(a);
  std::size_t i = 0;
  alignas(32) std::uint32_t ro[kW];
  alignas(32) std::uint32_t fo[kW];
  for (; i + kW <= n; i += kW) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    const __m256i m =
        _mm256_and_si256(v, _mm256_set1_epi32(0x7FFFFFFF));
    const __m256i neg = _mm256_srai_epi32(v, 31);
    const __m256i sign =
        _mm256_and_si256(v, _mm256_set1_epi32(
                                static_cast<int>(0x80000000u)));
    // Classes handled in-vector; NaN and nonzero subnormals go scalar.
    const __m256i copy = _mm256_or_si256(
        _mm256_and_si256(ge_epi32(m, 0x4B000000),
                         le_epi32(m, static_cast<int>(impl::kInf32))),
        _mm256_cmpeq_epi32(m, _mm256_setzero_si256()));
    const __m256i sub1 = _mm256_and_si256(ge_epi32(m, 0x00800000),
                                          le_epi32(m, 0x3F7FFFFF));
    const __m256i mid = _mm256_and_si256(ge_epi32(m, 0x3F800000),
                                         le_epi32(m, 0x4AFFFFFF));
    const __m256i easy =
        _mm256_or_si256(copy, _mm256_or_si256(sub1, mid));
    // sub-one band: rounds to 0 or ±1.
    __m256i away;
    switch (mode) {
      case Rounding::kNearestEven:
        away = _mm256_cmpgt_epi32(m, _mm256_set1_epi32(0x3F000000));
        break;
      case Rounding::kNearestAway:
        away = ge_epi32(m, 0x3F000000);
        break;
      case Rounding::kTowardZero:
        away = _mm256_setzero_si256();
        break;
      case Rounding::kUp:
        away = _mm256_xor_si256(neg, _mm256_set1_epi32(-1));
        break;
      case Rounding::kDown:
        away = neg;
        break;
      default:
        away = _mm256_setzero_si256();
        break;
    }
    const __m256i sub1_val = _mm256_or_si256(
        sign, _mm256_and_si256(away, _mm256_set1_epi32(0x3F800000)));
    // integral band: masked add at the binade-dependent bit.
    const __m256i vq =
        _mm256_sub_epi32(_mm256_set1_epi32(150), _mm256_srli_epi32(m, 23));
    const __m256i vlow = _mm256_sub_epi32(
        _mm256_sllv_epi32(_mm256_set1_epi32(1), vq),
        _mm256_set1_epi32(1));
    const __m256i r = _mm256_andnot_si256(
        vlow,
        _mm256_add_epi32(m, bias_var_epi32(mode, m, neg, vq, vlow)));
    const __m256i mid_inexact = _mm256_xor_si256(
        _mm256_cmpeq_epi32(_mm256_and_si256(m, vlow),
                           _mm256_setzero_si256()),
        _mm256_set1_epi32(-1));
    const __m256i mid_val = _mm256_or_si256(sign, r);
    const __m256i val = select_epi32(
        copy, v, select_epi32(mid, mid_val, sub1_val));
    const __m256i fl = _mm256_and_si256(
        select_epi32(copy, _mm256_setzero_si256(),
                     select_epi32(mid, mid_inexact, _mm256_set1_epi32(-1))),
        _mm256_set1_epi32(kFlagInexact));
    _mm256_store_si256(reinterpret_cast<__m256i*>(ro), val);
    _mm256_store_si256(reinterpret_cast<__m256i*>(fo), fl);
    const unsigned hard = mask_bits(easy) ^ 0xFFu;
    if (hard == 0) {
      for (std::size_t j = 0; j < kW; ++j) {
        out[i + j] = Float32::from_bits(ro[j]);
        flags[i + j] |= fo[j];
      }
      continue;
    }
    for (std::size_t j = 0; j < kW; ++j) {
      if ((hard >> j) & 1) {
        unsigned f = 0;
        out[i + j] = Float32::from_bits(
            impl::round_int32_lane(in[i + j], mode, daz, env, f));
        flags[i + j] |= f;
      } else {
        out[i + j] = Float32::from_bits(ro[j]);
        flags[i + j] |= fo[j];
      }
    }
  }
  for (; i < n; ++i) {
    unsigned f = 0;
    out[i] = Float32::from_bits(
        impl::round_int32_lane(in[i], mode, daz, env, f));
    flags[i] |= f;
  }
}

void sqrt32(const Float32* a, Float32* out, unsigned* flags, std::size_t n,
            Env& env) noexcept {
  const fast::FenvPin pin;  // _mm256_sqrt_pd honours MXCSR rounding
  const Rounding mode = env.rounding();
  const bool daz = env.denormals_are_zero();
  const auto* in = reinterpret_cast<const std::uint32_t*>(a);
  std::size_t i = 0;
  alignas(32) std::uint64_t rr[kW];
  alignas(32) std::uint64_t ff[kW];
  for (; i + kW <= n; i += kW) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    const __m256i m =
        _mm256_and_si256(v, _mm256_set1_epi32(0x7FFFFFFF));
    const __m256i neg = _mm256_srai_epi32(v, 31);
    // Dominant class: positive normal operands. Everything else
    // (negatives, zeros, subnormals, inf, NaN) goes scalar — those
    // lanes are branch-trivial there.
    const __m256i easy = _mm256_andnot_si256(
        neg, _mm256_and_si256(
                 ge_epi32(m, 0x00800000),
                 le_epi32(m, static_cast<int>(impl::kInf32) - 1)));
    for (int half = 0; half < 2; ++half) {
      const __m128i lane4 = half == 0 ? _mm256_castsi256_si128(m)
                                      : _mm256_extracti128_si256(m, 1);
      // Exact widen of a positive normal binary32 to binary64 bits.
      const __m256i d = _mm256_add_epi64(
          _mm256_slli_epi64(_mm256_cvtepu32_epi64(lane4), 29),
          _mm256_set1_epi64x(
              static_cast<long long>(std::uint64_t{896} << 52)));
      // Correctly rounded under the pinned round-to-nearest; the extra
      // binary64 rounding is innocuous (see batch_kernels_impl.hpp).
      const __m256i rb = _mm256_castpd_si256(
          _mm256_sqrt_pd(_mm256_castsi256_pd(d)));
      const __m256i low = _mm256_set1_epi64x(0x1FFFFFFFll);
      __m256i bias;
      switch (mode) {
        case Rounding::kNearestEven:
          bias = _mm256_add_epi64(
              _mm256_set1_epi64x(0x0FFFFFFFll),
              _mm256_and_si256(_mm256_srli_epi64(rb, 29),
                               _mm256_set1_epi64x(1)));
          break;
        case Rounding::kNearestAway:
          bias = _mm256_set1_epi64x(0x10000000ll);
          break;
        case Rounding::kUp:  // results are positive
          bias = low;
          break;
        default:  // kTowardZero, kDown
          bias = _mm256_setzero_si256();
          break;
      }
      const __m256i folded = _mm256_andnot_si256(
          low, _mm256_add_epi64(rb, bias));
      const __m256i val = _mm256_sub_epi64(
          _mm256_srli_epi64(folded, 29),
          _mm256_set1_epi64x(static_cast<long long>(
              std::uint64_t{896} << 23)));
      const __m256i inexact = _mm256_xor_si256(
          _mm256_cmpeq_epi64(_mm256_and_si256(rb, low),
                             _mm256_setzero_si256()),
          _mm256_set1_epi64x(-1));
      _mm256_store_si256(reinterpret_cast<__m256i*>(rr + 4 * half), val);
      _mm256_store_si256(
          reinterpret_cast<__m256i*>(ff + 4 * half),
          _mm256_and_si256(inexact, _mm256_set1_epi64x(kFlagInexact)));
    }
    const unsigned hard = mask_bits(easy) ^ 0xFFu;
    if (hard == 0) {
      for (std::size_t j = 0; j < kW; ++j) {
        out[i + j] = Float32::from_bits(static_cast<std::uint32_t>(rr[j]));
        flags[i + j] |= static_cast<unsigned>(ff[j]);
      }
      continue;
    }
    for (std::size_t j = 0; j < kW; ++j) {
      if ((hard >> j) & 1) {
        unsigned f = 0;
        out[i + j] = Float32::from_bits(
            impl::sqrt32_lane(in[i + j], mode, daz, env, f));
        flags[i + j] |= f;
      } else {
        out[i + j] = Float32::from_bits(static_cast<std::uint32_t>(rr[j]));
        flags[i + j] |= static_cast<unsigned>(ff[j]);
      }
    }
  }
  for (; i < n; ++i) {
    unsigned f = 0;
    out[i] = Float32::from_bits(
        impl::sqrt32_lane(in[i], mode, daz, env, f));
    flags[i] |= f;
  }
}

#endif  // __AVX2__

}  // namespace avx2

}  // namespace fpq::softfloat::kernels
