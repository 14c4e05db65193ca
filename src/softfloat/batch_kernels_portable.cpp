// fpq::softfloat — the portable (plain C++) accelerated batch kernels:
// per-lane bodies from batch_kernels_impl.hpp in tight branch-light
// loops the compiler can pipeline, and, for the binary ops, the shared
// fast-path lane bodies of softfloat/fast.hpp over binary32 encodings
// with the masked-add fold32. Bit- and flag-identical to the scalar batch
// entry points by the arguments laid out in those two headers, and proven
// so by the exhaustive sweep32 gates and tests/softfloat/test_fast32.cpp.
#include "softfloat/batch_kernels.hpp"

#include <cstdint>

#include "softfloat/batch_kernels_impl.hpp"
#include "softfloat/fast.hpp"

namespace fpq::softfloat::kernels::portable {

namespace {

/// fast.hpp lane storage: binary32 encodings in and out, results folded
/// by the masked-add fold32.
struct Encoded32 {
  using Value = Float32;
  Rounding mode;
  bool daz;
  static double load(Float32 x) noexcept { return fast::widen(x); }
  static Float32 encoding(Float32 x) noexcept { return x; }
  static Float32 store(Float32 r) noexcept { return r; }
  static Float32 zero(bool negative) noexcept {
    return Float32::zero(negative);
  }
  Float32 fold(double v, Env& env, unsigned& fl) const noexcept {
    return Float32::from_bits(impl::fold32(v, mode, env, fl));
  }
};

/// One fast-path lane body over n lanes under a pinned fenv.
template <class Body>
void run_lanes(Float32* out, unsigned* flags, std::size_t n, Env& env,
               Body body) noexcept {
  const fast::FenvPin pin;
  const Encoded32 s{env.rounding(), env.denormals_are_zero()};
  for (std::size_t i = 0; i < n; ++i) {
    unsigned fl = 0;
    out[i] = body(s, i, fl);
    flags[i] |= fl;
  }
}

}  // namespace

void add32(const Float32* a, const Float32* b, Float32* out, unsigned* flags,
           std::size_t n, Env& env) noexcept {
  run_lanes(out, flags, n, env, [&](const Encoded32& s, std::size_t i,
                                    unsigned& fl) {
    return fast::add_lane<32>(s, a[i], b[i], false, env, fl);
  });
}

void sub32(const Float32* a, const Float32* b, Float32* out, unsigned* flags,
           std::size_t n, Env& env) noexcept {
  run_lanes(out, flags, n, env, [&](const Encoded32& s, std::size_t i,
                                    unsigned& fl) {
    return fast::add_lane<32>(s, a[i], b[i], true, env, fl);
  });
}

void mul32(const Float32* a, const Float32* b, Float32* out, unsigned* flags,
           std::size_t n, Env& env) noexcept {
  run_lanes(out, flags, n, env, [&](const Encoded32& s, std::size_t i,
                                    unsigned& fl) {
    return fast::mul_lane<32>(s, a[i], b[i], env, fl);
  });
}

void div32(const Float32* a, const Float32* b, Float32* out, unsigned* flags,
           std::size_t n, Env& env) noexcept {
  run_lanes(out, flags, n, env, [&](const Encoded32& s, std::size_t i,
                                    unsigned& fl) {
    return fast::div_lane<32>(s, a[i], b[i], env, fl);
  });
}

void fma32(const Float32* a, const Float32* b, const Float32* c, Float32* out,
           unsigned* flags, std::size_t n, Env& env) noexcept {
  run_lanes(out, flags, n, env, [&](const Encoded32& s, std::size_t i,
                                    unsigned& fl) {
    return fast::fma_lane<32>(s, a[i], b[i], c[i], env, fl);
  });
}

void sqrt32(const Float32* a, Float32* out, unsigned* flags, std::size_t n,
            Env& env) noexcept {
  const fast::FenvPin pin;
  const Rounding mode = env.rounding();
  const bool daz = env.denormals_are_zero();
  for (std::size_t i = 0; i < n; ++i) {
    unsigned fl = 0;
    out[i] = Float32::from_bits(
        impl::sqrt32_lane(a[i].bits, mode, daz, env, fl));
    flags[i] |= fl;
  }
}

void round_int32(const Float32* a, Float32* out, unsigned* flags,
                 std::size_t n, Env& env) noexcept {
  const Rounding mode = env.rounding();
  const bool daz = env.denormals_are_zero();
  for (std::size_t i = 0; i < n; ++i) {
    unsigned fl = 0;
    out[i] = Float32::from_bits(
        impl::round_int32_lane(a[i].bits, mode, daz, env, fl));
    flags[i] |= fl;
  }
}

void narrow_32_to_16(const Float32* a, Float16* out, unsigned* flags,
                     std::size_t n, Env& env) noexcept {
  const Rounding mode = env.rounding();
  const bool daz = env.denormals_are_zero();
  const bool ftz = env.flush_to_zero();
  for (std::size_t i = 0; i < n; ++i) {
    unsigned fl = 0;
    out[i] = Float16::from_bits(
        impl::narrow_32_to_16_lane(a[i].bits, mode, daz, ftz, env, fl));
    flags[i] |= fl;
  }
}

void narrow_32_to_bf16(const Float32* a, BFloat16* out, unsigned* flags,
                       std::size_t n, Env& env) noexcept {
  const Rounding mode = env.rounding();
  const bool daz = env.denormals_are_zero();
  for (std::size_t i = 0; i < n; ++i) {
    unsigned fl = 0;
    out[i] = BFloat16::from_bits(
        impl::narrow_32_to_bf16_lane(a[i].bits, mode, daz, env, fl));
    flags[i] |= fl;
  }
}

void narrow_64_to_32(const Float64* a, Float32* out, unsigned* flags,
                     std::size_t n, Env& env) noexcept {
  const Rounding mode = env.rounding();
  for (std::size_t i = 0; i < n; ++i) {
    unsigned fl = 0;
    out[i] = Float32::from_bits(
        impl::narrow_64_to_32_lane(a[i].bits, mode, env, fl));
    flags[i] |= fl;
  }
}

void widen_16_to_32(const Float16* a, Float32* out, unsigned* flags,
                    std::size_t n, Env& env) noexcept {
  const bool daz = env.denormals_are_zero();
  for (std::size_t i = 0; i < n; ++i) {
    unsigned fl = 0;
    out[i] = Float32::from_bits(
        impl::widen_16_to_32_lane(a[i].bits, daz, env, fl));
    flags[i] |= fl;
  }
}

void widen_bf16_to_32(const BFloat16* a, Float32* out, unsigned* flags,
                      std::size_t n, Env& env) noexcept {
  const bool daz = env.denormals_are_zero();
  for (std::size_t i = 0; i < n; ++i) {
    unsigned fl = 0;
    out[i] = Float32::from_bits(
        impl::widen_bf16_to_32_lane(a[i].bits, daz, env, fl));
    flags[i] |= fl;
  }
}

void widen_32_to_64(const Float32* a, Float64* out, unsigned* flags,
                    std::size_t n, Env& env) noexcept {
  const bool daz = env.denormals_are_zero();
  for (std::size_t i = 0; i < n; ++i) {
    unsigned fl = 0;
    out[i] = Float64::from_bits(
        impl::widen_32_to_64_lane(a[i].bits, daz, env, fl));
    flags[i] |= fl;
  }
}

}  // namespace fpq::softfloat::kernels::portable
