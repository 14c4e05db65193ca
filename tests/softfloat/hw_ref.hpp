// Test-only hardware reference oracle: runs an operation on the host FPU
// under a chosen rounding mode, capturing the resulting fenv sticky flags,
// so softfloat results can be compared bit-for-bit against IEEE hardware.
#pragma once

#include <cfenv>
#include <cstdint>

#include "parallel/sweep_util.hpp"
#include "softfloat/env.hpp"

namespace fpq::test {

// The project's opaque host arithmetic (noinline + volatile operands).
using parallel::sweep_detail::hw_add;
using parallel::sweep_detail::hw_div;
using parallel::sweep_detail::hw_fma;
using parallel::sweep_detail::hw_mul;
using parallel::sweep_detail::hw_narrow;
using parallel::sweep_detail::hw_sqrt;
using parallel::sweep_detail::hw_sub;
using parallel::sweep_detail::hw_widen_f32;

/// Translates raised fenv flags into softfloat Flag bits (the five standard
/// exceptions only; kFlagDenormalInput has no portable fenv equivalent).
inline unsigned from_fenv_flags(int excepts) {
  unsigned flags = 0;
  if (excepts & FE_INVALID) flags |= softfloat::kFlagInvalid;
  if (excepts & FE_DIVBYZERO) flags |= softfloat::kFlagDivByZero;
  if (excepts & FE_OVERFLOW) flags |= softfloat::kFlagOverflow;
  if (excepts & FE_UNDERFLOW) flags |= softfloat::kFlagUnderflow;
  if (excepts & FE_INEXACT) flags |= softfloat::kFlagInexact;
  return flags;
}

/// Result of running one operation on the host FPU.
template <typename T>
struct HwResult {
  T value{};
  unsigned flags = 0;  ///< softfloat Flag bits
};

/// Runs `op` (a callable returning T) with clean sticky flags under the
/// given fenv rounding mode and captures value + flags. The callable must
/// keep its operands opaque to the optimizer (the hw_* helpers do).
template <typename T, typename Op>
HwResult<T> run_hw(int fenv_rounding, Op&& op) {
  parallel::sweep_detail::ScopedFenvRounding guard(fenv_rounding);
  std::feclearexcept(FE_ALL_EXCEPT);
  HwResult<T> r;
  r.value = op();
  r.flags = from_fenv_flags(std::fetestexcept(FE_ALL_EXCEPT));
  return r;
}

}  // namespace fpq::test
