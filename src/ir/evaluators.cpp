#include "ir/evaluators.hpp"

#include "parallel/sweep_util.hpp"
#include "softfloat/fast.hpp"

namespace fpq::ir {

namespace sf = fpq::softfloat;

std::uint64_t EvalConfig::fingerprint() const noexcept {
  std::uint64_t packed = static_cast<std::uint64_t>(format_bits);
  packed = (packed << 3) | static_cast<std::uint64_t>(rounding);
  packed = (packed << 1) | static_cast<std::uint64_t>(contract_mul_add);
  packed = (packed << 1) | static_cast<std::uint64_t>(reassociate);
  packed = (packed << 1) | static_cast<std::uint64_t>(flush_to_zero);
  packed = (packed << 1) | static_cast<std::uint64_t>(denormals_are_zero);
  // splitmix64 finalizer so distinct configs land in distinct stripes.
  std::uint64_t z = packed + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Opaque host ops (noinline + volatile, shared with the sweeps and native
// fault injection): evaluation must observe real FPU behavior, not
// constant folds.
using parallel::sweep_detail::hw_add;
using parallel::sweep_detail::hw_div;
using parallel::sweep_detail::hw_eq;
using parallel::sweep_detail::hw_fma;
using parallel::sweep_detail::hw_lt;
using parallel::sweep_detail::hw_mul;
using parallel::sweep_detail::hw_narrow;
using parallel::sweep_detail::hw_sqrt;
using parallel::sweep_detail::hw_sub;
using sf::fast::flip_sign;

double NativeEvaluator64::constant(const Expr& e) {
  return sf::to_native(e.node().value);
}
double NativeEvaluator64::variable(const Expr& e, double bound) {
  (void)e;
  return bound;
}
double NativeEvaluator64::neg(const Expr& e, const double& a) {
  (void)e;
  return flip_sign(a);
}
double NativeEvaluator64::add(const Expr& e, const double& a,
                              const double& b) {
  (void)e;
  return hw_add(a, b);
}
double NativeEvaluator64::sub(const Expr& e, const double& a,
                              const double& b) {
  (void)e;
  return hw_sub(a, b);
}
double NativeEvaluator64::mul(const Expr& e, const double& a,
                              const double& b) {
  (void)e;
  return hw_mul(a, b);
}
double NativeEvaluator64::div(const Expr& e, const double& a,
                              const double& b) {
  (void)e;
  return hw_div(a, b);
}
double NativeEvaluator64::sqrt(const Expr& e, const double& a) {
  (void)e;
  return hw_sqrt(a);
}
double NativeEvaluator64::fma(const Expr& e, const double& a,
                              const double& b, const double& c) {
  (void)e;
  return hw_fma(a, b, c);
}
double NativeEvaluator64::cmp_eq(const Expr& e, const double& a,
                                 const double& b) {
  (void)e;
  return hw_eq(a, b) ? 1.0 : 0.0;
}
double NativeEvaluator64::cmp_lt(const Expr& e, const double& a,
                                 const double& b) {
  (void)e;
  return hw_lt(a, b) ? 1.0 : 0.0;
}

double NativeEvaluator32::constant(const Expr& e) {
  return static_cast<double>(hw_narrow(sf::to_native(e.node().value)));
}
double NativeEvaluator32::variable(const Expr& e, double bound) {
  (void)e;
  return static_cast<double>(hw_narrow(bound));
}
double NativeEvaluator32::neg(const Expr& e, const double& a) {
  (void)e;
  return flip_sign(a);
}
double NativeEvaluator32::add(const Expr& e, const double& a,
                              const double& b) {
  (void)e;
  return static_cast<double>(hw_add(hw_narrow(a), hw_narrow(b)));
}
double NativeEvaluator32::sub(const Expr& e, const double& a,
                              const double& b) {
  (void)e;
  return static_cast<double>(hw_sub(hw_narrow(a), hw_narrow(b)));
}
double NativeEvaluator32::mul(const Expr& e, const double& a,
                              const double& b) {
  (void)e;
  return static_cast<double>(hw_mul(hw_narrow(a), hw_narrow(b)));
}
double NativeEvaluator32::div(const Expr& e, const double& a,
                              const double& b) {
  (void)e;
  return static_cast<double>(hw_div(hw_narrow(a), hw_narrow(b)));
}
double NativeEvaluator32::sqrt(const Expr& e, const double& a) {
  (void)e;
  return static_cast<double>(hw_sqrt(hw_narrow(a)));
}
double NativeEvaluator32::fma(const Expr& e, const double& a,
                              const double& b, const double& c) {
  (void)e;
  return static_cast<double>(
      hw_fma(hw_narrow(a), hw_narrow(b), hw_narrow(c)));
}
double NativeEvaluator32::cmp_eq(const Expr& e, const double& a,
                                 const double& b) {
  (void)e;
  return hw_eq<double>(hw_narrow(a), hw_narrow(b)) ? 1.0 : 0.0;
}
double NativeEvaluator32::cmp_lt(const Expr& e, const double& a,
                                 const double& b) {
  (void)e;
  return hw_lt<double>(hw_narrow(a), hw_narrow(b)) ? 1.0 : 0.0;
}

namespace {

template <int kBits>
Outcome evaluate_soft(const Expr& tree, const EvalConfig& config,
                      std::span<const double> bindings, TraceSink* trace) {
  SoftEvaluator<kBits> ev(config, trace);
  Outcome out;
  out.value = sf::from_native(evaluate_tree<double>(tree, ev, bindings));
  out.flags = ev.flags();
  return out;
}

}  // namespace

Outcome evaluate(const Expr& expr, const EvalConfig& config,
                 std::span<const double> bindings, TraceSink* trace) {
  const Expr tree = pipeline_rewrite(expr, config.contract_mul_add,
                                     config.reassociate);
  switch (config.format_bits) {
    case 16:
      return evaluate_soft<16>(tree, config, bindings, trace);
    case 32:
      return evaluate_soft<32>(tree, config, bindings, trace);
    case sf::kBFloat16:
      return evaluate_soft<sf::kBFloat16>(tree, config, bindings, trace);
    default:
      return evaluate_soft<64>(tree, config, bindings, trace);
  }
}

}  // namespace fpq::ir
