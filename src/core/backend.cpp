// The quiz's arithmetic backends: one registry row bound to one of ir's
// evaluators. The softfloat rows carry their sticky flags in the
// evaluator's Env, so condition harvesting is exact and portable; the host
// rows run every evaluation under one fpmon monitor.

#include "core/backend.hpp"

#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "ir/tape.hpp"
#include "softfloat/ops.hpp"

namespace fpq::quiz {

namespace {

namespace sf = fpq::softfloat;

// The one format-descriptor table every construction path shares. Order
// is the make_all_backends() order the sweeps and reports rely on.
constexpr BackendDescriptor kBackendRegistry[] = {
    {"native-binary64", 64, true, false, false},
    {"native-binary32", 32, true, false, false},
    {"softfloat-binary64", 64, false, false, false},
    {"softfloat-binary32", 32, false, false, false},
    {"softfloat-binary16", 16, false, false, false},
    {"softfloat-bfloat16", sf::kBFloat16, false, false, false},
    {"softfloat-binary64-ftz-daz", 64, false, true, true},
};

template <int kBits>
double widen(sf::Float<kBits> x) {
  sf::Env quiet;  // widening is exact
  return sf::to_native(sf::convert<64>(x, quiet));
}

std::unique_ptr<ArithmeticBackend> from_registry(std::string_view name) {
  for (const BackendDescriptor& d : backend_registry()) {
    if (name == d.name) return make_backend(d);
  }
  return nullptr;
}

}  // namespace

ArithmeticBackend::ArithmeticBackend(const BackendDescriptor& d)
    : desc_(d), operand_(ir::Expr::variable("x", 0)) {
  switch (d.format_bits) {
    case 64:
      bind<64>();
      break;
    case 32:
      bind<32>();
      break;
    case 16:
      bind<16>();
      break;
    case sf::kBFloat16:
      bind<sf::kBFloat16>();
      break;
    default:
      throw std::invalid_argument(std::string("backend ") + d.name +
                                  ": no such format");
  }
}

template <int kBits>
void ArithmeticBackend::bind() {
  max_finite_ = widen(sf::Float<kBits>::max_finite());
  min_normal_ = widen(sf::Float<kBits>::min_normal());
  min_subnormal_ = widen(sf::Float<kBits>::min_subnormal());
  if constexpr (kBits == 64 || kBits == 32) {
    if (desc_.native) {
      using Native = std::conditional_t<kBits == 64, ir::NativeEvaluator64,
                                        ir::NativeEvaluator32>;
      ev_ = std::make_unique<Native>();
      return;
    }
  }
  if (desc_.native) {
    throw std::invalid_argument(std::string("backend ") + desc_.name +
                                ": the host FPU offers binary64 and binary32");
  }
  ir::EvalConfig config;
  config.format_bits = kBits;
  config.flush_to_zero = desc_.flush_to_zero;
  config.denormals_are_zero = desc_.denormals_are_zero;
  auto soft = std::make_unique<ir::SoftEvaluator<kBits>>(config);
  soft_flags_ = soft.get();
  ev_ = std::move(soft);
}

double ArithmeticBackend::evaluate(const ir::Expr& expr,
                                   std::span<const double> bindings) {
  // exact_trace: the backend executes the tree walk's op sequence
  // verbatim — no CSE, no folding — because folding would run under the
  // tape config's softfloat arithmetic, not the backend's.
  const std::shared_ptr<const ir::Tape> tape =
      ir::Tape::cached(expr, {}, ir::TapeOptions::exact_trace());
  if (soft_flags_ != nullptr) {
    return ir::run_tape<double>(*tape, *ev_, bindings);
  }
  mon::ScopedMonitor monitor;
  const double r = ir::run_tape<double>(*tape, *ev_, bindings);
  native_conditions_.merge(monitor.stop());
  return r;
}

bool ArithmeticBackend::equal(double a, double b) {
  return ev_->cmp_eq(operand_, a, b) != 0.0;
}

bool ArithmeticBackend::less(double a, double b) {
  return ev_->cmp_lt(operand_, a, b) != 0.0;
}

double ArithmeticBackend::canonicalize(double x) {
  return ev_->variable(operand_, x);
}

mon::ConditionSet ArithmeticBackend::take_conditions() {
  if (soft_flags_ == nullptr) return std::exchange(native_conditions_, {});
  const auto out =
      mon::ConditionSet::from_softfloat_flags(soft_flags_->sticky_flags());
  soft_flags_->override_sticky_flags(0);
  return out;
}

std::span<const BackendDescriptor> backend_registry() {
  return kBackendRegistry;
}

std::unique_ptr<ArithmeticBackend> make_backend(const BackendDescriptor& d) {
  return std::make_unique<ArithmeticBackend>(d);
}

std::unique_ptr<ArithmeticBackend> make_native_double_backend() {
  return from_registry("native-binary64");
}
std::unique_ptr<ArithmeticBackend> make_native_float_backend() {
  return from_registry("native-binary32");
}
std::unique_ptr<ArithmeticBackend> make_soft_backend_64() {
  return from_registry("softfloat-binary64");
}
std::unique_ptr<ArithmeticBackend> make_soft_backend_32() {
  return from_registry("softfloat-binary32");
}
std::unique_ptr<ArithmeticBackend> make_soft_backend_16() {
  return from_registry("softfloat-binary16");
}
std::unique_ptr<ArithmeticBackend> make_soft_backend_bf16() {
  return from_registry("softfloat-bfloat16");
}
std::unique_ptr<ArithmeticBackend> make_soft_backend_64_ftz() {
  return from_registry("softfloat-binary64-ftz-daz");
}

std::vector<std::unique_ptr<ArithmeticBackend>> make_all_backends() {
  std::vector<std::unique_ptr<ArithmeticBackend>> out;
  for (const BackendDescriptor& d : backend_registry()) {
    out.push_back(make_backend(d));
  }
  return out;
}

}  // namespace fpq::quiz
