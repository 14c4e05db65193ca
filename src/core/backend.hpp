// fpq::quiz — the arithmetic backends the quiz runs against.
//
// A backend is "a floating point implementation the quiz can be run
// against": host hardware in double or float, or the softfloat engine in
// any of its formats and (non-standard) flush modes. Ground truths are
// *derived by execution* on a backend, so the answer key is demonstrated,
// not asserted — and running the derivation on a non-IEEE backend (FTZ)
// shows exactly which answers silently change on such hardware.
//
// A backend is one row of the registry below bound to one of ir's
// evaluators: ir::SoftEvaluator<kBits> for the softfloat rows,
// ir::NativeEvaluator64/32 for the host rows. Trees run through the
// evaluator's exact_trace() tape, so the quiz and every other ir client
// share one arithmetic substrate. The value model is host double: each
// backend rounds operands into its own format on entry and widens results
// back, which makes one evaluation routine serve every precision.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fpmon/monitor.hpp"
#include "ir/evaluators.hpp"
#include "ir/expr.hpp"

namespace fpq::quiz {

/// One row of the backend catalogue: everything needed to construct a
/// backend. `make_all_backends()` and the per-format factories all build
/// from this single table, so a new format is one new row.
struct BackendDescriptor {
  const char* name;        ///< display name, unique across the registry
  int format_bits;         ///< 64, 32, 16, or softfloat::kBFloat16
  bool native;             ///< host FPU instead of the softfloat engine
  bool flush_to_zero;
  bool denormals_are_zero;
};

class ArithmeticBackend {
 public:
  /// Throws std::invalid_argument for a format the row cannot run in
  /// (softfloat: 64, 32, 16, bfloat16; host FPU: 64, 32).
  explicit ArithmeticBackend(const BackendDescriptor& d);

  /// Display name, e.g. "native-binary64", "softfloat-binary16".
  std::string name() const { return desc_.name; }

  /// Evaluates `expr` in the backend's format; `bindings` feeds kVar nodes
  /// by var_index. Conditions accumulate until take_conditions().
  double evaluate(const ir::Expr& expr,
                  std::span<const double> bindings = {});

  // IEEE comparison semantics in the backend's format.
  bool equal(double a, double b);
  bool less(double a, double b);

  /// Rounds a host double into the backend's format (identity for
  /// binary64 backends). Lets tests construct "what the backend sees".
  double canonicalize(double x);

  // Named values of the backend's format, widened to double.
  double max_finite() const noexcept { return max_finite_; }
  double min_normal() const noexcept { return min_normal_; }
  double min_subnormal() const noexcept { return min_subnormal_; }

  /// Exceptional conditions accumulated since the last call; clears.
  mon::ConditionSet take_conditions();

  /// True when the backend implements IEEE-standard semantics (no flush
  /// modes); the answer-key invariance tests quantify over these.
  bool ieee_compliant() const noexcept {
    return !desc_.flush_to_zero && !desc_.denormals_are_zero;
  }

 private:
  template <int kBits>
  void bind();

  BackendDescriptor desc_;
  std::unique_ptr<ir::Evaluator<double>> ev_;
  /// The softfloat rows' sticky flags; null on the host rows, whose
  /// conditions come from one fpmon monitor per evaluation.
  ir::FlagControl* soft_flags_ = nullptr;
  mon::ConditionSet native_conditions_;
  /// The node handed to the variable/comparison hooks (never traced).
  ir::Expr operand_;
  double max_finite_ = 0.0;
  double min_normal_ = 0.0;
  double min_subnormal_ = 0.0;
};

/// The full catalogue, in the order `make_all_backends()` returns.
std::span<const BackendDescriptor> backend_registry();

/// Constructs the backend a descriptor names.
std::unique_ptr<ArithmeticBackend> make_backend(const BackendDescriptor& d);

/// Factories (each resolves its descriptor from backend_registry()).
std::unique_ptr<ArithmeticBackend> make_native_double_backend();
std::unique_ptr<ArithmeticBackend> make_native_float_backend();
std::unique_ptr<ArithmeticBackend> make_soft_backend_64();
std::unique_ptr<ArithmeticBackend> make_soft_backend_32();
std::unique_ptr<ArithmeticBackend> make_soft_backend_16();
/// bfloat16: binary32's range with a 7-bit significand — the reduced-
/// precision ML format the paper's introduction motivates.
std::unique_ptr<ArithmeticBackend> make_soft_backend_bf16();
/// Softfloat binary64 with FTZ+DAZ: the non-standard hardware the
/// optimization quiz warns about.
std::unique_ptr<ArithmeticBackend> make_soft_backend_64_ftz();

/// Every backend above, for parameterized sweeps.
std::vector<std::unique_ptr<ArithmeticBackend>> make_all_backends();

}  // namespace fpq::quiz
