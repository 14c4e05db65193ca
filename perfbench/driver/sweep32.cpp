// Workload `sweep32`: the binary32 sqrt differential sweep through
// parallel::sweep32::run_sweep32 on one thread, default checks on (the
// softfloat kernel raced against the host-FPU reference, ir::execute_rows
// on every pattern and a scalar Tape::execute stride).
//
// Inputs: seed-derived shard windows whose encoding-class shares match
// the full 2^32 sqrt sweep that run_sweep32 serves (both signs alike):
// per sign, two 2^18 windows in the normals below 1 and two from 1 up
// (one in each half of the class's range), plus small corner windows —
// 2^12 subnormals, 2^11 from +-Inf into the signaling NaNs and 2^11
// quiet NaNs. That is 0.39% subnormal and 0.39% NaN, as in the full
// space. Every seed has the same class counts; only the encodings inside
// each class move.
#include <array>
#include <span>
#include <string>
#include <utility>

#include "bench.hpp"
#include "ir/ir.hpp"
#include "parallel/sweep32.hpp"
#include "parallel/sweep32_ref.hpp"
#include "parallel/sweep_util.hpp"
#include "softfloat/batch.hpp"
#include "stats/prng.hpp"

namespace perfbench {
namespace {

namespace sf = fpq::softfloat;
namespace ir = fpq::ir;
namespace sw = fpq::parallel::sweep32;
namespace sd = fpq::parallel::sweep_detail;

constexpr int kBigBits = 18;
constexpr std::uint32_t kSign = 0x80000000u;
constexpr std::uint32_t kMinNormal = 0x00800000u;
constexpr std::uint32_t kOne = 0x3F800000u;
constexpr std::uint32_t kInf = 0x7F800000u;
constexpr std::uint32_t kQuietNan = 0x7FC00000u;
constexpr sf::Rounding kMode = sf::Rounding::kNearestEven;
/// The stated margin of the traced decomposition: the separately timed
/// children may exceed the pass by at most 10% before the decomposition
/// no longer describes the sweep (the traced run then fails).
constexpr double kMaxChildrenFrac = 1.10;

/// Encoding classes counted in the input mix. The windows never hold a
/// zero (the subnormal windows start at the smallest subnormal).
enum Class { kSubnormal, kSmallNormal, kLargeNormal, kInfinity, kNan, kClassCount };
constexpr const char* kClassNames[] = {"subnormal", "small_normal", "large_normal", "inf", "nan"};

Class classify(std::uint32_t bits) {
  const std::uint32_t m = bits & ~kSign;
  if (m < kMinNormal) return kSubnormal;
  if (m < kOne) return kSmallNormal;
  if (m < kInf) return kLargeNormal;
  return m == kInf ? kInfinity : kNan;
}

/// One run_sweep32 call: `1 << bits` patterns from `begin`, one shard.
struct Window {
  std::uint32_t begin = 0;
  int bits = 0;
  std::uint32_t size() const { return 1u << bits; }
};

class Sweep32 final : public Workload {
 public:
  void setup(const RunContext& ctx) override {
    checks_ = ctx.checks;
    fpq::stats::Xoshiro256pp g(ctx.seed);
    // A window of 2^bits patterns at a seeded offset inside [lo, hi).
    const auto pick = [&g](std::uint32_t lo, std::uint32_t hi, int bits) {
      const std::uint32_t size = 1u << bits;
      return Window{lo + static_cast<std::uint32_t>(
                             fpq::stats::uniform_below(g, hi - lo - size + 1)),
                    bits};
    };
    windows_.clear();
    for (const std::uint32_t sign : {0u, kSign}) {
      const auto add = [&](Window w) {
        w.begin |= sign;
        windows_.push_back(w);
      };
      for (const auto& [lo, hi] : {std::pair{kMinNormal, kOne}, std::pair{kOne, kInf}}) {
        const std::uint32_t mid = lo + (hi - lo) / 2;
        add(pick(lo, mid, kBigBits));
        add(pick(mid, hi, kBigBits));
      }
      add(pick(1, kMinNormal, 12));
      add(Window{kInf, 11});
      add(pick(kQuietNan, kSign, 11));
    }
  }

  PassResult pass(Tracer* tracer) override {
    Tracer::Scope span(tracer, "sweep32.pass", values());
    PassResult r;
    for (std::size_t w = 0; w < windows_.size(); ++w) {
      Tracer::Scope win(tracer, "parallel.sweep32.run", windows_[w].size());
      const sw::Sweep32Report rep = run_window(windows_[w]);
      checks_->add(rep.run_checked, rep.run_mismatches,
                   "sweep32 lanes vs host reference and tape engines" +
                       (rep.mismatch_samples.empty() ? std::string()
                                                     : ": " + rep.mismatch_samples.front()));
      checks_->expect(rep.complete && rep.run_checked == windows_[w].size(),
                      "sweep32 window incomplete");
      r.items += rep.run_checked;
      r.fingerprint = fold(r.fingerprint ^ w, rep.fingerprint);
    }
    return r;
  }

  void layers(Tracer& tr, double seconds, Metrics& out) override {
    ir::EvalConfig ec;
    ec.format_bits = 32;
    ec.rounding = kMode;
    const ir::Tape tape = ir::Tape::compile(ir::Expr::sqrt(ir::Expr::variable("x", 0)), ec);
    constexpr std::size_t kStride = sw::Sweep32Config{}.tape_scalar_stride;

    std::vector<sf::Float32> in, soft, oracle, hw;
    std::vector<unsigned> flags, oracle_flags;
    std::vector<double> rows;
    std::vector<ir::Outcome> outs;
    std::uint64_t stride_calls = 0;
    for (const Window& w : windows_) stride_calls += (w.size() + kStride - 1) / kStride;

    // Each layer over every window, repeated for the time budget.
    const double per_rep = seconds / 2.0;
    repeat_for(per_rep, 1, [&] {
      for (const Window& w : windows_) {
        const std::uint32_t n = w.size();
        for (auto* v : {&in, &soft, &oracle, &hw}) v->resize(n);
        flags.resize(n);
        oracle_flags.resize(n);
        rows.resize(n);
        outs.resize(n);
        for (std::uint32_t i = 0; i < n; ++i) {
          in[i] = sf::Float32{w.begin + i};
          rows[i] = sf::to_native(sw::ref_widen64(in[i]));
        }
        {
          // The scalar variant is the integer softfloat: the oracle the
          // faster variants are checked against below.
          sf::ScopedKernelVariant scalar(sf::KernelVariant::kScalar);
          std::fill(oracle_flags.begin(), oracle_flags.end(), 0u);
          sf::Env env(kMode);
          sf::sqrt_n<32>(in.data(), oracle.data(), oracle_flags.data(), n, env);
        }
        {
          std::fill(flags.begin(), flags.end(), 0u);
          sf::Env env(kMode);
          Tracer::Scope s(&tr, "softfloat.sqrt32", n);
          sf::sqrt_n<32>(in.data(), soft.data(), flags.data(), n, env);
        }
        checks_->add(n, lane_mismatches(soft, flags, oracle, oracle_flags),
                     "sqrt32 kernel vs scalar softfloat");
        for (const sf::KernelVariant v : kKernelVariants) {
          if (!sf::kernel_variant_available(v)) continue;
          const std::string name =
              std::string("softfloat.sqrt32.") + sf::kernel_variant_name(v);
          sf::ScopedKernelVariant scoped(v);
          std::fill(flags.begin(), flags.end(), 0u);
          sf::Env env(kMode);
          {
            Tracer::Scope s(&tr, name.c_str(), n);
            sf::sqrt_n<32>(in.data(), soft.data(), flags.data(), n, env);
          }
          checks_->add(n, lane_mismatches(soft, flags, oracle, oracle_flags),
                       name + " vs scalar softfloat");
        }
        {
          const sd::ScopedFenvRounding guard(sd::fenv_mode_of(kMode));
          Tracer::Scope s(&tr, "sweep32.ref", n);
          for (std::uint32_t i = 0; i < n; ++i) {
            hw[i] = sf::from_native(sd::hw_sqrt<float>(sf::to_native(in[i])));
          }
        }
        std::uint64_t bad = 0;
        for (std::uint32_t i = 0; i < n; ++i) {
          const bool same = (hw[i].is_nan() && oracle[i].is_nan()) || hw[i].bits == oracle[i].bits;
          bad += same ? 0 : 1;
        }
        checks_->add(n, bad, "host sqrt vs scalar softfloat");
        {
          Tracer::Scope s(&tr, "ir.execute_rows.sqrt32", n);
          ir::execute_rows(tape, rows, 1, outs);
        }
        bad = 0;
        sf::Env quiet;
        for (std::uint32_t i = 0; i < n; ++i) {
          bad += outs[i].value.bits == sf::convert<64, 32>(oracle[i], quiet).bits ? 0 : 1;
        }
        checks_->add(n, bad, "execute_rows vs scalar softfloat");
        {
          Tracer::Scope s(&tr, "ir.execute.sqrt32", (n + kStride - 1) / kStride);
          for (std::uint32_t i = 0; i < n; i += kStride) {
            outs[i] = ir::execute(tape, std::span<const double>(&rows[i], 1));
          }
        }
        bad = 0;
        for (std::uint32_t i = 0; i < n; i += kStride) {
          bad += outs[i].value.bits == sf::convert<64, 32>(oracle[i], quiet).bits ? 0 : 1;
        }
        checks_->add((n + kStride - 1) / kStride, bad, "Tape::execute vs scalar softfloat");
      }
    });
    repeat_for(per_rep, 1, [&] {
      Tracer::Scope s(&tr, "sweep32.layer_pass", values());
      for (const Window& w : windows_) run_window(w);
    });
    for (const sf::KernelVariant v : kKernelVariants) {
      if (!sf::kernel_variant_available(v)) {
        out.skipped.push_back(std::string("softfloat.sqrt32.") + sf::kernel_variant_name(v) +
                              ".ns_per_value: kernel variant unavailable on this host");
      }
    }

    const auto ns = [&tr](const std::string& span) { return tr.per_unit(span, 1e9); };
    const double kernel = ns("softfloat.sqrt32");
    const double rows_ns = ns("ir.execute_rows.sqrt32");
    const double scalar_ns = ns("ir.execute.sqrt32");
    const double ref = ns("sweep32.ref");
    const double pass = ns("sweep32.layer_pass");
    // Per swept value: the scalar tape runs on one pattern in kStride.
    const double scalar_share =
        scalar_ns * static_cast<double>(stride_calls) / static_cast<double>(values());
    const double children = kernel + ref + rows_ns + scalar_share;
    out.add("softfloat.sqrt32.ns_per_value", kernel, "ns");
    for (const sf::KernelVariant v : kKernelVariants) {
      if (!sf::kernel_variant_available(v)) continue;
      const std::string name = std::string("softfloat.sqrt32.") + sf::kernel_variant_name(v);
      out.add(name + ".ns_per_value", ns(name), "ns");
    }
    out.add("ir.execute_rows.sqrt32.ns_per_value", rows_ns, "ns");
    out.add("ir.execute.sqrt32.ns_per_value", scalar_ns, "ns");
    out.add("ir.tape_tax", rows_ns / kernel, "ratio");
    out.add("ir.tape_tax.pass_frac", (rows_ns + scalar_share) / pass, "ratio");
    out.add("sweep32.ref.ns_per_value", ref, "ns");
    out.add("sweep32.pass.ns_per_value", pass, "ns");
    out.add("sweep32.self.ns_per_value", pass - children, "ns");
    out.add("sweep32.children_frac", children / pass, "ratio");
    checks_->expect(children / pass <= kMaxChildrenFrac,
                    "sweep32: decomposition children exceed the pass by more than the margin");
  }

  void mix(Metrics& out) const override {
    std::array<std::uint64_t, kClassCount> counts{};
    std::uint64_t negative = 0, avx2_hard = 0;
    for (const Window& w : windows_) {
      for (std::uint32_t i = 0; i < w.size(); ++i) {
        const std::uint32_t bits = w.begin + i;
        const Class c = classify(bits);
        counts[c] += 1;
        negative += (bits & kSign) != 0 ? 1 : 0;
        // The AVX2 sqrt kernel's vector path takes positive normals only.
        avx2_hard += ((bits & kSign) == 0 && (c == kSmallNormal || c == kLargeNormal)) ? 0 : 1;
      }
    }
    const double n = static_cast<double>(values());
    out.add("sweep32.mix.values", n, "count");
    out.add("sweep32.mix.negative", static_cast<double>(negative), "count");
    for (int c = 0; c < kClassCount; ++c) {
      out.add(std::string("sweep32.mix.") + kClassNames[c], static_cast<double>(counts[c]),
              "count");
    }
    // fast32's sqrt lane hands exactly the NaN operands to the scalar
    // softfloat op; computed from the encodings, not counted in the kernel.
    out.add("sweep32.fallback_frac", static_cast<double>(counts[kNan]) / n, "computed");
    out.add("sweep32.avx2_scalar_lane_frac", static_cast<double>(avx2_hard) / n, "computed");
  }

 private:
  std::uint64_t values() const {
    std::uint64_t n = 0;
    for (const Window& w : windows_) n += w.size();
    return n;
  }

  static sw::Sweep32Report run_window(const Window& w) {
    sw::Sweep32Config cfg;
    cfg.op = sw::UnaryOp32::kSqrt;
    cfg.modes = {kMode};
    cfg.begin = w.begin;
    cfg.end = std::uint64_t{w.begin} + w.size();
    cfg.chunk_bits = w.bits;
    cfg.threads = 1;
    return sw::run_sweep32(cfg);
  }

  Checks* checks_ = nullptr;
  std::vector<Window> windows_;
};

}  // namespace

std::unique_ptr<Workload> make_sweep32() { return std::make_unique<Sweep32>(); }

}  // namespace perfbench
