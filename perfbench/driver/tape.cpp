// Workload `tape`: compiled tapes through ir::execute_batch on the pool,
// memoization off.
//
// Inputs: a binary16 table whose first operand runs through every
// binary16 encoding kSamples times, with seeded binary16 partners, and a
// binary32 table of the same row count with seeded binary32 encodings in
// every operand. Both run the six single-op trees and two multi-op trees
// (a degree-4 Horner polynomial and an fma chain), so the fast16 and
// fast32 block runners both execute. Every pass checks one row in
// kCheckStride, at a seeded offset, against the scalar softfloat tree
// walk (ir::evaluate), values and flags.
#include <array>
#include <span>
#include <string>

#include "bench.hpp"
#include "ir/ir.hpp"
#include "softfloat/batch.hpp"
#include "stats/prng.hpp"

namespace perfbench {
namespace {

namespace sf = fpq::softfloat;
namespace ir = fpq::ir;

constexpr std::size_t kSamples = 16;
constexpr std::size_t kRows = kSamples << 16;
constexpr std::size_t kCheckStride = 512;
constexpr std::size_t kSingleOpTrees = 6;
constexpr int kFormats[] = {16, 32};

std::vector<ir::Expr> make_trees() {
  const ir::Expr x = ir::Expr::variable("x", 0);
  const ir::Expr y = ir::Expr::variable("y", 1);
  const ir::Expr z = ir::Expr::variable("z", 2);
  const double coeffs[] = {0.5, -1.25, 2.0, 0.375, -3.0};
  return {ir::Expr::add(x, y),
          ir::Expr::sub(x, y),
          ir::Expr::mul(x, y),
          ir::Expr::div(x, y),
          ir::Expr::sqrt(x),
          ir::Expr::fma(x, y, z),
          ir::Expr::horner(coeffs, x),
          ir::Expr::fma(ir::Expr::fma(x, y, z), z, ir::Expr::fma(y, z, x))};
}

/// One format's operands: raw encodings per operand column plus the
/// row-major binding table of their exact binary64 values.
struct Table {
  int bits = 16;
  std::array<std::vector<std::uint32_t>, 3> enc;
  ir::BindingTable bindings;
  std::vector<ir::Tape> tapes;
};

std::uint64_t outcome_hash(std::uint64_t h, const std::vector<ir::Outcome>& outs) {
  for (const ir::Outcome& o : outs) {
    h = (h ^ o.value.bits) * 0x100000001B3ULL;
    h = (h ^ o.flags) * 0x100000001B3ULL;
  }
  return h;
}

const char* fmt_name(int bits) { return bits == 16 ? "b16" : "b32"; }

class TapeWorkload final : public Workload {
 public:
  void setup(const RunContext& ctx) override {
    checks_ = ctx.checks;
    pool_ = ctx.pool;
    trees_ = make_trees();
    fpq::stats::Xoshiro256pp g(ctx.seed);
    check_offset_ = static_cast<std::size_t>(fpq::stats::uniform_below(g, kCheckStride));
    sf::Env quiet;
    tables_.clear();
    for (const int bits : kFormats) {
      Table t;
      t.bits = bits;
      for (auto& col : t.enc) col.resize(kRows);
      for (std::size_t r = 0; r < kRows; ++r) {
        if (bits == 16) {
          t.enc[0][r] = static_cast<std::uint32_t>(r & 0xFFFF);
          t.enc[1][r] = static_cast<std::uint32_t>(g() & 0xFFFF);
          t.enc[2][r] = static_cast<std::uint32_t>(g() & 0xFFFF);
        } else {
          for (auto& col : t.enc) col[r] = static_cast<std::uint32_t>(g());
        }
      }
      t.bindings.width = 3;
      t.bindings.values.reserve(3 * kRows);
      for (std::size_t r = 0; r < kRows; ++r) {
        for (const auto& col : t.enc) {
          const sf::Float64 v =
              bits == 16 ? sf::convert<64>(sf::Float16{static_cast<std::uint16_t>(col[r])}, quiet)
                         : sf::convert<64>(sf::Float32{col[r]}, quiet);
          t.bindings.values.push_back(sf::to_native(v));
        }
      }
      t.tapes = compile_all(bits);
      tables_.push_back(std::move(t));
    }
  }

  PassResult pass(Tracer* tracer) override {
    Tracer::Scope span(tracer, "tape.pass", rows_per_pass());
    ir::BatchOptions opts;
    opts.memoize = false;
    PassResult r;
    for (const Table& t : tables_) {
      for (std::size_t k = 0; k < trees_.size(); ++k) {
        std::vector<ir::Outcome> outs;
        {
          Tracer::Scope s(tracer, "ir.execute_batch", kRows);
          outs = ir::execute_batch(*pool_, t.tapes[k], t.bindings, opts);
        }
        r.fingerprint = outcome_hash(fold(r.fingerprint, t.tapes[k].fingerprint()), outs);
        r.items += outs.size();
        Tracer::Scope s(tracer, "ir.tree_walk", kRows / kCheckStride);
        check_stride(t, k, outs);
      }
    }
    return r;
  }

  void layers(Tracer& tr, double seconds, Metrics& out) override {
    const double share = seconds / 4.0;
    repeat_for(share, 3, [&] {
      for (const int bits : kFormats) {
        Tracer::Scope s(&tr, "ir.compile", trees_.size());
        compile_all(bits);
      }
    });
    out.per_unit(tr, "ir.compile", "ir.compile.us", 1e6, "us");

    // 1-thread execute_rows per (format, single/multi), then the pooled
    // execute_batch over the same rows; the pool's own CPU cost is the
    // batch CPU time minus the row time.
    ir::BatchOptions opts;
    opts.memoize = false;
    double rows_s = 0.0, batch_cpu = 0.0;
    std::uint64_t batch_rows = 0;
    repeat_for(share, 1, [&] {
      for (const Table& t : tables_) {
        std::vector<ir::Outcome> outs(kRows);
        for (std::size_t k = 0; k < trees_.size(); ++k) {
          const std::string name = std::string("ir.execute_rows.") + fmt_name(t.bits) +
                                   (k < kSingleOpTrees ? ".single" : ".multi");
          const double t0 = wall_s();
          {
            Tracer::Scope s(&tr, name.c_str(), kRows);
            ir::execute_rows(t.tapes[k], t.bindings.values, 3, outs);
          }
          rows_s += wall_s() - t0;
          check_stride(t, k, outs);
        }
        const std::string name = std::string("ir.execute_batch.") + fmt_name(t.bits);
        const double c0 = cpu_s();
        for (std::size_t k = 0; k < trees_.size(); ++k) {
          Tracer::Scope s(&tr, name.c_str(), kRows);
          outs = ir::execute_batch(*pool_, t.tapes[k], t.bindings, opts);
        }
        batch_cpu += cpu_s() - c0;
        batch_rows += kRows * trees_.size();
      }
    });
    for (const int bits : kFormats) {
      for (const char* kind : {"single", "multi"}) {
        const std::string name = std::string("ir.execute_rows.") + fmt_name(bits) + "." + kind;
        out.per_unit(tr, name, name + ".ns_per_row", 1e9, "ns");
      }
    }
    for (const int bits : kFormats) {
      const std::string name = std::string("ir.execute_batch.") + fmt_name(bits);
      out.per_unit(tr, name, name + ".ns_per_row", 1e9, "ns");
    }
    out.add("parallel.batch.self_cpu_ns_per_row",
            (batch_cpu - rows_s) * 1e9 / static_cast<double>(batch_rows), "ns");

    kernels(tr, share, out);

    repeat_for(share, 1, [&] {
      for (const Table& t : tables_) {
        for (std::size_t k = 0; k < trees_.size(); ++k) {
          std::vector<ir::Outcome> outs(kRows);
          ir::execute_rows(t.tapes[k], t.bindings.values, 3, outs);
          Tracer::Scope s(&tr, "ir.tree_walk.layer", kRows / kCheckStride);
          check_stride(t, k, outs);
        }
      }
    });
    out.per_unit(tr, "ir.tree_walk.layer", "ir.tree_walk.ns_per_row", 1e9, "ns");
  }

  void mix(Metrics& out) const override {
    out.add("tape.mix.trees", static_cast<double>(trees_.size()), "count");
    out.add("tape.mix.rows_b16", static_cast<double>(kRows), "count");
    out.add("tape.mix.rows_b32", static_cast<double>(kRows), "count");
    out.add("tape.mix.checked_rows_per_pass",
            static_cast<double>(tables_.size() * trees_.size() * (kRows / kCheckStride)), "count");
  }

 private:
  std::uint64_t rows_per_pass() const { return tables_.size() * trees_.size() * kRows; }

  std::vector<ir::Tape> compile_all(int bits) const {
    ir::EvalConfig cfg;
    cfg.format_bits = bits;
    std::vector<ir::Tape> tapes;
    for (const ir::Expr& e : trees_) tapes.push_back(ir::Tape::compile(e, cfg));
    return tapes;
  }

  /// Rows check_offset_ + i * kCheckStride against the tree walk.
  void check_stride(const Table& t, std::size_t tree, const std::vector<ir::Outcome>& outs) {
    ir::EvalConfig cfg;
    cfg.format_bits = t.bits;
    std::uint64_t n = 0, bad = 0;
    for (std::size_t r = check_offset_; r < kRows; r += kCheckStride) {
      const ir::Outcome want = ir::evaluate(trees_[tree], cfg, t.bindings.row(r));
      bad += (want.value.bits == outs[r].value.bits && want.flags == outs[r].flags) ? 0 : 1;
      ++n;
    }
    checks_->add(n, bad, std::string("tape rows vs tree walk: ") + fmt_name(t.bits) + " " +
                             trees_[tree].to_string());
  }

  /// Every batch kernel the trees use, per format, under the default
  /// variant and every available variant; each variant's lanes are
  /// checked bit- and flag-exact against the scalar (integer softfloat)
  /// variant. sqrt32 is measured by the sweep32 layers instead.
  void kernels(Tracer& tr, double seconds, Metrics& out) {
    const char* ops[] = {"add", "mul", "div", "sqrt", "fma"};
    repeat_for(seconds, 1, [&] {
      for (const Table& t : tables_) {
        if (t.bits == 16) run_kernels<16>(tr, t, ops);
        else run_kernels<32>(tr, t, ops);
      }
    });
    for (const int bits : kFormats) {
      for (const char* op : ops) {
        const std::string base = std::string("softfloat.") + op + std::to_string(bits);
        if (base == "softfloat.sqrt32") continue;
        out.per_unit(tr, base, base + ".ns_per_value", 1e9, "ns");
        for (const sf::KernelVariant v : kKernelVariants) {
          const std::string name = base + "." + sf::kernel_variant_name(v);
          if (sf::kernel_variant_available(v)) {
            out.per_unit(tr, name, name + ".ns_per_value", 1e9, "ns");
          } else {
            out.skipped.push_back(name + ".ns_per_value: kernel variant unavailable on this host");
          }
        }
      }
    }
  }

  template <int kBits>
  void run_kernels(Tracer& tr, const Table& t, const char* const (&ops)[5]) {
    using F = sf::Float<kBits>;
    using Storage = typename F::Storage;
    std::array<std::vector<F>, 3> in;
    for (std::size_t c = 0; c < 3; ++c) {
      in[c].resize(kRows);
      for (std::size_t r = 0; r < kRows; ++r) in[c][r] = F{static_cast<Storage>(t.enc[c][r])};
    }
    std::vector<F> got(kRows), want(kRows);
    std::vector<unsigned> got_flags(kRows), want_flags(kRows);
    const auto run = [&](std::size_t op, std::vector<F>& o, std::vector<unsigned>& fl) {
      std::fill(fl.begin(), fl.end(), 0u);
      sf::Env env;
      const F* a = in[0].data();
      const F* b = in[1].data();
      const F* c = in[2].data();
      switch (op) {
        case 0: sf::add_n<kBits>(a, b, o.data(), fl.data(), kRows, env); break;
        case 1: sf::mul_n<kBits>(a, b, o.data(), fl.data(), kRows, env); break;
        case 2: sf::div_n<kBits>(a, b, o.data(), fl.data(), kRows, env); break;
        case 3: sf::sqrt_n<kBits>(a, o.data(), fl.data(), kRows, env); break;
        default: sf::fma_n<kBits>(a, b, c, o.data(), fl.data(), kRows, env); break;
      }
    };
    for (std::size_t op = 0; op < 5; ++op) {
      const std::string base = std::string("softfloat.") + ops[op] + std::to_string(kBits);
      if (base == "softfloat.sqrt32") continue;
      {
        sf::ScopedKernelVariant scalar(sf::KernelVariant::kScalar);
        run(op, want, want_flags);
      }
      {
        Tracer::Scope s(&tr, base.c_str(), kRows);
        run(op, got, got_flags);
      }
      checks_->add(kRows, lane_mismatches(got, got_flags, want, want_flags),
                   base + " vs scalar softfloat");
      for (const sf::KernelVariant v : kKernelVariants) {
        if (!sf::kernel_variant_available(v)) continue;
        const std::string name = base + "." + sf::kernel_variant_name(v);
        sf::ScopedKernelVariant scoped(v);
        {
          Tracer::Scope s(&tr, name.c_str(), kRows);
          run(op, got, got_flags);
        }
        checks_->add(kRows, lane_mismatches(got, got_flags, want, want_flags),
                     name + " vs scalar softfloat");
      }
    }
  }

  Checks* checks_ = nullptr;
  fpq::parallel::ThreadPool* pool_ = nullptr;
  std::vector<ir::Expr> trees_;
  std::vector<Table> tables_;
  std::size_t check_offset_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_tape() { return std::make_unique<TapeWorkload>(); }

}  // namespace perfbench
