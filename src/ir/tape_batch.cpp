#include "ir/tape_batch.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "fpmon/flow.hpp"
#include "parallel/result_cache.hpp"
#include "parallel/shard.hpp"
#include "softfloat/batch.hpp"
#include "softfloat/fast.hpp"
#include "softfloat/kernels.hpp"

namespace fpq::ir {

namespace sf = fpq::softfloat;

namespace {

/// The SoA interpreter for one chunk: registers live as
/// regs[reg * lanes + lane] in-format values, flags[lane] accumulates the
/// per-row sticky union. In-format intermediates are bit- and
/// flag-identical to SoftEvaluator's widen/renarrow-per-op discipline
/// (widening is exact; re-narrowing an in-format value is exact and
/// quiet; DAZ/FTZ act inside the ops either way).
template <int kBits>
void run_soft_lanes(const Tape& t, const double* values, std::size_t width,
                    std::size_t begin, std::size_t end, Outcome* out) {
  using F = sf::Float<kBits>;
  using Storage = typename F::Storage;
  const std::size_t lanes = end - begin;
  const EvalConfig& cfg = t.config();
  sf::Env env(cfg.rounding);
  env.set_flush_to_zero(cfg.flush_to_zero);
  env.set_denormals_are_zero(cfg.denormals_are_zero);
  sf::Env quiet(cfg.rounding);
  quiet.set_denormals_are_zero(cfg.denormals_are_zero);

  std::vector<F> regs(t.register_count() * lanes);
  std::vector<unsigned> flags(lanes, 0);
  const std::span<const std::uint64_t> pool = t.constant_bits();

  for (const TapeInst& in : t.code()) {
    F* d = regs.data() + std::size_t{in.dst} * lanes;
    const F* a = regs.data() + std::size_t{in.a} * lanes;
    const F* b = regs.data() + std::size_t{in.b} * lanes;
    const F* c = regs.data() + std::size_t{in.c} * lanes;
    switch (in.op) {
      case TapeOp::kConst: {
        const F v = F::from_bits(static_cast<Storage>(pool[in.a]));
        for (std::size_t l = 0; l < lanes; ++l) d[l] = v;
        break;
      }
      case TapeOp::kVar:
        // Column in.a of the row-major block, one stride per row.
        // The entry points validated width > in.a, so no quiet-NaN lane.
        sf::narrow_from_double_n<kBits>(values + begin * width + in.a, width,
                                        d, lanes, quiet);
        break;
      case TapeOp::kNeg:
        sf::neg_n<kBits>(a, d, lanes);
        break;
      case TapeOp::kAdd:
        sf::add_n<kBits>(a, b, d, flags.data(), lanes, env);
        break;
      case TapeOp::kSub:
        sf::sub_n<kBits>(a, b, d, flags.data(), lanes, env);
        break;
      case TapeOp::kMul:
        sf::mul_n<kBits>(a, b, d, flags.data(), lanes, env);
        break;
      case TapeOp::kDiv:
        sf::div_n<kBits>(a, b, d, flags.data(), lanes, env);
        break;
      case TapeOp::kSqrt:
        sf::sqrt_n<kBits>(a, d, flags.data(), lanes, env);
        break;
      case TapeOp::kFma:
        sf::fma_n<kBits>(a, b, c, d, flags.data(), lanes, env);
        break;
      case TapeOp::kCmpEq:
        sf::equal_n<kBits>(a, b, d, flags.data(), lanes, env);
        break;
      case TapeOp::kCmpLt:
        sf::less_n<kBits>(a, b, d, flags.data(), lanes, env);
        break;
    }
  }

  const F* result = regs.data() + std::size_t{t.result_register()} * lanes;
  sf::Env widen_env;  // widening is exact
  for (std::size_t l = 0; l < lanes; ++l) {
    if constexpr (kBits == 64) {
      out[l].value = result[l];
    } else {
      out[l].value = sf::convert<64>(result[l], widen_env);
    }
    out[l].flags = flags[l];
  }
}

/// fast.hpp lane storage for the tape: in-format values held as native
/// doubles, results folded through the scalar engine's round/pack core.
template <int kBits>
struct Widened {
  using Value = double;
  sf::Rounding mode;
  bool daz;
  static double load(double v) noexcept { return v; }
  static sf::Float<kBits> encoding(double v) noexcept {
    return sf::fast::to_f<kBits>(v);
  }
  static double store(sf::Float<kBits> r) noexcept {
    return sf::fast::widen(r);
  }
  static double zero(bool negative) noexcept { return negative ? -0.0 : 0.0; }
  double fold(double v, sf::Env& env, unsigned& fl) const noexcept {
    env.clear_flags();
    const double r = sf::fast::round<kBits>(v, env);
    fl |= env.flags();
    return r;
  }
};

// The binary16/binary32 hot path: lanes hold in-format VALUES as native
// doubles, ops run on the host FPU and fold back in-format through the
// scalar engine's own round/pack core — see softfloat/fast.hpp for why
// every step is bit- and flag-identical to the softfloat operations. Lanes
// with special operands (NaN, infinity, division by zero, sqrt of a
// negative) drop to the scalar softfloat op, which keeps NaN payload
// propagation and invalid/divide-by-zero flags canonical without slowing
// the overwhelmingly common finite lanes.
//
// Per-instruction passes stream every register array once, so lanes run
// in blocks that keep the whole register file in L1 instead of
// round-tripping a chunk-sized array through L2/L3 per opcode.
// Independent lanes: blocking cannot change results. Native arithmetic
// needs round-to-nearest and must not leak host exception flags to the
// caller, so the fenv is pinned for the whole range and restored on exit,
// also when a block throws.
template <int kBits>
void run_fast_lanes(const Tape& t, const double* values, std::size_t width,
                    std::size_t begin, std::size_t end, Outcome* out) {
  namespace fast = sf::fast;
  using F = sf::Float<kBits>;
  using Storage = typename F::Storage;
  constexpr std::size_t kBlock = 1024;
  const fast::FenvPin pin;
  const EvalConfig& cfg = t.config();
  const sf::Rounding mode = cfg.rounding;
  const Widened<kBits> s{mode, cfg.denormals_are_zero};
  sf::Env env(mode);  // op env: FTZ/DAZ live, flags read per lane
  env.set_flush_to_zero(cfg.flush_to_zero);
  env.set_denormals_are_zero(s.daz);
  sf::Env quiet(mode);  // operand-narrowing env: flags discarded, no FTZ
  quiet.set_denormals_are_zero(s.daz);

  const std::size_t block = std::min(kBlock, end - begin);
  std::vector<double> regs(t.register_count() * block);
  std::vector<unsigned> flags(block);
  const std::span<const std::uint64_t> pool = t.constant_bits();

  for (std::size_t first = begin; first < end; first += block) {
    const std::size_t lanes = std::min(block, end - first);
    std::fill_n(flags.begin(), lanes, 0u);
    for (const TapeInst& in : t.code()) {
      double* d = regs.data() + std::size_t{in.dst} * lanes;
      const double* a = regs.data() + std::size_t{in.a} * lanes;
      const double* b = regs.data() + std::size_t{in.b} * lanes;
      const double* c = regs.data() + std::size_t{in.c} * lanes;
      // One fast.hpp lane body per lane; the body ORs the lane's flags.
      const auto each_lane = [&](auto body) {
        for (std::size_t l = 0; l < lanes; ++l) {
          unsigned f = 0;
          d[l] = body(l, f);
          flags[l] |= f;
        }
      };
      switch (in.op) {
        case TapeOp::kConst: {
          const double v =
              fast::widen(F::from_bits(static_cast<Storage>(pool[in.a])));
          std::fill_n(d, lanes, v);
          break;
        }
        case TapeOp::kVar:
          for (std::size_t l = 0; l < lanes; ++l) {
            const double x = values[(first + l) * width + in.a];
            const std::uint64_t xb = std::bit_cast<std::uint64_t>(x);
            const auto be = (xb >> 52) & 0x7FF;
            if (be != 0 && be != 0x7FF) {
              d[l] = fast::narrow_value<kBits>(x, mode);  // flags discarded
            } else if ((xb << 1) == 0) {
              d[l] = x;  // signed zero
            } else {  // double-subnormal (DAZ range), infinity, NaN
              d[l] = fast::widen(sf::convert<kBits>(sf::from_native(x), quiet));
            }
          }
          break;
        case TapeOp::kNeg:
          for (std::size_t l = 0; l < lanes; ++l) d[l] = fast::flip_sign(a[l]);
          break;
        case TapeOp::kAdd:
        case TapeOp::kSub: {
          const bool is_sub = in.op == TapeOp::kSub;
          each_lane([&](std::size_t l, unsigned& f) {
            return fast::add_lane<kBits>(s, a[l], b[l], is_sub, env, f);
          });
          break;
        }
        case TapeOp::kMul:
          each_lane([&](std::size_t l, unsigned& f) {
            return fast::mul_lane<kBits>(s, a[l], b[l], env, f);
          });
          break;
        case TapeOp::kDiv:
          each_lane([&](std::size_t l, unsigned& f) {
            return fast::div_lane<kBits>(s, a[l], b[l], env, f);
          });
          break;
        case TapeOp::kSqrt:
          each_lane([&](std::size_t l, unsigned& f) {
            return fast::sqrt_lane<kBits>(s, a[l], env, f);
          });
          break;
        case TapeOp::kFma:
          each_lane([&](std::size_t l, unsigned& f) {
            return fast::fma_lane<kBits>(s, a[l], b[l], c[l], env, f);
          });
          break;
        case TapeOp::kCmpEq:
        case TapeOp::kCmpLt: {
          const bool is_lt = in.op == TapeOp::kCmpLt;
          each_lane([&](std::size_t l, unsigned& f) {
            double av = a[l], bv = b[l];
            if (av != av || bv != bv) {  // unordered; sNaN cannot be in-lane
              if (is_lt) f = sf::kFlagInvalid;  // signaling predicate
              return 0.0;
            }
            if (s.daz) {  // comparisons raise no DE flag
              av = fast::daz<kBits>(av);
              bv = fast::daz<kBits>(bv);
            }
            return (is_lt ? av < bv : av == bv) ? 1.0 : 0.0;
          });
          break;
        }
      }
    }

    const double* result =
        regs.data() + std::size_t{t.result_register()} * lanes;
    Outcome* o = out + (first - begin);
    for (std::size_t l = 0; l < lanes; ++l) {
      o[l].value = sf::from_native(result[l]);
      o[l].flags = flags[l];
    }
  }
}

void check_width(const Tape& tape, const BindingTable& table) {
  if (table.width < tape.required_width()) {
    throw BindingWidthError(tape.required_width(), table.width);
  }
}

/// Dispatch one row block [begin, end) of a row-major value array to the
/// per-format interpreter. Callers have validated width. One rule for
/// binary16 and binary32: kScalar runs the SoA interpreter (whose batch
/// entry points then run the scalar reference loops), so forcing kScalar
/// forces the whole stack scalar; every other variant runs the fast path.
void dispatch_soft(const Tape& tape, const double* values, std::size_t width,
                   std::size_t begin, std::size_t end, Outcome* out) {
  const bool fast =
      sf::active_kernel_variant() != sf::KernelVariant::kScalar;
  switch (tape.config().format_bits) {
    case 16:
      if (fast) {
        run_fast_lanes<16>(tape, values, width, begin, end, out);
      } else {
        run_soft_lanes<16>(tape, values, width, begin, end, out);
      }
      break;
    case 32:
      if (fast) {
        run_fast_lanes<32>(tape, values, width, begin, end, out);
      } else {
        run_soft_lanes<32>(tape, values, width, begin, end, out);
      }
      break;
    case sf::kBFloat16:
      run_soft_lanes<sf::kBFloat16>(tape, values, width, begin, end, out);
      break;
    default:
      run_soft_lanes<64>(tape, values, width, begin, end, out);
      break;
  }
}

}  // namespace

void execute_range(const Tape& tape, const BindingTable& table,
                   std::size_t begin, std::size_t end,
                   std::span<Outcome> out) {
  check_width(tape, table);
  dispatch_soft(tape, table.values.data(), table.width, begin, end,
                out.data());
}

void execute_rows(const Tape& tape, std::span<const double> rows,
                  std::size_t width, std::span<Outcome> out) {
  if (width < tape.required_width()) {
    throw BindingWidthError(tape.required_width(), width);
  }
  if (width == 0 || rows.size() % width != 0) {
    throw std::invalid_argument("execute_rows: rows.size() not a multiple "
                                "of width");
  }
  const std::size_t n = rows.size() / width;
  if (out.size() != n) {
    throw std::invalid_argument("execute_rows: out.size() != row count");
  }
  dispatch_soft(tape, rows.data(), width, 0, n, out.data());
}

std::vector<Outcome> execute_batch(parallel::ThreadPool& pool,
                                   const Tape& tape,
                                   const BindingTable& table,
                                   const BatchOptions& options) {
  const std::size_t n = table.rows();
  std::vector<Outcome> out(n);
  if (n == 0) return out;
  // Satellite fix: ONE width check per batch (evaluate_tree used to
  // re-check the span per variable per row), and a structured error
  // instead of quiet-NaN-poisoning every row of a short table. The
  // per-node quiet-NaN contract survives in the scalar paths.
  check_width(tape, table);

  const std::uint64_t tape_fp = tape.fingerprint();
  const std::size_t chunks =
      parallel::recommended_chunks(pool, n, options.min_rows_per_chunk);
  auto& cache = parallel::BatchResultCache::global();

  parallel::parallel_map_chunks(
      pool, n, chunks,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        parallel::BatchKey key;
        if (options.memoize) {
          // Key on content only when the memo is in play: hashing every
          // binding is pure overhead for memoize=false sweeps.
          const std::span<const double> chunk_values =
              std::span<const double>(table.values)
                  .subspan(begin * table.width,
                           (end - begin) * table.width);
          key.tape_fingerprint = tape_fp;
          key.bindings_hash = hash_bindings(chunk_values, table.width);
          key.chunk = static_cast<std::uint32_t>(chunk);
          // Entries are keyed on the executing kernel variant: a cache
          // warmed under one variant is never read under another (see
          // BatchKey in parallel/result_cache.hpp).
          key.variant = static_cast<std::uint32_t>(
              sf::active_kernel_variant());
        }

        if (options.memoize) {
          if (const auto hit = cache.find(key);
              hit.has_value() && hit->outcomes.size() == end - begin) {
            for (std::size_t i = begin; i < end; ++i) {
              const auto& [value_bits, flags] = hit->outcomes[i - begin];
              out[i].value = softfloat::Float64{value_bits};
              out[i].flags = flags;
            }
            return;
          }
        }

        execute_range(tape, table, begin, end,
                      std::span<Outcome>(out).subspan(begin, end - begin));

        if (options.memoize) {
          // Memoize only after the whole chunk executed cleanly (the same
          // cache-consistency guard evaluate_many has always had).
          parallel::BatchChunkResult result;
          result.outcomes.reserve(end - begin);
          for (std::size_t i = begin; i < end; ++i) {
            result.outcomes.emplace_back(out[i].value.bits, out[i].flags);
          }
          cache.insert(key, result);
        }

        // Chunk boundaries are fpmon instrumentation seams: when a
        // collect_seams FlowMonitor is registered, harvest the worker's
        // fenv here; otherwise this is one relaxed atomic load.
        mon::FlowCollector::sample();
      });

  return out;
}

}  // namespace fpq::ir
