// perfbench driver: the pieces every workload shares — clocks, the span
// tracer, the check ledger, the metric list and the Workload interface.
//
// The driver measures the library from outside: every span wraps a call
// into one layer's public functions, so no library code changes to be
// traced. Spans live in memory and are written out once, at exit.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "softfloat/kernels.hpp"

namespace perfbench {

// -- Clocks -----------------------------------------------------------------

inline double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
/// Monotonic wall clock, seconds.
inline double wall_s() { return clock_s(CLOCK_MONOTONIC); }
/// CPU seconds consumed by every thread of the process.
inline double cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

inline double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

// -- Hashing ----------------------------------------------------------------

/// splitmix64 finalizer.
inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}
/// Order-dependent fold of `v` into running hash `h`.
inline std::uint64_t fold(std::uint64_t h, std::uint64_t v) noexcept {
  return mix64(h ^ mix64(v));
}

// -- Spans ------------------------------------------------------------------

/// In-memory span recorder. A span is (name, start, end, parent, count):
/// `count` is the work the call did (values, rows, records, calls), so a
/// per-unit cost is measured where the work happens.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    std::uint64_t count = 0;
  };

  /// RAII span around one call; nests under the innermost open span.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint64_t count = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  /// Sum over every span called `name`: wall seconds, self seconds (the
  /// part no child span covers) and work count.
  struct Totals {
    double seconds = 0.0;
    double self_seconds = 0.0;
    std::uint64_t count = 0;
    std::size_t spans = 0;
  };
  Totals totals(const std::string& name) const;

  /// Wall time per unit of work over every span called `name`, scaled
  /// (1e9 for ns, 1e6 for us).
  double per_unit(const std::string& name, double scale) const {
    const Totals t = totals(name);
    return t.seconds * scale / static_cast<double>(t.count == 0 ? 1 : t.count);
  }

  /// Writes every span plus per-name totals as JSON.
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  int open_ = -1;
};

// -- Checks -----------------------------------------------------------------

/// Every correctness check the run made, and those that failed.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Records `n` checks of which `bad` failed; prints the first failures.
  void add(std::uint64_t n, std::uint64_t bad, const std::string& what) {
    attempted += n;
    failed += bad;
    if (bad != 0 && reported_ < 16) {
      ++reported_;
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s (%llu of %llu)\n",
                   what.c_str(), static_cast<unsigned long long>(bad),
                   static_cast<unsigned long long>(n));
    }
  }
  void expect(bool ok, const std::string& what) { add(1, ok ? 0 : 1, what); }

 private:
  int reported_ = 0;
};

// -- Metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Metrics {
  std::vector<Metric> items;
  /// Layers that could not run on this host, with the reason; reported
  /// beside the metrics, never as a zero.
  std::vector<std::string> skipped;

  void add(std::string name, double value, std::string unit) {
    items.push_back({std::move(name), value, std::move(unit)});
  }
  /// Adds Tracer::per_unit(span, scale) as metric `name`.
  void per_unit(const Tracer& tr, const std::string& span, std::string name,
                double scale, std::string unit) {
    add(std::move(name), tr.per_unit(span, scale), std::move(unit));
  }
};

// -- Workloads --------------------------------------------------------------

/// What one pass did: the checked items it produced and the fingerprint
/// of its output.
struct PassResult {
  std::uint64_t items = 0;
  std::uint64_t fingerprint = 0;
};

/// Shared run state handed to every workload.
struct RunContext {
  std::uint64_t seed = 0;
  fpq::parallel::ThreadPool* pool = nullptr;
  Checks* checks = nullptr;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds everything a pass needs from ctx.seed, fresh. The pool in
  /// ctx is also fresh for every setup.
  virtual void setup(const RunContext& ctx) = 0;

  /// One pass over the workload's inputs with its correctness checks.
  /// With a tracer, every layer call in the pass is wrapped in a span.
  virtual PassResult pass(Tracer* tracer) = 0;

  /// Traced layer measurements, for about `seconds` of work: calls into
  /// each layer's public functions directly, one span per call.
  virtual void layers(Tracer& tracer, double seconds, Metrics& out) = 0;

  /// Input-mix counts that must repeat exactly for a given seed.
  virtual void mix(Metrics& out) const = 0;
};

std::unique_ptr<Workload> make_sweep32();
std::unique_ptr<Workload> make_tape();
std::unique_ptr<Workload> make_survey();
std::unique_ptr<Workload> make_gauntlet();

/// Every batch-kernel variant; the traced run times each one the host
/// supports and lists the rest as skipped.
inline constexpr fpq::softfloat::KernelVariant kKernelVariants[] = {
    fpq::softfloat::KernelVariant::kScalar, fpq::softfloat::KernelVariant::kPortable,
    fpq::softfloat::KernelVariant::kAvx2};

/// Lanes whose value bits or flags differ between two kernel runs.
template <typename F>
std::uint64_t lane_mismatches(const std::vector<F>& got, const std::vector<unsigned>& got_flags,
                              const std::vector<F>& want,
                              const std::vector<unsigned>& want_flags) {
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    bad += (got[i].bits == want[i].bits && got_flags[i] == want_flags[i]) ? 0 : 1;
  }
  return bad;
}

/// Runs `body` repeatedly until `seconds` have passed (at least `min`
/// times); returns the number of repetitions.
template <typename Body>
std::size_t repeat_for(double seconds, std::size_t min, Body&& body) {
  const double t0 = wall_s();
  std::size_t reps = 0;
  while (reps < min || wall_s() - t0 < seconds) {
    body();
    ++reps;
  }
  return reps;
}

}  // namespace perfbench
