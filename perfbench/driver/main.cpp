// perfbench_driver — runs one benchmark workload as a single-process
// closed loop and prints its metrics.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--expect NAME=HEX]... [--trace-out PATH]
//
// Untraced (--trace 0): sets the workload up from scratch (pool, inputs,
// compiled tapes, generator seeding) repeatedly for kSetupSeconds, at
// least kSetups times, and reports the median as setup_s; then runs one
// untimed warm-up pass, then timed passes back to back — each starts
// when the previous one ends — for S seconds, and reports the median
// items/s, the median process CPU seconds per pass and the peak RSS.
//
// Traced (--trace 1): for every workload, runs untraced and traced passes
// (tracing overhead = their ratio), then calls each layer's public
// functions directly under spans and reports the per-layer metrics. The
// spans are written to --trace-out at exit.
//
// Every pass checks its outputs against an independent oracle and its
// fingerprint against the first pass (drift) and against --expect for
// the workload, if given. The last stdout line is one JSON object; the
// exit code is 0 only when every check passed.
#include <cerrno>
#include <cinttypes>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <optional>
#include <string>

#include "bench.hpp"
#include "softfloat/kernels.hpp"

namespace perfbench {
namespace {

constexpr const char* kWorkloads[] = {"sweep32", "tape", "survey",
                                      "gauntlet"};
constexpr std::size_t kSetups = 5;
constexpr double kSetupSeconds = 1.0;
constexpr std::size_t kMinPasses = 5;

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "sweep32") return make_sweep32();
  if (name == "tape") return make_tape();
  if (name == "survey") return make_survey();
  if (name == "gauntlet") return make_gauntlet();
  return nullptr;
}

/// Item noun of each workload's throughput, for the human-readable table.
const char* item_noun(const std::string& name) {
  if (name == "survey") return "records";
  if (name == "gauntlet") return "trials";
  return "values";
}

/// Peak resident set of this process image, from VmHWM. (getrusage's
/// ru_maxrss would also count the parent's memory at fork, which Linux
/// carries across exec.)
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  return kib / 1024.0;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Pool lanes: at most 4, at most the host's cores.
  std::size_t threads =
      std::min<std::size_t>(4, fpq::parallel::ThreadPool::default_thread_count());
  std::map<std::string, std::uint64_t> expect;
  std::string trace_out;
};

bool parse_u64(const char* s, int base, std::uint64_t& out) {
  if (s == nullptr || *s == '\0' || *s == '-') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, base);
  if (errno != 0 || *end != '\0') return false;
  out = v;
  return true;
}

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* val = i + 1 < argc ? argv[i + 1] : nullptr;
    std::uint64_t n = 0;
    if (val == nullptr) return std::nullopt;
    ++i;
    if (arg == "--workload") {
      o.workload = val;
      have_workload = make_workload(o.workload) != nullptr;
    } else if (arg == "--seed") {
      if (!parse_u64(val, 10, o.seed)) return std::nullopt;
      have_seed = true;
    } else if (arg == "--seconds") {
      char* end = nullptr;
      o.seconds = std::strtod(val, &end);
      if (*end != '\0' || !(o.seconds > 0.0) || o.seconds > 600.0) {
        return std::nullopt;
      }
    } else if (arg == "--trace") {
      if (!parse_u64(val, 10, n) || n > 1) return std::nullopt;
      o.trace = n == 1;
    } else if (arg == "--expect") {
      const char* eq = std::strchr(val, '=');
      if (eq == nullptr || !parse_u64(eq + 1, 16, n)) return std::nullopt;
      o.expect[std::string(val, eq)] = n;
    } else if (arg == "--trace-out") {
      o.trace_out = val;
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload || !have_seed) return std::nullopt;
  return o;
}

/// One workload instance with its own pool, plus the fingerprint checks
/// applied to every pass it runs.
class Session {
 public:
  Session(const Options& opt, const std::string& name, Checks& checks)
      : opt_(opt), name_(name), checks_(checks) {}

  /// Fresh pool, fresh workload and its setup; no pass.
  void setup() {
    workload_.reset();
    pool_.reset();
    pool_ = std::make_unique<fpq::parallel::ThreadPool>(opt_.threads);
    workload_ = make_workload(name_);
    workload_->setup({opt_.seed, pool_.get(), &checks_});
  }

  /// One pass; returns its wall seconds and stores its process CPU
  /// seconds in *cpu and its item count in *items.
  double run(Tracer* tracer, double* cpu = nullptr, std::uint64_t* items = nullptr) {
    const double c0 = cpu_s();
    const double t0 = wall_s();
    const PassResult r = workload_->pass(tracer);
    const double dt = wall_s() - t0;
    if (cpu != nullptr) *cpu = cpu_s() - c0;
    if (items != nullptr) *items = r.items;
    check_fingerprint(r.fingerprint);
    return dt;
  }

  Workload& workload() { return *workload_; }
  std::uint64_t fingerprint() const { return first_fp_.value_or(0); }

 private:
  void check_fingerprint(std::uint64_t fp) {
    if (!first_fp_) first_fp_ = fp;
    checks_.expect(fp == *first_fp_, name_ + ": fingerprint drift between passes");
    const auto it = opt_.expect.find(name_);
    if (it != opt_.expect.end()) {
      checks_.expect(fp == it->second, name_ + ": fingerprint differs from the pinned value");
    }
  }

  const Options& opt_;
  std::string name_;
  Checks& checks_;
  std::unique_ptr<fpq::parallel::ThreadPool> pool_;
  std::unique_ptr<Workload> workload_;
  std::optional<std::uint64_t> first_fp_;
};

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

void print_result(const Checks& checks, const Metrics& metrics,
                  const std::map<std::string, std::uint64_t>& fps,
                  const Metrics& mix) {
  const auto metric_map = [](const std::vector<Metric>& ms) {
    std::string s = "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", ms[i].value);
      s += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + ms[i].unit + "\"}";
    }
    return s + "}";
  };
  std::string skipped = "[";
  for (std::size_t i = 0; i < metrics.skipped.size(); ++i) {
    skipped += (i ? ", \"" : "\"") + metrics.skipped[i] + "\"";
  }
  skipped += "]";
  std::string fp = "{";
  std::size_t k = 0;
  for (const auto& [name, v] : fps) {
    fp += (k++ ? ", \"" : "\"") + name + "\": \"" + hex(v) + "\"";
  }
  fp += "}";
  std::printf(
      "{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
      ", \"metrics\": %s, \"fingerprints\": %s, \"mix\": %s, \"skipped\": "
      "%s}\n",
      checks.failed == 0 ? "true" : "false", checks.attempted,
      checks.failed, metric_map(metrics.items).c_str(), fp.c_str(),
      metric_map(mix.items).c_str(), skipped.c_str());
}

int run_untraced(const Options& opt, double t_main) {
  Checks checks;
  Session session(opt, opt.workload, checks);
  // The first set-up is timed from process start.
  std::vector<double> setups;
  double t0 = t_main;
  repeat_for(kSetupSeconds, kSetups, [&] {
    session.setup();
    const double t1 = wall_s();
    setups.push_back(t1 - t0);
    t0 = t1;
  });
  session.run(nullptr);  // warm-up pass, untimed

  std::vector<double> rates, cpus, walls;
  repeat_for(opt.seconds, kMinPasses, [&] {
    double cpu = 0.0;
    std::uint64_t items = 0;
    const double dt = session.run(nullptr, &cpu, &items);
    walls.push_back(dt);
    rates.push_back(static_cast<double>(items) / dt);
    cpus.push_back(cpu);
  });

  Metrics m;
  m.add("items_per_s", median(rates), "1/s");
  m.add("pass_cpu_s", median(cpus), "s");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  m.add("setup_s", median(setups), "s");
  Metrics mix;
  session.workload().mix(mix);

  std::printf("workload %s  seed %" PRIu64 "  pool threads %zu  passes %zu  kernel %s\n",
              opt.workload.c_str(), opt.seed, opt.threads, rates.size(),
              fpq::softfloat::kernel_variant_name(fpq::softfloat::active_kernel_variant()));
  std::printf("  %-14s %16.6g %s/s (items_per_s)\n",
              (std::string(item_noun(opt.workload)) + "_per_s").c_str(),
              median(rates), item_noun(opt.workload));
  std::printf("  %-14s %16.6g s (median pass wall time)\n", "pass_s", median(walls));
  for (const Metric& x : m.items) {
    std::printf("  %-14s %16.6g %s\n", x.name.c_str(), x.value, x.unit.c_str());
  }
  std::printf("  %-14s %16.6g (failed %" PRIu64 " of %" PRIu64 " checks)\n",
              "failed_frac",
              checks.attempted == 0 ? 0.0
                                    : static_cast<double>(checks.failed) /
                                          static_cast<double>(checks.attempted),
              checks.failed, checks.attempted);
  print_result(checks, m, {{opt.workload, session.fingerprint()}}, mix);
  return checks.failed == 0 ? 0 : 1;
}

int run_traced(const Options& opt) {
  Checks checks;
  Tracer tracer;
  Metrics m;
  std::map<std::string, std::uint64_t> fps;
  const double budget = opt.seconds / static_cast<double>(std::size(kWorkloads));
  for (const char* name : kWorkloads) {
    Session session(opt, name, checks);
    session.setup();
    session.run(nullptr);  // warm-up pass
    std::vector<double> plain, traced;
    repeat_for(budget / 3.0, 2, [&] { plain.push_back(session.run(nullptr)); });
    repeat_for(budget / 3.0, 2, [&] { traced.push_back(session.run(&tracer)); });
    m.add(std::string(name) + ".trace_overhead_ratio",
          median(traced) / median(plain), "ratio");
    session.workload().layers(tracer, budget / 3.0, m);
    session.workload().mix(m);
    fps[name] = session.fingerprint();
  }
  if (!opt.trace_out.empty() && !tracer.write(opt.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", opt.trace_out.c_str());
    return 2;
  }
  for (const Metric& x : m.items) {
    std::printf("  %-48s %16.6g %s\n", x.name.c_str(), x.value, x.unit.c_str());
  }
  print_result(checks, m, fps, Metrics{});
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const double t_main = perfbench::wall_s();
  const auto opt = perfbench::parse(argc, argv);
  if (!opt) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload "
                 "sweep32|tape|survey|gauntlet --seed N --seconds S "
                 "--trace 0|1 [--expect NAME=HEX]... "
                 "[--trace-out PATH]\n");
    return 2;
  }
  try {
    return opt->trace ? perfbench::run_traced(*opt)
                      : perfbench::run_untraced(*opt, t_main);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
