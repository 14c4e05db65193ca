// Workload `gauntlet`: inject::run_gauntlet on the pool — every workload
// probe under every fault class, on the softfloat and the host-FPU
// substrate, scored by fpmon, shadow, interval and fpmon-flow. It is the
// only workload that runs inject, workloads, fpmon flow, analyze and
// interval, and it runs many short exact-trace tapes where the sweeps
// run long batches.
//
// Every pass checks what the gauntlet itself guarantees for any seed: no
// softfloat/native campaign-fingerprint disagreement, every clean probe
// contract holds on both substrates, no flow anomaly on a control trial,
// and the full trial count; plus the campaign fingerprint.
#include <string>

#include "analyze/shadow.hpp"
#include "bench.hpp"
#include "fpmon/flow.hpp"
#include "inject/context.hpp"
#include "inject/gauntlet.hpp"
#include "interval/interval.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {
namespace {

namespace inj = fpq::inject;
namespace wl = fpq::workloads;

constexpr std::size_t kTrials = 12;

class Gauntlet final : public Workload {
 public:
  void setup(const RunContext& ctx) override {
    checks_ = ctx.checks;
    pool_ = ctx.pool;
    config_ = {};
    config_.seed = fold(0x1DFA, ctx.seed);
    config_.trials = kTrials;
  }

  PassResult pass(Tracer* tracer) override {
    Tracer::Scope span(tracer, "gauntlet.pass", expected_trials());
    {
      Tracer::Scope s(tracer, "inject.run_gauntlet", expected_trials());
      last_ = inj::run_gauntlet(*pool_, config_);
    }
    checks_->add(last_.total_trials / 2, last_.parity_mismatches.size(),
                 "gauntlet: softfloat/native campaign fingerprint parity");
    std::uint64_t broken = 0;
    for (const inj::ContractRow& c : last_.contracts) broken += c.holds ? 0 : 1;
    checks_->add(last_.contracts.size(), broken, "gauntlet: clean probe contracts");
    for (const inj::FlowScore& f : last_.flow_scores) {
      checks_->add(f.control_trials, f.control_anomalies > 0 ? 1 : 0,
                   "gauntlet: flow anomalies on control trials");
    }
    checks_->expect(last_.total_trials == expected_trials(), "gauntlet: trial count");
    return {last_.total_trials,
            fold(fold(last_.fingerprint, last_.total_sites), last_.total_effective)};
  }

  void layers(Tracer& tr, double seconds, Metrics& out) override {
    const auto cat = wl::catalogue();
    const double share = seconds / 5.0;
    repeat_for(share, 1, [&] {
      for (const wl::Workload& w : cat) {
        {
          wl::NativeContext native;
          Tracer::Scope s(&tr, "workloads.probe.native", 1);
          w.probe(native);
        }
        inj::SoftContext soft;
        Tracer::Scope s(&tr, "workloads.probe.soft", 1);
        w.probe(soft);
      }
    });
    repeat_for(share, 1, [&] {
      for (std::size_t i = 0; i < cat.size(); ++i) {
        inj::CampaignConfig cc;
        cc.seed = fold(config_.seed, i);
        cc.fault_class = static_cast<inj::FaultClass>(i % inj::kFaultClassCount);
        {
          inj::Injector injector(cc);
          inj::SoftInjectingContext ctx(injector);
          Tracer::Scope s(&tr, "inject.trial.softfloat", 1);
          cat[i].probe(ctx);
        }
        inj::Injector injector(cc);
        inj::NativeInjectingContext ctx(injector);
        Tracer::Scope s(&tr, "inject.trial.native", 1);
        cat[i].probe(ctx);
      }
    });
    // The detectors re-run each recorded call of a clean native probe.
    std::vector<inj::CallRecord> calls;
    for (const wl::Workload& w : cat) {
      wl::NativeContext native;
      inj::RecordingContext rec(native);
      w.probe(rec);
      calls.insert(calls.end(), rec.records().begin(), rec.records().end());
    }
    fpq::shadow::Config scfg;
    scfg.precision = config_.shadow_precision;
    repeat_for(share, 1, [&] {
      Tracer::Scope s(&tr, "analyze.shadow", calls.size());
      for (const inj::CallRecord& c : calls) fpq::shadow::analyze(c.expr, scfg, c.bindings);
    });
    repeat_for(share, 1, [&] {
      Tracer::Scope s(&tr, "interval.certify", calls.size());
      for (const inj::CallRecord& c : calls) {
        fpq::interval::certify(c.expr, config_.interval_wide, c.bindings);
      }
    });
    repeat_for(share, 1, [&] {
      for (const wl::Workload& w : cat) {
        wl::FlowContext ctx;
        fpq::mon::FlowReport report;
        Tracer::Scope s(&tr, "fpmon.flow", 1);
        fpq::mon::monitor_flow([&] { w.probe(ctx); }, report);
      }
    });

    out.per_unit(tr, "workloads.probe.native", "workloads.probe.native.us", 1e6, "us");
    out.per_unit(tr, "workloads.probe.soft", "workloads.probe.soft.us", 1e6, "us");
    out.per_unit(tr, "inject.trial.softfloat", "inject.trial.softfloat.us", 1e6, "us");
    out.per_unit(tr, "inject.trial.native", "inject.trial.native.us", 1e6, "us");
    out.per_unit(tr, "analyze.shadow", "analyze.shadow.us_per_call", 1e6, "us");
    out.per_unit(tr, "interval.certify", "interval.certify.us_per_call", 1e6, "us");
    out.per_unit(tr, "fpmon.flow", "fpmon.flow.us_per_probe", 1e6, "us");
    out.add("inject.effective_frac",
            static_cast<double>(last_.total_effective) /
                static_cast<double>(last_.total_sites == 0 ? 1 : last_.total_sites),
            "ratio");
  }

  void mix(Metrics& out) const override {
    out.add("gauntlet.mix.trials", static_cast<double>(last_.total_trials), "count");
    out.add("gauntlet.mix.armed_sites", static_cast<double>(last_.total_sites), "count");
    out.add("gauntlet.mix.effective_sites", static_cast<double>(last_.total_effective), "count");
  }

 private:
  std::size_t expected_trials() const {
    return wl::catalogue().size() * inj::kFaultClassCount * config_.trials * inj::kSubstrateCount;
  }

  Checks* checks_ = nullptr;
  fpq::parallel::ThreadPool* pool_ = nullptr;
  inj::GauntletConfig config_;
  inj::GauntletResult last_;
};

}  // namespace

std::unique_ptr<Workload> make_gauntlet() { return std::make_unique<Gauntlet>(); }

}  // namespace perfbench
