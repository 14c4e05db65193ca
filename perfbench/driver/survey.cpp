// Workload `survey`: the seeded main cohort streamed through every figure
// accumulator with parallel::stream_accumulate on the pool. No FP kernel
// or tape runs, so this is the no-change control for softfloat/ir work.
//
// A pass folds kRecords respondents into one FigureTally (every
// accumulator the figure benches use) and hashes the finished tables. At
// setup the streamed tables are checked against an independent serial
// recount of the single- and multi-select tables; every pass checks the
// respondent totals and the tally hash.
#include <bit>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/ground_truth.hpp"
#include "paperdata/paperdata.hpp"
#include "parallel/shard.hpp"
#include "parallel/stream.hpp"
#include "respondent/population.hpp"
#include "survey/accumulators.hpp"

namespace perfbench {
namespace {

namespace sv = fpq::survey;
namespace pd = fpq::paperdata;
namespace par = fpq::parallel;

constexpr std::size_t kRecords = 1'000'000;
constexpr std::size_t kRecountRecords = 20'000;
constexpr std::size_t kFoldBlock = 20'000;

using Categories = std::span<const pd::CategoryCount>;

struct SingleField {
  Categories (*categories)() noexcept;
  sv::FieldSelector select;
};
struct ListField {
  Categories (*categories)() noexcept;
  sv::ListSelector select;
};

// Figures 1-3, 5 and 8-11.
const SingleField kSingle[] = {
    {pd::positions, [](const sv::SurveyRecord& r) { return r.background.position; }},
    {pd::areas, [](const sv::SurveyRecord& r) { return r.background.area; }},
    {pd::formal_training, [](const sv::SurveyRecord& r) { return r.background.formal_training; }},
    {pd::dev_roles, [](const sv::SurveyRecord& r) { return r.background.dev_role; }},
    {pd::contributed_codebase_sizes,
     [](const sv::SurveyRecord& r) { return r.background.contributed_size; }},
    {pd::contributed_fp_extent,
     [](const sv::SurveyRecord& r) { return r.background.contributed_extent; }},
    {pd::involved_codebase_sizes,
     [](const sv::SurveyRecord& r) { return r.background.involved_size; }},
    {pd::involved_fp_extent,
     [](const sv::SurveyRecord& r) { return r.background.involved_extent; }},
};
// Figures 4, 6 and 7.
const ListField kLists[] = {
    {pd::informal_training,
     [](const sv::SurveyRecord& r) -> const std::vector<std::size_t>& {
       return r.background.informal_training;
     }},
    {pd::fp_languages,
     [](const sv::SurveyRecord& r) -> const std::vector<std::size_t>& {
       return r.background.fp_languages;
     }},
    {pd::arb_prec_languages,
     [](const sv::SurveyRecord& r) -> const std::vector<std::size_t>& {
       return r.background.arb_prec_languages;
     }},
};

/// Every figure accumulator, fed and merged together.
struct FigureTally {
  std::vector<sv::FrequencyAccumulator> frequency;
  std::vector<sv::MultiSelectAccumulator> multi_select;
  std::vector<sv::AverageTallyAccumulator> average_tally;
  std::vector<sv::ScoreHistogramAccumulator> score_histogram;
  std::vector<sv::BreakdownAccumulator> breakdown;
  std::vector<sv::FactorLevelAccumulator> factor_level;
  std::vector<sv::SuspicionAccumulator> suspicion;
  std::size_t records = 0;

  static FigureTally make() {
    const auto core = fpq::quiz::standard_core_truths();
    const auto opt = fpq::quiz::standard_opt_truths();
    FigureTally t;
    for (const SingleField& f : kSingle) t.frequency.emplace_back(f.categories(), f.select);
    for (const ListField& f : kLists) t.multi_select.emplace_back(f.categories(), f.select);
    t.average_tally.push_back(sv::AverageTallyAccumulator::core(core));
    t.average_tally.push_back(sv::AverageTallyAccumulator::opt_tf(opt));
    t.score_histogram.emplace_back(core);
    t.breakdown.push_back(sv::BreakdownAccumulator::core(core));
    t.breakdown.push_back(sv::BreakdownAccumulator::opt(opt));
    t.factor_level.push_back(sv::FactorLevelAccumulator::by_contributed_size(core, opt));
    t.factor_level.push_back(sv::FactorLevelAccumulator::by_area_group(core, opt));
    t.factor_level.push_back(sv::FactorLevelAccumulator::by_role(core, opt));
    t.factor_level.push_back(sv::FactorLevelAccumulator::by_formal_training(core, opt));
    t.suspicion.emplace_back();
    return t;
  }

  /// Applies fn to each family's vector, with the family name.
  template <typename Fn>
  void each_family(Fn&& fn) {
    fn("frequency", frequency);
    fn("multi_select", multi_select);
    fn("average_tally", average_tally);
    fn("score_histogram", score_histogram);
    fn("breakdown", breakdown);
    fn("factor_level", factor_level);
    fn("suspicion", suspicion);
  }

  void add(const sv::SurveyRecord& r) {
    each_family([&r](const char*, auto& accs) {
      for (auto& a : accs) a.add(r);
    });
    ++records;
  }

  void merge(FigureTally&& o) {
    merge_each(frequency, o.frequency);
    merge_each(multi_select, o.multi_select);
    merge_each(average_tally, o.average_tally);
    merge_each(score_histogram, o.score_histogram);
    merge_each(breakdown, o.breakdown);
    merge_each(factor_level, o.factor_level);
    merge_each(suspicion, o.suspicion);
    records += o.records;
  }

  template <typename Acc>
  static void merge_each(std::vector<Acc>& into, std::vector<Acc>& from) {
    for (std::size_t i = 0; i < into.size(); ++i) into[i].merge(std::move(from[i]));
  }
};

std::uint64_t hash_double(std::uint64_t h, double v) { return fold(h, std::bit_cast<std::uint64_t>(v)); }

std::uint64_t hash_tally(std::uint64_t h, const sv::AverageTally& t) {
  for (const double v : {t.correct, t.incorrect, t.dont_know, t.unanswered}) h = hash_double(h, v);
  return h;
}

/// The streamed-tally hash: every finished figure table, by bits.
std::uint64_t tally_hash(const FigureTally& t) {
  std::uint64_t h = fold(0, t.records);
  for (const auto& a : t.frequency) {
    for (const sv::TableRow& r : a.finish()) h = hash_double(fold(h, r.n), r.percent);
  }
  for (const auto& a : t.multi_select) {
    for (const sv::TableRow& r : a.finish()) h = hash_double(fold(h, r.n), r.percent);
  }
  for (const auto& a : t.average_tally) h = hash_tally(h, a.finish());
  for (const auto& a : t.score_histogram) {
    const auto hist = a.finish();
    for (int v = hist.lo(); v <= hist.hi(); ++v) h = fold(h, hist.count(v));
    h = fold(fold(h, hist.underflow()), hist.overflow());
  }
  for (const auto& a : t.breakdown) {
    for (const sv::BreakdownRow& r : a.finish()) {
      for (const double v : {r.pct_correct, r.pct_incorrect, r.pct_dont_know, r.pct_unanswered}) {
        h = hash_double(h, v);
      }
    }
  }
  for (const auto& a : t.factor_level) {
    for (const sv::FactorLevelResult& r : a.finish()) {
      h = hash_tally(hash_tally(fold(h, r.n), r.core), r.opt);
    }
  }
  for (const auto& a : t.suspicion) {
    for (const auto& dist : a.finish()) {
      for (const double p : dist.proportions()) h = hash_double(h, p);
    }
  }
  return h;
}

class Survey final : public Workload {
 public:
  void setup(const RunContext& ctx) override {
    checks_ = ctx.checks;
    pool_ = ctx.pool;
    seed_ = ctx.seed;
    chunks_ = par::recommended_chunks(*pool_, kRecords, 64);
    recount_check();
  }

  PassResult pass(Tracer* tracer) override {
    Tracer::Scope span(tracer, "survey.pass", kRecords);
    FigureTally t;
    {
      Tracer::Scope s(tracer, "parallel.stream_accumulate", kRecords);
      t = stream(kRecords, chunks_);
    }
    checks_->expect(t.records == kRecords, "survey: streamed respondent count");
    std::uint64_t bad = 0;
    for (const auto& a : t.frequency) bad += a.respondents() == kRecords ? 0 : 1;
    for (const auto& a : t.multi_select) bad += a.respondents() == kRecords ? 0 : 1;
    bad += t.suspicion.front().respondents() == kRecords ? 0 : 1;
    checks_->add(t.frequency.size() + t.multi_select.size() + 1, bad,
                 "survey: per-table respondent totals");
    Tracer::Scope s(tracer, "survey.finish", 1);
    return {kRecords, tally_hash(t)};
  }

  void layers(Tracer& tr, double seconds, Metrics& out) override {
    const double share = seconds / 4.0;
    std::vector<sv::SurveyRecord> block;
    block.reserve(kFoldBlock);
    repeat_for(share, 1, [&] {
      block.clear();
      fpq::respondent::CohortGenerator gen(seed_);
      Tracer::Scope s(&tr, "respondent.generate", kFoldBlock);
      for (std::size_t i = 0; i < kFoldBlock; ++i) block.push_back(gen.next());
    });
    repeat_for(share / 2.0, 1, [&] {
      for (std::size_t c = 0; c < chunks_; ++c) {
        fpq::respondent::CohortGenerator gen(seed_);
        Tracer::Scope s(&tr, "respondent.seek", 1);
        gen.seek(par::chunk_range(kRecords, chunks_, c).begin);
      }
    });
    repeat_for(share, 1, [&] {
      FigureTally t = FigureTally::make();
      t.each_family([&](const char* family, auto& accs) {
        const std::string name = std::string("survey.fold.") + family;
        Tracer::Scope s(&tr, name.c_str(), kFoldBlock);
        for (const sv::SurveyRecord& r : block) {
          for (auto& a : accs) a.add(r);
        }
      });
    });
    repeat_for(share / 2.0, 1, [&] {
      // Partials as a pass leaves them (one per chunk), merged in the
      // stream driver's fixed tree order.
      std::vector<std::optional<FigureTally>> parts(chunks_);
      for (std::size_t c = 0; c < chunks_; ++c) {
        parts[c].emplace(FigureTally::make());
        for (std::size_t i = c; i < block.size(); i += chunks_) parts[c]->add(block[i]);
      }
      Tracer::Scope s(&tr, "survey.merge", 1);
      par::detail::merge_ordered(parts, 0, chunks_);
    });
    std::vector<double> stream_cpu;
    repeat_for(share, 1, [&] {
      const double c0 = cpu_s();
      stream(kRecords, chunks_);
      stream_cpu.push_back(cpu_s() - c0);
    });

    const auto ns = [&tr](const std::string& span) { return tr.per_unit(span, 1e9); };
    out.add("respondent.generate.ns_per_record", ns("respondent.generate"), "ns");
    out.add("respondent.seek.us_per_chunk", ns("respondent.seek") / 1e3, "us");
    double fold_ns = 0.0;
    for (const char* family : {"frequency", "multi_select", "average_tally", "score_histogram",
                               "breakdown", "factor_level", "suspicion"}) {
      const std::string name = std::string("survey.fold.") + family;
      out.add(name + ".ns_per_record", ns(name), "ns");
      fold_ns += ns(name);
    }
    out.add("survey.merge.us", ns("survey.merge") / 1e3, "us");
    // The stream driver's own CPU per record: a pooled pass's CPU time
    // less the serial generate and fold costs of the same records.
    out.add("parallel.stream.self_cpu_ns_per_record",
            median(stream_cpu) * 1e9 / static_cast<double>(kRecords) -
                ns("respondent.generate") - fold_ns,
            "ns");
  }

  void mix(Metrics& out) const override {
    out.add("survey.mix.records", static_cast<double>(kRecords), "count");
    out.add("survey.mix.chunks", static_cast<double>(chunks_), "count");
  }

 private:
  FigureTally stream(std::size_t n, std::size_t chunks) const {
    const std::uint64_t seed = seed_;
    return par::stream_accumulate(
        *pool_, n, chunks, [] { return FigureTally::make(); },
        [seed](FigureTally& acc, std::size_t begin, std::size_t end) {
          fpq::respondent::CohortGenerator gen(seed);
          gen.seek(begin);
          for (std::size_t i = begin; i < end; ++i) acc.add(gen.next());
        });
  }

  /// Streams a prefix of the cohort on the pool and recounts its single-
  /// and multi-select tables serially, straight from the records.
  void recount_check() {
    const FigureTally t =
        stream(kRecountRecords, par::recommended_chunks(*pool_, kRecountRecords, 64));
    std::vector<std::vector<std::size_t>> single, lists;
    for (const SingleField& f : kSingle) single.emplace_back(f.categories().size(), 0);
    for (const ListField& f : kLists) lists.emplace_back(f.categories().size(), 0);
    fpq::respondent::CohortGenerator gen(seed_);
    for (std::size_t i = 0; i < kRecountRecords; ++i) {
      const sv::SurveyRecord r = gen.next();
      for (std::size_t k = 0; k < std::size(kSingle); ++k) {
        const std::size_t v = kSingle[k].select(r);
        if (v < single[k].size()) ++single[k][v];
      }
      for (std::size_t k = 0; k < std::size(kLists); ++k) {
        for (const std::size_t v : kLists[k].select(r)) {
          if (v < lists[k].size()) ++lists[k][v];
        }
      }
    }
    std::uint64_t n = 0, bad = 0;
    const auto compare = [&](const std::vector<sv::TableRow>& rows,
                             const std::vector<std::size_t>& want) {
      for (std::size_t i = 0; i < want.size(); ++i) {
        ++n;
        bad += (i < rows.size() && rows[i].n == want[i]) ? 0 : 1;
      }
    };
    for (std::size_t k = 0; k < single.size(); ++k) compare(t.frequency[k].finish(), single[k]);
    for (std::size_t k = 0; k < lists.size(); ++k) compare(t.multi_select[k].finish(), lists[k]);
    checks_->add(n, bad, "survey: streamed tables vs serial recount");
  }

  Checks* checks_ = nullptr;
  par::ThreadPool* pool_ = nullptr;
  std::uint64_t seed_ = 0;
  std::size_t chunks_ = 1;
};

}  // namespace

std::unique_ptr<Workload> make_survey() { return std::make_unique<Survey>(); }

}  // namespace perfbench
