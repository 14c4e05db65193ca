// The headline invariant of the quiz harness: the answer key is DERIVED BY
// EXECUTION, and every IEEE-compliant backend — native double, native
// float, softfloat at 64/32/16 bits — derives exactly the same key, which
// matches the declared standard truths. Parameterized over the registry's
// IEEE rows.

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/ground_truth.hpp"

namespace quiz = fpq::quiz;

// gtest lists a parameter through PrintTo; printing the registry name (not
// the row's bytes, which include a pointer) keeps test names stable.
namespace fpq::quiz {
void PrintTo(const BackendDescriptor& d, std::ostream* os) { *os << d.name; }
}  // namespace fpq::quiz

namespace {

std::vector<quiz::BackendDescriptor> ieee_rows() {
  std::vector<quiz::BackendDescriptor> out;
  for (const auto& d : quiz::backend_registry()) {
    if (!d.flush_to_zero && !d.denormals_are_zero) out.push_back(d);
  }
  return out;
}

class AnswerKeyOnBackend
    : public ::testing::TestWithParam<quiz::BackendDescriptor> {};

TEST_P(AnswerKeyOnBackend, ExecutedKeyMatchesStandardTruths) {
  auto backend = quiz::make_backend(GetParam());
  const quiz::AnswerKey key = quiz::derive_answer_key(*backend);
  std::string mismatch;
  EXPECT_TRUE(quiz::key_matches_standard(key, &mismatch))
      << "backend " << backend->name() << " diverges on: " << mismatch;
}

TEST_P(AnswerKeyOnBackend, EveryDemonstrationHasAWitness) {
  auto backend = quiz::make_backend(GetParam());
  const quiz::AnswerKey key = quiz::derive_answer_key(*backend);
  for (const auto& demo : key.core) {
    EXPECT_FALSE(demo.witness.empty());
    EXPECT_EQ(demo.witness.find("unexpected"), std::string::npos)
        << demo.witness;
  }
}

INSTANTIATE_TEST_SUITE_P(AllIeeeBackends, AnswerKeyOnBackend,
                         ::testing::ValuesIn(ieee_rows()));

TEST(AnswerKeyFtz, FtzBackendStillDerivesStandardKey) {
  // The FTZ/DAZ backend demonstrates different *witnesses* (flush instead
  // of gradual underflow) but the same T/F key — the divergence story
  // lives in the witnesses and the optprobe demos.
  auto backend = quiz::make_soft_backend_64_ftz();
  EXPECT_FALSE(backend->ieee_compliant());
  const quiz::AnswerKey key = quiz::derive_answer_key(*backend);
  std::string mismatch;
  EXPECT_TRUE(quiz::key_matches_standard(key, &mismatch)) << mismatch;
  // ... and its denormal witness must mention the flush.
  const auto& denorm_demo =
      key.core[static_cast<std::size_t>(
          quiz::CoreQuestionId::kDenormalPrecision)];
  EXPECT_NE(denorm_demo.witness.find("flush"), std::string::npos)
      << denorm_demo.witness;
}

TEST(Backend, UnsupportedDescriptorIsRejected) {
  EXPECT_THROW(quiz::make_backend({"softfloat-binary8", 8, false, false,
                                   false}),
               std::invalid_argument);
  EXPECT_THROW(quiz::make_backend({"native-binary16", 16, true, false,
                                   false}),
               std::invalid_argument);
}

TEST(AnswerKey, StandardTruthArraysConsistent) {
  const auto core = quiz::standard_core_truths();
  EXPECT_EQ(core.size(), quiz::kCoreQuestionCount);
  const auto opt = quiz::standard_opt_truths();
  EXPECT_EQ(opt[0], quiz::Truth::kFalse);  // MADD
  EXPECT_EQ(opt[1], quiz::Truth::kFalse);  // Flush to Zero
  EXPECT_EQ(opt[2], quiz::Truth::kTrue);   // Fast-math
}

TEST(AnswerKey, RenderIncludesEvidence) {
  auto backend = quiz::make_soft_backend_64();
  const quiz::AnswerKey key = quiz::derive_answer_key(*backend);
  const std::string out = quiz::render_answer_key(key);
  EXPECT_NE(out.find("Associativity"), std::string::npos);
  EXPECT_NE(out.find("counterexample"), std::string::npos);
  EXPECT_NE(out.find("evidence"), std::string::npos);
  EXPECT_NE(out.find("MADD"), std::string::npos);
}

TEST(AnswerKey, KeyMismatchDetected) {
  auto backend = quiz::make_soft_backend_64();
  quiz::AnswerKey key = quiz::derive_answer_key(*backend);
  key.core[0].truth = quiz::Truth::kFalse;  // corrupt Commutativity
  std::string mismatch;
  EXPECT_FALSE(quiz::key_matches_standard(key, &mismatch));
  EXPECT_EQ(mismatch, "Commutativity");
}

}  // namespace
