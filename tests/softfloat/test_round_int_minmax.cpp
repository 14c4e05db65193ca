// roundToIntegralExact and minNum/maxNum, including differential tests
// against the host (nearbyint under fesetround; fmin/fmax for the
// number-beats-NaN behavior).

#include <gtest/gtest.h>

#include <cfenv>
#include <cmath>

#include "hw_ref.hpp"
#include "softfloat/ops.hpp"
#include "stats/prng.hpp"

namespace sf = fpq::softfloat;
namespace st = fpq::stats;

namespace {

using F64 = sf::Float64;

F64 d(double x) { return sf::from_native(x); }

TEST(RoundToIntegral, BasicNearestEven) {
  sf::Env env;
  EXPECT_EQ(sf::to_native(sf::round_to_integral(d(2.5), env)), 2.0)
      << "ties to even";
  EXPECT_EQ(sf::to_native(sf::round_to_integral(d(3.5), env)), 4.0);
  EXPECT_EQ(sf::to_native(sf::round_to_integral(d(-2.5), env)), -2.0);
  EXPECT_EQ(sf::to_native(sf::round_to_integral(d(2.25), env)), 2.0);
  EXPECT_TRUE(env.test(sf::kFlagInexact));
}

TEST(RoundToIntegral, ExactIntegersRaiseNothing) {
  sf::Env env;
  EXPECT_EQ(sf::round_to_integral(d(42.0), env).bits, d(42.0).bits);
  EXPECT_EQ(sf::round_to_integral(d(-7.0), env).bits, d(-7.0).bits);
  EXPECT_EQ(sf::round_to_integral(d(1e300), env).bits, d(1e300).bits)
      << "huge values are already integral";
  EXPECT_EQ(env.flags(), 0u);
}

TEST(RoundToIntegral, DirectedModes) {
  sf::Env up(sf::Rounding::kUp);
  EXPECT_EQ(sf::to_native(sf::round_to_integral(d(2.1), up)), 3.0);
  EXPECT_EQ(sf::to_native(sf::round_to_integral(d(-2.1), up)), -2.0);
  sf::Env down(sf::Rounding::kDown);
  EXPECT_EQ(sf::to_native(sf::round_to_integral(d(2.9), down)), 2.0);
  EXPECT_EQ(sf::to_native(sf::round_to_integral(d(-2.1), down)), -3.0);
  sf::Env zero(sf::Rounding::kTowardZero);
  EXPECT_EQ(sf::to_native(sf::round_to_integral(d(2.9), zero)), 2.0);
  EXPECT_EQ(sf::to_native(sf::round_to_integral(d(-2.9), zero)), -2.0);
}

TEST(RoundToIntegral, SignOfZeroResultPreserved) {
  sf::Env env;
  const F64 r = sf::round_to_integral(d(-0.25), env);
  EXPECT_TRUE(r.is_zero());
  EXPECT_TRUE(r.sign()) << "-0.25 rounds to -0, not +0";
  EXPECT_EQ(sf::round_to_integral(d(-0.0), env).bits, d(-0.0).bits);
}

TEST(RoundToIntegral, SpecialsPassThrough) {
  sf::Env env;
  EXPECT_TRUE(sf::round_to_integral(F64::infinity(), env).is_infinity());
  EXPECT_TRUE(sf::round_to_integral(F64::quiet_nan(), env).is_nan());
  EXPECT_EQ(env.flags(), 0u);
  EXPECT_TRUE(
      sf::round_to_integral(F64::signaling_nan(), env).is_quiet_nan());
  EXPECT_TRUE(env.test(sf::kFlagInvalid));
}

TEST(RoundToIntegral, DifferentialVsNearbyint) {
  st::Xoshiro256pp g(0x21E4);
  const fpq::parallel::sweep_detail::ScopedFenvRounding guard(FE_TONEAREST);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t frac = g() & 0x000FFFFFFFFFFFFFULL;
    const std::uint64_t exp = 1023 - 5 + st::uniform_below(g, 60);
    const std::uint64_t sign = g() & 0x8000000000000000ULL;
    const double x = std::bit_cast<double>(sign | (exp << 52) | frac);
    sf::Env env;
    const double soft = sf::to_native(sf::round_to_integral(d(x), env));
    const double hw = std::nearbyint(x);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(soft),
              std::bit_cast<std::uint64_t>(hw))
        << x;
  }
}

TEST(MinMaxNum, NumbersOrderNormally) {
  sf::Env env;
  EXPECT_EQ(sf::to_native(sf::min_num(d(1.0), d(2.0), env)), 1.0);
  EXPECT_EQ(sf::to_native(sf::max_num(d(1.0), d(2.0), env)), 2.0);
  EXPECT_EQ(sf::to_native(sf::min_num(d(-1.0), d(1.0), env)), -1.0);
  EXPECT_EQ(sf::to_native(sf::min_num(F64::infinity(true), d(0.0), env)),
            -std::numeric_limits<double>::infinity());
}

TEST(MinMaxNum, NumberBeatsQuietNaN) {
  // The 754-2008 surprise: minNum(NaN, 3) is 3, not NaN.
  sf::Env env;
  EXPECT_EQ(sf::to_native(sf::min_num(F64::quiet_nan(), d(3.0), env)), 3.0);
  EXPECT_EQ(sf::to_native(sf::max_num(d(3.0), F64::quiet_nan(), env)), 3.0);
  EXPECT_EQ(env.flags(), 0u) << "quiet NaN raises nothing here";
  // Matches the C library's fmin/fmax semantics.
  EXPECT_EQ(std::fmin(std::nan(""), 3.0), 3.0);
}

TEST(MinMaxNum, BothNaNStaysNaN) {
  sf::Env env;
  EXPECT_TRUE(
      sf::min_num(F64::quiet_nan(), F64::quiet_nan(), env).is_nan());
  EXPECT_EQ(env.flags(), 0u);
}

TEST(MinMaxNum, SignalingNaNIsInvalid) {
  sf::Env env;
  EXPECT_TRUE(sf::min_num(F64::signaling_nan(), d(1.0), env).is_nan());
  EXPECT_TRUE(env.test(sf::kFlagInvalid));
}

TEST(MinMaxNum, ZerosOrderedBySign) {
  sf::Env env;
  EXPECT_TRUE(sf::min_num(d(0.0), d(-0.0), env).sign())
      << "minNum(+0, -0) = -0";
  EXPECT_FALSE(sf::max_num(d(0.0), d(-0.0), env).sign())
      << "maxNum(+0, -0) = +0";
}

TEST(MinMaxNum, Binary16Works) {
  sf::Env env;
  const auto one = sf::Float16::one();
  const auto two = sf::add(one, one, env);
  EXPECT_EQ(sf::min_num(one, two, env).bits, one.bits);
  EXPECT_EQ(sf::max_num(sf::Float16::quiet_nan(), two, env).bits, two.bits);
}

TEST(MinMaxNum, DifferentialVsFminFmax) {
  st::Xoshiro256pp g(0x3141);
  for (int i = 0; i < 20000; ++i) {
    const double x = std::bit_cast<double>(g());
    const double y = std::bit_cast<double>(g());
    if (std::isnan(x) || std::isnan(y)) continue;  // NaN paths pinned above
    if ((x == 0.0 && y == 0.0)) continue;  // fmin's zero choice is libc's
    sf::Env env;
    EXPECT_EQ(sf::to_native(sf::min_num(d(x), d(y), env)), std::fmin(x, y));
    EXPECT_EQ(sf::to_native(sf::max_num(d(x), d(y), env)), std::fmax(x, y));
  }
}

}  // namespace
