// The arbitrary-precision engine: exact round trips, correct rounding,
// and differential agreement with binary64 at precision 53.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "bigfloat/bigfloat.hpp"
#include "stats/prng.hpp"

namespace bf = fpq::bigfloat;
namespace st = fpq::stats;

namespace {

const bf::Context kHigh{256, fpq::softfloat::Rounding::kNearestEven};
const bf::Context k53{53, fpq::softfloat::Rounding::kNearestEven};

double gen_double(st::Xoshiro256pp& g) {
  const std::uint64_t frac = g() & 0x000FFFFFFFFFFFFFULL;
  const std::uint64_t exp = 1023 - 40 + st::uniform_below(g, 80);
  const std::uint64_t sign = g() & 0x8000000000000000ULL;
  return std::bit_cast<double>(sign | (exp << 52) | frac);
}

TEST(BigFloat, DoubleRoundTripIsExact) {
  st::Xoshiro256pp g(0xB16);
  for (int i = 0; i < 20000; ++i) {
    const double x = gen_double(g);
    EXPECT_EQ(bf::BigFloat::from_double(x).to_double(), x);
  }
  EXPECT_EQ(bf::BigFloat::from_double(0.0).to_double(), 0.0);
  EXPECT_TRUE(std::signbit(bf::BigFloat::from_double(-0.0).to_double()));
  EXPECT_TRUE(std::isinf(
      bf::BigFloat::from_double(std::numeric_limits<double>::infinity())
          .to_double()));
  EXPECT_TRUE(std::isnan(
      bf::BigFloat::from_double(std::numeric_limits<double>::quiet_NaN())
          .to_double()));
  // Subnormals round-trip too.
  const double denorm = 4.9406564584124654e-324;
  EXPECT_EQ(bf::BigFloat::from_double(denorm).to_double(), denorm);
  EXPECT_EQ(bf::BigFloat::from_double(denorm * 3).to_double(), denorm * 3);
}

TEST(BigFloat, IntConstruction) {
  EXPECT_EQ(bf::BigFloat::from_int(0).to_double(), 0.0);
  EXPECT_EQ(bf::BigFloat::from_int(42).to_double(), 42.0);
  EXPECT_EQ(bf::BigFloat::from_int(-7).to_double(), -7.0);
  EXPECT_EQ(bf::BigFloat::from_int(std::numeric_limits<std::int64_t>::min())
                .to_double(),
            -9223372036854775808.0);
}

TEST(BigFloat, ExactSmallArithmetic) {
  const auto a = bf::BigFloat::from_double(1.5);
  const auto b = bf::BigFloat::from_double(2.25);
  EXPECT_EQ(bf::BigFloat::add(a, b, kHigh).to_double(), 3.75);
  EXPECT_EQ(bf::BigFloat::sub(a, b, kHigh).to_double(), -0.75);
  EXPECT_EQ(bf::BigFloat::mul(a, b, kHigh).to_double(), 3.375);
  EXPECT_EQ(bf::BigFloat::div(b, a, kHigh).to_double(), 1.5);
  EXPECT_EQ(
      bf::BigFloat::sqrt(bf::BigFloat::from_double(2.25), kHigh).to_double(),
      1.5);
}

TEST(BigFloat, HighPrecisionSeesWhatDoubleLoses) {
  // (1e16 + 1) - 1e16: double loses the 1; 256-bit shadow keeps it.
  const auto big = bf::BigFloat::from_double(1e16);
  const auto one = bf::BigFloat::from_double(1.0);
  const auto sum = bf::BigFloat::add(big, one, kHigh);
  const auto back = bf::BigFloat::sub(sum, big, kHigh);
  EXPECT_EQ(back.to_double(), 1.0);
  // And 0.1 + 0.2 - 0.3 is NOT zero even in high precision (the doubles
  // 0.1, 0.2, 0.3 are already wrong) — the shadow is honest about inputs.
  const auto r = bf::BigFloat::sub(
      bf::BigFloat::add(bf::BigFloat::from_double(0.1),
                        bf::BigFloat::from_double(0.2), kHigh),
      bf::BigFloat::from_double(0.3), kHigh);
  EXPECT_NE(r.to_double(), 0.0);
}

TEST(BigFloat, Precision53MatchesHardwareAddMul) {
  // At precision 53 with round-to-nearest-even, BigFloat arithmetic on
  // double inputs must agree with the hardware bit for bit (as long as no
  // double-subnormal rounding is involved — kept away from by operand
  // choice).
  st::Xoshiro256pp g(0xB53);
  for (int i = 0; i < 20000; ++i) {
    const double x = gen_double(g);
    const double y = gen_double(g);
    const auto bx = bf::BigFloat::from_double(x);
    const auto by = bf::BigFloat::from_double(y);
    EXPECT_EQ(bf::BigFloat::add(bx, by, k53).to_double(), x + y)
        << x << " + " << y;
    EXPECT_EQ(bf::BigFloat::mul(bx, by, k53).to_double(), x * y)
        << x << " * " << y;
    EXPECT_EQ(bf::BigFloat::div(bx, by, k53).to_double(), x / y)
        << x << " / " << y;
  }
}

TEST(BigFloat, Precision53MatchesHardwareSqrt) {
  st::Xoshiro256pp g(0xB54);
  for (int i = 0; i < 10000; ++i) {
    const double x = std::fabs(gen_double(g));
    const auto r =
        bf::BigFloat::sqrt(bf::BigFloat::from_double(x), k53).to_double();
    EXPECT_EQ(r, std::sqrt(x)) << x;
  }
}

TEST(BigFloat, Precision53MatchesHardwareFma) {
  st::Xoshiro256pp g(0xB55);
  for (int i = 0; i < 10000; ++i) {
    const double x = gen_double(g);
    const double y = gen_double(g);
    const double z = gen_double(g);
    const auto r = bf::BigFloat::fma(bf::BigFloat::from_double(x),
                                     bf::BigFloat::from_double(y),
                                     bf::BigFloat::from_double(z), k53)
                       .to_double();
    EXPECT_EQ(r, std::fma(x, y, z)) << x << " " << y << " " << z;
  }
}

TEST(BigFloat, SpecialValueSemantics) {
  const auto inf = bf::BigFloat::infinity(false);
  const auto ninf = bf::BigFloat::infinity(true);
  const auto one = bf::BigFloat::from_double(1.0);
  const auto zero = bf::BigFloat::zero(false);
  EXPECT_TRUE(bf::BigFloat::add(inf, ninf, kHigh).is_nan());
  EXPECT_TRUE(bf::BigFloat::mul(zero, inf, kHigh).is_nan());
  EXPECT_TRUE(bf::BigFloat::div(zero, zero, kHigh).is_nan());
  EXPECT_TRUE(bf::BigFloat::div(one, zero, kHigh).is_infinity());
  EXPECT_TRUE(bf::BigFloat::div(one, inf, kHigh).is_zero());
  EXPECT_TRUE(
      bf::BigFloat::sqrt(one.negated(), kHigh).is_nan());
  EXPECT_TRUE(bf::BigFloat::add(inf, one, kHigh).is_infinity());
}

TEST(BigFloat, CompareOrdering) {
  const auto a = bf::BigFloat::from_double(1.0);
  const auto b = bf::BigFloat::from_double(2.0);
  const auto na = bf::BigFloat::from_double(-1.0);
  EXPECT_EQ(bf::BigFloat::compare(a, b), -1);
  EXPECT_EQ(bf::BigFloat::compare(b, a), 1);
  EXPECT_EQ(bf::BigFloat::compare(a, a), 0);
  EXPECT_EQ(bf::BigFloat::compare(na, a), -1);
  EXPECT_EQ(bf::BigFloat::compare(bf::BigFloat::zero(true),
                                  bf::BigFloat::zero(false)),
            0)
      << "-0 == +0";
  EXPECT_EQ(bf::BigFloat::compare(a, bf::BigFloat::nan()), 2);
}

TEST(BigFloat, DirectedRoundingAtPrecision) {
  // 1/3 at 8 bits of precision: RD/RZ truncate, RU goes one step up.
  bf::Context rd{8, fpq::softfloat::Rounding::kDown};
  bf::Context ru{8, fpq::softfloat::Rounding::kUp};
  const auto one = bf::BigFloat::from_double(1.0);
  const auto three = bf::BigFloat::from_double(3.0);
  const double lo = bf::BigFloat::div(one, three, rd).to_double();
  const double hi = bf::BigFloat::div(one, three, ru).to_double();
  EXPECT_LT(lo, 1.0 / 3.0);
  EXPECT_GT(hi, 1.0 / 3.0);
  EXPECT_NEAR(hi - lo, std::ldexp(1.0, -9), std::ldexp(1.0, -10))
      << "one ulp at 8-bit precision near 1/3";
}

TEST(BigFloat, VeryHighPrecisionDivisionIsConsistent) {
  // 1/7 at 1024 bits, multiplied back by 7, must round to exactly 1.
  bf::Context wide{1024, fpq::softfloat::Rounding::kNearestEven};
  const auto one = bf::BigFloat::from_int(1);
  const auto seven = bf::BigFloat::from_int(7);
  const auto seventh = bf::BigFloat::div(one, seven, wide);
  const auto back = bf::BigFloat::mul(seventh, seven, k53);
  EXPECT_EQ(back.to_double(), 1.0);
  EXPECT_GE(seventh.significant_bits(), 1000u);
}

TEST(BigFloat, RelativeError) {
  const auto exact = bf::BigFloat::from_double(1.0);
  EXPECT_EQ(bf::relative_error(1.0, exact, kHigh), 0.0);
  EXPECT_NEAR(bf::relative_error(1.0 + 1e-9, exact, kHigh), 1e-9, 1e-15);
  EXPECT_TRUE(std::isinf(
      bf::relative_error(1.0, bf::BigFloat::zero(false), kHigh)));
  EXPECT_EQ(bf::relative_error(0.0, bf::BigFloat::zero(false), kHigh), 0.0);
  EXPECT_TRUE(std::isnan(
      bf::relative_error(std::nan(""), exact, kHigh)));
}

TEST(BigFloat, ToStringRenders) {
  EXPECT_EQ(bf::BigFloat::zero(true).to_string(), "-0");
  EXPECT_EQ(bf::BigFloat::infinity(false).to_string(), "+inf");
  EXPECT_EQ(bf::BigFloat::nan().to_string(), "nan");
  EXPECT_NE(bf::BigFloat::from_double(1.5).to_string().find("1.5"),
            std::string::npos);
}

TEST(BigFloat, HighPrecisionRecoversAssociativity) {
  // The core quiz's Associativity/Ordering/Distributivity failures are
  // binary64 artifacts: at 256 bits, sums and products of double inputs
  // are exact, so the real-arithmetic laws hold again. This is exactly
  // the sanity-check workflow §V proposes.
  st::Xoshiro256pp g(0xA16E);
  for (int i = 0; i < 3000; ++i) {
    const double a = gen_double(g);
    const double b = gen_double(g);
    const double c = gen_double(g);
    const auto ba = bf::BigFloat::from_double(a);
    const auto bb = bf::BigFloat::from_double(b);
    const auto bc = bf::BigFloat::from_double(c);
    const auto left =
        bf::BigFloat::add(bf::BigFloat::add(ba, bb, kHigh), bc, kHigh);
    const auto right =
        bf::BigFloat::add(ba, bf::BigFloat::add(bb, bc, kHigh), kHigh);
    EXPECT_EQ(bf::BigFloat::compare(left, right), 0)
        << a << " " << b << " " << c;
    // Ordering: ((a + b) - a) == b, exactly.
    const auto recovered = bf::BigFloat::sub(
        bf::BigFloat::add(ba, bb, kHigh), ba, kHigh);
    EXPECT_EQ(bf::BigFloat::compare(recovered, bb), 0) << a << " " << b;
  }
}

TEST(BigFloat, HighPrecisionRecoversDistributivity) {
  // a*(b+c) == a*b + a*c needs ~107 exact product bits plus alignment:
  // 512 is plenty for double inputs of moderate exponent.
  const bf::Context wide{512, fpq::softfloat::Rounding::kNearestEven};
  st::Xoshiro256pp g(0xD157);
  for (int i = 0; i < 2000; ++i) {
    const double a = gen_double(g);
    const double b = gen_double(g);
    const double c = gen_double(g);
    const auto ba = bf::BigFloat::from_double(a);
    const auto bb = bf::BigFloat::from_double(b);
    const auto bc = bf::BigFloat::from_double(c);
    const auto left =
        bf::BigFloat::mul(ba, bf::BigFloat::add(bb, bc, wide), wide);
    const auto right =
        bf::BigFloat::add(bf::BigFloat::mul(ba, bb, wide),
                          bf::BigFloat::mul(ba, bc, wide), wide);
    EXPECT_EQ(bf::BigFloat::compare(left, right), 0)
        << a << " " << b << " " << c;
  }
}

TEST(BigFloat, OverflowToDoubleInfinity) {
  // 2^2000 is finite in BigFloat but overflows binary64.
  bf::Context wide{64, fpq::softfloat::Rounding::kNearestEven};
  auto x = bf::BigFloat::from_double(2.0);
  for (int i = 0; i < 11; ++i) x = bf::BigFloat::mul(x, x, wide);  // 2^2048
  EXPECT_TRUE(x.is_finite());
  EXPECT_TRUE(std::isinf(x.to_double()));
}

TEST(BigFloat, UnderflowToDoubleSubnormalAndZero) {
  bf::Context wide{64, fpq::softfloat::Rounding::kNearestEven};
  const auto half = bf::BigFloat::from_double(0.5);
  auto x = bf::BigFloat::from_double(1.0);
  for (int i = 0; i < 1074; ++i) x = bf::BigFloat::mul(x, half, wide);
  EXPECT_EQ(x.to_double(), 4.9406564584124654e-324) << "min subnormal";
  x = bf::BigFloat::mul(x, half, wide);  // 2^-1075: tie -> even -> 0
  EXPECT_EQ(x.to_double(), 0.0);
  EXPECT_TRUE(x.is_finite());
  // Slightly above the midpoint rounds up to the min subnormal.
  const auto above = bf::BigFloat::mul(
      x, bf::BigFloat::from_double(1.5), wide);  // 1.5 * 2^-1075
  EXPECT_EQ(above.to_double(), 4.9406564584124654e-324);
}

TEST(BigFloat, RoundToFormatAtTheBinary16Edges) {
  using R = fpq::softfloat::Rounding;
  const auto b16 = [](double v, R mode) {
    return bf::round_to_format<16>(bf::BigFloat::from_double(v), mode).bits;
  };
  // 65520 is the exact tie between max finite (65504) and overflow.
  EXPECT_EQ(b16(65520.0, R::kNearestEven), 0x7C00u);
  EXPECT_EQ(b16(65520.0, R::kTowardZero), 0x7BFFu);
  EXPECT_EQ(b16(-65520.0, R::kUp), 0xFBFFu);
  // 2^-25 is half the minimum subnormal: ties-to-even gives zero,
  // ties-away the minimum subnormal; just above it rounds up in both.
  EXPECT_EQ(b16(0x1p-25, R::kNearestEven), 0x0000u);
  EXPECT_EQ(b16(0x1p-25, R::kNearestAway), 0x0001u);
  EXPECT_EQ(b16(0x1.8p-25, R::kNearestEven), 0x0001u);
  EXPECT_EQ(b16(-0x1p-30, R::kDown), 0x8001u);
  // Subnormal staircase and normal range, one rounding each.
  EXPECT_EQ(b16(0x1.8p-24, R::kNearestEven), 0x0002u);  // tie to even
  EXPECT_EQ(b16(1.0 / 3.0, R::kNearestEven), 0x3555u);
  EXPECT_EQ(b16(1.0 / 3.0, R::kUp), 0x3556u);
}

}  // namespace
