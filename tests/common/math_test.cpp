#include "common/math.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "common/require.hpp"
#include "common/rng.hpp"

namespace focv {
namespace {

TEST(BrentRoot, FindsSimpleRoot) {
  const double r = brent_root([](double x) { return x * x - 4.0; }, 0.0, 10.0);
  EXPECT_NEAR(r, 2.0, 1e-10);
}

TEST(BrentRoot, FindsTranscendentalRoot) {
  const double r = brent_root([](double x) { return std::cos(x) - x; }, 0.0, 1.0);
  EXPECT_NEAR(r, 0.7390851332151607, 1e-10);
}

TEST(BrentRoot, AcceptsRootAtEndpoint) {
  const double r = brent_root([](double x) { return x; }, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(r, 0.0);
}

TEST(BrentRoot, ThrowsWhenNotBracketed) {
  EXPECT_THROW((void)brent_root([](double x) { return x * x + 1.0; }, -1.0, 1.0), PreconditionError);
}

TEST(BrentRoot, ThrowsOnBadInterval) {
  EXPECT_THROW((void)brent_root([](double x) { return x; }, 1.0, 0.0), PreconditionError);
}

TEST(BrentRoot, HandlesSteepExponential) {
  // Shape of a PV cell Voc solve: flat then exploding exponential.
  const double r = brent_root([](double v) { return 1e-4 - 1e-12 * std::exp(v / 0.29); }, 0.0,
                              10.0);
  EXPECT_NEAR(r, 0.29 * std::log(1e8), 1e-7);
}

// Property: Brent finds the root of randomised cubic polynomials with a
// known root inside the bracket.
class BrentPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(BrentPropertyTest, RandomCubicsWithKnownRoot) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 13);
  const double root = rng.uniform(-5.0, 5.0);
  const double a = rng.uniform(0.2, 3.0);
  const double b = rng.uniform(-1.0, 1.0);
  // f(x) = a*(x-root)^3 + b*(x-root): odd around root, monotone-ish when
  // b >= 0; choose b >= 0 to ensure a single real root.
  const double b_pos = std::abs(b);
  auto f = [&](double x) {
    const double d = x - root;
    return a * d * d * d + b_pos * d;
  };
  const double r = brent_root(f, root - 7.0, root + 9.0);
  EXPECT_NEAR(r, root, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BrentPropertyTest, ::testing::Range(0, 20));

TEST(NewtonRoot, QuadraticConvergence) {
  const double r = newton_root([](double x) { return x * x - 9.0; },
                               [](double x) { return 2.0 * x; }, 1.0, 0.0, 10.0);
  EXPECT_NEAR(r, 3.0, 1e-10);
}

TEST(NewtonRoot, FallsBackToBisectionOnZeroDerivative) {
  // df = 0 at x0: safeguard must still find the root.
  const double r = newton_root([](double x) { return x * x * x - 8.0; },
                               [](double x) { return 3.0 * x * x; }, 0.0, -1.0, 5.0);
  EXPECT_NEAR(r, 2.0, 1e-8);
}

TEST(NewtonRoot, RequiresBracket) {
  EXPECT_THROW((void)newton_root([](double x) { return x * x + 1.0; },
                                 [](double x) { return 2.0 * x; }, 0.0, -1.0, 1.0),
               PreconditionError);
}

TEST(GoldenSection, FindsParabolaMaximum) {
  const double x = golden_section_maximize([](double v) { return -(v - 1.7) * (v - 1.7); }, -10.0,
                                           10.0);
  EXPECT_NEAR(x, 1.7, 1e-6);
}

TEST(GoldenSection, FindsPvStyleMppShape) {
  // P(v) = v * (1 - exp((v-5)/0.3)): rises then collapses, like a PV curve.
  auto p = [](double v) { return v * (1.0 - std::exp((v - 5.0) / 0.3)); };
  const double x = golden_section_maximize(p, 0.0, 5.0);
  EXPECT_GT(p(x), p(x + 0.01));
  EXPECT_GT(p(x), p(x - 0.01));
}

TEST(LinearInterpolator, InterpolatesAndClamps) {
  LinearInterpolator interp({0.0, 1.0, 3.0}, {0.0, 10.0, 30.0});
  EXPECT_DOUBLE_EQ(interp(0.5), 5.0);
  EXPECT_DOUBLE_EQ(interp(2.0), 20.0);
  EXPECT_DOUBLE_EQ(interp(-1.0), 0.0);   // clamped low
  EXPECT_DOUBLE_EQ(interp(10.0), 30.0);  // clamped high
  EXPECT_DOUBLE_EQ(interp.min_x(), 0.0);
  EXPECT_DOUBLE_EQ(interp.max_x(), 3.0);
}

TEST(LinearInterpolator, RejectsUnsortedOrMismatched) {
  EXPECT_THROW(LinearInterpolator({1.0, 0.0}, {0.0, 1.0}), PreconditionError);
  EXPECT_THROW(LinearInterpolator({0.0, 0.0}, {0.0, 1.0}), PreconditionError);
  EXPECT_THROW(LinearInterpolator({0.0}, {0.0, 1.0}), PreconditionError);
  EXPECT_THROW(LinearInterpolator({}, {}), PreconditionError);
}

TEST(TrapezoidIntegral, IntegratesLinearExactly) {
  const std::vector<double> t = {0.0, 1.0, 2.0, 4.0};
  const std::vector<double> v = {0.0, 2.0, 4.0, 8.0};  // v = 2t
  EXPECT_DOUBLE_EQ(trapezoid_integral(t, v), 16.0);    // integral of 2t over [0,4]
}

TEST(TrapezoidIntegral, EmptyAndSingleSampleAreZero) {
  EXPECT_DOUBLE_EQ(trapezoid_integral({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(trapezoid_integral({1.0}, {5.0}), 0.0);
}

TEST(ClampSorted, WorksWithEitherOrder) {
  EXPECT_DOUBLE_EQ(clamp_sorted(5.0, 0.0, 3.0), 3.0);
  EXPECT_DOUBLE_EQ(clamp_sorted(5.0, 3.0, 0.0), 3.0);
  EXPECT_DOUBLE_EQ(clamp_sorted(1.5, 0.0, 3.0), 1.5);
}

}  // namespace
}  // namespace focv
