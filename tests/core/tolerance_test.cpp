// Monte-Carlo component-tolerance analysis.
#include <gtest/gtest.h>

#include "common/require.hpp"
#include "core/tolerance.hpp"

namespace focv::core {
namespace {

TEST(ToleranceMc, DeterministicForSeed) {
  const auto a = run_tolerance_monte_carlo(SystemSpec{}, ToleranceSpec{}, 50, 7);
  const auto b = run_tolerance_monte_carlo(SystemSpec{}, ToleranceSpec{}, 50, 7);
  ASSERT_EQ(a.samples().size(), b.samples().size());
  for (std::size_t i = 0; i < a.samples().size(); i += 13) {
    EXPECT_DOUBLE_EQ(a.samples()[i].effective_k, b.samples()[i].effective_k);
  }
}

TEST(ToleranceMc, MeanNearNominal) {
  const auto report = run_tolerance_monte_carlo(SystemSpec{}, ToleranceSpec{}, 400);
  EXPECT_NEAR(report.k_stats().mean, 0.596, 0.01);
  EXPECT_NEAR(report.on_period_stats().mean, 39e-3, 3e-3);
  EXPECT_NEAR(report.off_period_stats().mean, 69.0, 4.0);
  EXPECT_NEAR(report.current_stats().mean, 7.6e-6, 0.8e-6);
}

TEST(ToleranceMc, TrimRemovesDividerSpread) {
  ToleranceSpec untrimmed;
  ToleranceSpec trimmed = untrimmed;
  trimmed.trimmed = true;
  const auto a = run_tolerance_monte_carlo(SystemSpec{}, untrimmed, 400);
  const auto b = run_tolerance_monte_carlo(SystemSpec{}, trimmed, 400);
  EXPECT_LT(b.k_stats().stddev, 0.5 * a.k_stats().stddev);
  // Trimmed yield in a tight k window is near-total.
  EXPECT_GT(b.k_yield(0.59, 0.602), 0.95);
}

TEST(ToleranceMc, YieldMonotoneInWindow) {
  const auto report = run_tolerance_monte_carlo(SystemSpec{}, ToleranceSpec{}, 300);
  const double narrow = report.k_yield(0.594, 0.598);
  const double wide = report.k_yield(0.57, 0.62);
  EXPECT_LE(narrow, wide);
  EXPECT_GT(wide, 0.9);
}

TEST(ToleranceMc, CapacitorToleranceDrivesTimingSpread) {
  ToleranceSpec tight;
  tight.capacitor_tolerance = 0.001;
  ToleranceSpec loose;
  loose.capacitor_tolerance = 0.10;
  const auto a = run_tolerance_monte_carlo(SystemSpec{}, tight, 300);
  const auto b = run_tolerance_monte_carlo(SystemSpec{}, loose, 300);
  EXPECT_LT(a.off_period_stats().stddev, b.off_period_stats().stddev);
}

TEST(ToleranceMc, RejectsBadInputs) {
  EXPECT_THROW(run_tolerance_monte_carlo(SystemSpec{}, ToleranceSpec{}, 0), focv::PreconditionError);
  const auto report = run_tolerance_monte_carlo(SystemSpec{}, ToleranceSpec{}, 10);
  EXPECT_THROW((void)report.k_yield(0.7, 0.6), focv::PreconditionError);
}

}  // namespace
}  // namespace focv::core
