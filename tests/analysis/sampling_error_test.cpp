#include "analysis/sampling_error.hpp"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "pv/cell_library.hpp"

namespace focv::analysis {
namespace {

TEST(Eq2, ZeroForConstantTrace) {
  const std::vector<double> x(1000, 3.14);
  EXPECT_DOUBLE_EQ(worst_case_mean_error(x, 60), 0.0);
}

TEST(Eq2, SinglePeriodSampleIsZero) {
  std::vector<double> x;
  for (int i = 0; i < 100; ++i) x.push_back(i * 0.1);
  EXPECT_DOUBLE_EQ(worst_case_mean_error(x, 1), 0.0);
}

TEST(Eq2, LinearRampGivesSlopeTimesWindow) {
  // For x_n = s*n, the window range is s*(p-1) for every window.
  std::vector<double> x;
  for (int i = 0; i < 500; ++i) x.push_back(0.01 * i);
  EXPECT_NEAR(worst_case_mean_error(x, 10), 0.01 * 9, 1e-12);
}

TEST(Eq2, MonotoneInPeriod) {
  Rng rng(99);
  std::vector<double> x;
  double v = 0.0;
  for (int i = 0; i < 5000; ++i) {
    v += rng.gaussian(0.0, 0.01);
    x.push_back(v);
  }
  double prev = 0.0;
  for (const std::size_t p : {2u, 5u, 10u, 30u, 60u, 120u}) {
    const double e = worst_case_mean_error(x, p);
    EXPECT_GE(e, prev);
    prev = e;
  }
}

TEST(Eq2, MatchesBruteForce) {
  Rng rng(7);
  std::vector<double> x;
  for (int i = 0; i < 300; ++i) x.push_back(rng.uniform(-1.0, 1.0));
  for (const std::size_t p : {1u, 3u, 7u, 50u}) {
    double brute = 0.0;
    for (std::size_t n = 0; n + p <= x.size(); ++n) {
      const double mx = *std::max_element(x.begin() + n, x.begin() + n + p);
      const double mn = *std::min_element(x.begin() + n, x.begin() + n + p);
      brute += mx - mn;
    }
    brute /= static_cast<double>(x.size() - p + 1);
    EXPECT_NEAR(worst_case_mean_error(x, p), brute, 1e-12) << "p=" << p;
  }
}

TEST(Eq2, RejectsBadPeriod) {
  const std::vector<double> x(10, 0.0);
  EXPECT_THROW((void)worst_case_mean_error(x, 0), PreconditionError);
  EXPECT_THROW((void)worst_case_mean_error(x, 11), PreconditionError);
}

TEST(Eq2, ErrorVsPeriodSweep) {
  Rng rng(3);
  std::vector<double> x;
  double v = 0.0;
  for (int i = 0; i < 2000; ++i) {
    v += rng.gaussian(0.0, 0.005);
    x.push_back(v);
  }
  const auto sweep = error_vs_period(x, 1.0, {10.0, 60.0, 300.0});
  ASSERT_EQ(sweep.size(), 3u);
  EXPECT_LT(sweep[0].error, sweep[1].error);
  EXPECT_LT(sweep[1].error, sweep[2].error);
  EXPECT_DOUBLE_EQ(sweep[1].period, 60.0);
}

TEST(MppMapping, ScalesByK) {
  EXPECT_NEAR(mpp_voltage_error(12.7e-3, 0.6), 7.62e-3, 1e-5);
  EXPECT_NEAR(mpp_voltage_error(24.1e-3, 0.61), 14.7e-3, 2e-4);
}

TEST(EfficiencyLoss, ZeroAtMppGrowsAway) {
  const auto& cell = pv::sanyo_am1815();
  pv::Conditions c;
  c.illuminance_lux = 1000.0;
  EXPECT_NEAR(efficiency_loss_at_offset(cell, c, 0.0), 0.0, 1e-9);
  const double small = efficiency_loss_at_offset(cell, c, 0.01);
  const double large = efficiency_loss_at_offset(cell, c, 0.3);
  EXPECT_GT(large, small);
  EXPECT_GT(large, 0.0);
}

TEST(EfficiencyLoss, SmallHoldErrorCostsUnderOnePercent) {
  // Section II-B: a ~15 mV MPP-voltage error costs < 1%.
  const auto& cell = pv::sanyo_am1815();
  pv::Conditions c;
  c.illuminance_lux = 1000.0;
  EXPECT_LT(efficiency_loss_at_offset(cell, c, 15e-3), 0.01);
}

}  // namespace
}  // namespace focv::analysis
