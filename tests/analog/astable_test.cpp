#include "analog/astable.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "common/require.hpp"

namespace focv::analog {
namespace {

TEST(Astable, PulsePatternMatchesPeriods) {
  AstableMultivibrator::Params p;
  p.on_period = 0.039;
  p.off_period = 69.0;
  const AstableMultivibrator ast(p);
  EXPECT_TRUE(ast.pulse_active(0.01));
  EXPECT_TRUE(ast.pulse_active(0.038));
  EXPECT_FALSE(ast.pulse_active(0.040));
  EXPECT_FALSE(ast.pulse_active(30.0));
  // Second cycle.
  EXPECT_TRUE(ast.pulse_active(69.039 + 0.01));
  EXPECT_FALSE(ast.pulse_active(69.039 + 0.05));
}

TEST(Astable, NextRisingEdge) {
  AstableMultivibrator::Params p;
  p.on_period = 0.039;
  p.off_period = 69.0;
  const AstableMultivibrator ast(p);
  EXPECT_DOUBLE_EQ(ast.next_rising_edge(0.0), 0.0);
  EXPECT_NEAR(ast.next_rising_edge(1.0), 69.039, 1e-9);
  EXPECT_NEAR(ast.next_rising_edge(70.0), 2 * 69.039, 1e-9);
}

TEST(Astable, StartDelayShiftsPattern) {
  AstableMultivibrator::Params p;
  p.on_period = 0.1;
  p.off_period = 0.9;
  p.start_delay = 5.0;
  const AstableMultivibrator ast(p);
  EXPECT_FALSE(ast.pulse_active(4.9));
  EXPECT_TRUE(ast.pulse_active(5.05));
  EXPECT_DOUBLE_EQ(ast.next_rising_edge(0.0), 5.0);
}

TEST(Astable, DutyCycleTiny) {
  const AstableMultivibrator ast;  // defaults: 39 ms / 69 s
  EXPECT_NEAR(ast.duty_cycle(), 0.039 / 69.039, 1e-9);
  EXPECT_LT(ast.duty_cycle(), 1e-3);
}

TEST(Astable, AverageCurrentSumsComponents) {
  AstableMultivibrator::Params p;
  p.comparator_iq = 0.7e-6;
  p.network_current = 0.25e-6;
  const AstableMultivibrator ast(p);
  EXPECT_NEAR(ast.average_current(), 0.95e-6, 1e-12);
}

TEST(Astable, TimingFromComponentsIdealCase) {
  // Equal thresholds at 1/3 and 2/3: t = R*C*ln(2) on both phases.
  AstableMultivibrator::TimingComponents c;
  c.r_charge = 56.3e3;
  c.r_discharge = 99.55e6;
  c.capacitance = 1e-6;
  const auto p = AstableMultivibrator::timing_from_components(c);
  EXPECT_NEAR(p.on_period, 56.3e3 * 1e-6 * std::log(2.0), 1e-6);
  EXPECT_NEAR(p.off_period, 99.55e6 * 1e-6 * std::log(2.0), 1e-3);
}

TEST(Astable, TimingFromComponentsAsymmetricThresholds) {
  AstableMultivibrator::TimingComponents c;
  c.r_charge = 1e3;
  c.r_discharge = 1e3;
  c.capacitance = 1e-6;
  c.threshold_low_fraction = 0.25;
  c.threshold_high_fraction = 0.75;
  const auto p = AstableMultivibrator::timing_from_components(c);
  EXPECT_NEAR(p.on_period, 1e-3 * std::log(0.75 / 0.25), 1e-9);
  EXPECT_NEAR(p.off_period, 1e-3 * std::log(3.0), 1e-9);
}

TEST(Astable, RejectsBadParams) {
  AstableMultivibrator::Params p;
  p.on_period = 0.0;
  EXPECT_THROW(AstableMultivibrator{p}, PreconditionError);
  AstableMultivibrator::TimingComponents c;
  c.r_charge = -1.0;
  c.r_discharge = 1.0;
  c.capacitance = 1.0;
  EXPECT_THROW((void)AstableMultivibrator::timing_from_components(c), PreconditionError);
}

}  // namespace
}  // namespace focv::analog
