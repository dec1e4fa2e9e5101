#include "analog/sample_hold.hpp"

#include <gtest/gtest.h>

#include "common/require.hpp"

namespace focv::analog {
namespace {

SampleHold::Params clean_params() {
  SampleHold::Params p;
  p.divider_ratio = 0.298;
  p.acquisition_time = 10e-3;
  p.hold_capacitance = 100e-9;
  p.leakage_current = 0.0;
  p.charge_injection = 0.0;
  p.input_buffer_offset = 0.0;
  p.output_buffer_offset = 0.0;
  return p;
}

TEST(SampleHold, HoldsDividedSample) {
  SampleHold sh(clean_params());
  EXPECT_FALSE(sh.has_sample());
  EXPECT_DOUBLE_EQ(sh.value(0.0), 0.0);
  sh.sample(0.0, 5.44, 39e-3);
  EXPECT_TRUE(sh.has_sample());
  EXPECT_NEAR(sh.value(1.0), 5.44 * 0.298, 1e-4);
}

TEST(SampleHold, DroopIsLinearInTime) {
  SampleHold::Params p = clean_params();
  p.leakage_current = 50e-12;  // 0.5 mV/s on 100 nF
  SampleHold sh(p);
  sh.sample(0.0, 5.0, 39e-3);
  const double v0 = sh.value(0.039);
  EXPECT_NEAR(sh.value(60.0 + 0.039), v0 - 0.5e-3 * 60.0, 1e-6);
  EXPECT_NEAR(sh.droop_rate(), 0.5e-3, 1e-9);
}

TEST(SampleHold, ChargeInjectionShiftsHeldValue) {
  SampleHold::Params p = clean_params();
  p.charge_injection = 10e-12;  // 0.1 mV on 100 nF
  SampleHold with(p);
  SampleHold without(clean_params());
  with.sample(0.0, 5.0, 39e-3);
  without.sample(0.0, 5.0, 39e-3);
  EXPECT_NEAR(without.value(1.0) - with.value(1.0), 1e-4, 1e-7);
}

TEST(SampleHold, ShortPulseLeavesSettlingError) {
  SampleHold sh(clean_params());  // acquisition 10 ms
  sh.sample(0.0, 5.0, 1e-3);      // only 0.5 tau
  const double target = 5.0 * 0.298;
  EXPECT_LT(sh.value(0.01), 0.5 * target);
  // A full-length pulse later corrects it.
  sh.sample(10.0, 5.0, 39e-3);
  EXPECT_NEAR(sh.value(10.1), target, 1e-3);
}

TEST(SampleHold, OffsetsPropagate) {
  SampleHold::Params p = clean_params();
  p.input_buffer_offset = 2e-3;
  p.output_buffer_offset = 1e-3;
  SampleHold sh(p);
  sh.sample(0.0, 5.0, 39e-3);
  EXPECT_NEAR(sh.value(1.0), (5.0 + 2e-3) * 0.298 + 1e-3, 1e-4);
}

TEST(SampleHold, ValueNeverNegative) {
  SampleHold::Params p = clean_params();
  p.leakage_current = 1e-6;  // extreme droop
  SampleHold sh(p);
  sh.sample(0.0, 1.0, 39e-3);
  EXPECT_DOUBLE_EQ(sh.value(1e6), 0.0);
}

TEST(SampleHold, ResampleUpdatesFromPreviousValue) {
  SampleHold sh(clean_params());
  sh.sample(0.0, 5.0, 39e-3);
  sh.sample(69.0, 4.0, 39e-3);
  EXPECT_NEAR(sh.value(70.0), 4.0 * 0.298, 1e-3);
}

TEST(SampleHold, AverageCurrentScalesWithDuty) {
  SampleHold::Params p = clean_params();
  p.buffer_iq = 4.4e-6;
  p.divider_current_peak = 0.5e-6;
  SampleHold sh(p);
  EXPECT_NEAR(sh.average_current(0.0), 4.4e-6, 1e-12);
  EXPECT_NEAR(sh.average_current(1.0), 4.9e-6, 1e-12);
  EXPECT_THROW((void)sh.average_current(1.5), PreconditionError);
}

TEST(SampleHold, ResetClearsState) {
  SampleHold sh(clean_params());
  sh.sample(0.0, 5.0, 39e-3);
  sh.reset();
  EXPECT_FALSE(sh.has_sample());
  EXPECT_DOUBLE_EQ(sh.value(10.0), 0.0);
}

TEST(SampleHold, RejectsBadParams) {
  SampleHold::Params p = clean_params();
  p.divider_ratio = 1.5;
  EXPECT_THROW(SampleHold{p}, PreconditionError);
  p = clean_params();
  p.hold_capacitance = 0.0;
  EXPECT_THROW(SampleHold{p}, PreconditionError);
}

}  // namespace
}  // namespace focv::analog
