// Physics sanity of the PV cell models.
#include <cmath>

#include <gtest/gtest.h>

#include "common/require.hpp"
#include "pv/diode_models.hpp"

namespace focv::pv {
namespace {

SingleDiodeModel::Params basic_params() {
  SingleDiodeModel::Params p;
  p.photocurrent_per_lux = 0.4e-6;
  p.saturation_current = 1e-12;
  p.series_cells = 7;
  p.ideality = 1.6;
  p.shunt_resistance = 20e6;
  p.series_resistance = 100.0;
  return p;
}

Conditions at_lux(double lux) {
  Conditions c;
  c.illuminance_lux = lux;
  return c;
}

TEST(SingleDiodeModel, IscEqualsPhotocurrentMinusShunt) {
  const SingleDiodeModel model(basic_params());
  const Conditions c = at_lux(1000.0);
  EXPECT_NEAR(model.short_circuit_current(c), model.photocurrent(c), 1e-8);
}

TEST(SingleDiodeModel, CurrentMonotonicallyDecreasesWithVoltage) {
  const SingleDiodeModel model(basic_params());
  const Conditions c = at_lux(500.0);
  double prev = model.current(0.0, c);
  for (double v = 0.1; v < 6.0; v += 0.1) {
    const double i = model.current(v, c);
    EXPECT_LT(i, prev) << "at v=" << v;
    prev = i;
  }
}

TEST(SingleDiodeModel, VocIncreasesLogarithmicallyWithLux) {
  const SingleDiodeModel model(basic_params());
  const double v1 = model.open_circuit_voltage(at_lux(100.0));
  const double v2 = model.open_circuit_voltage(at_lux(1000.0));
  const double v3 = model.open_circuit_voltage(at_lux(10000.0));
  EXPECT_GT(v2, v1);
  EXPECT_GT(v3, v2);
  // Log-linear: equal decade steps give (almost) equal Voc steps.
  EXPECT_NEAR(v2 - v1, v3 - v2, 0.02);
}

TEST(SingleDiodeModel, AnalyticDerivativeMatchesNumeric) {
  const SingleDiodeModel model(basic_params());
  const Conditions c = at_lux(700.0);
  for (double v = 0.0; v < 5.0; v += 0.5) {
    const double h = 1e-5;
    const double numeric = (model.current(v + h, c) - model.current(v - h, c)) / (2.0 * h);
    EXPECT_NEAR(model.current_derivative(v, c), numeric, std::abs(numeric) * 1e-4 + 1e-12)
        << "v=" << v;
  }
}

TEST(SingleDiodeModel, SeriesResistanceLowersCurveKnee) {
  SingleDiodeModel::Params lo_rs = basic_params();
  lo_rs.series_resistance = 0.0;
  SingleDiodeModel::Params hi_rs = basic_params();
  hi_rs.series_resistance = 10e3;
  const SingleDiodeModel a(lo_rs), b(hi_rs);
  const Conditions c = at_lux(1000.0);
  const double v_knee = 0.9 * a.open_circuit_voltage(c);
  EXPECT_GT(a.current(v_knee, c), b.current(v_knee, c));
}

TEST(SingleDiodeModel, TemperatureLowersVoc) {
  const SingleDiodeModel model(basic_params());
  Conditions cold = at_lux(1000.0);
  cold.temperature_k = 280.0;
  Conditions hot = at_lux(1000.0);
  hot.temperature_k = 330.0;
  EXPECT_GT(model.open_circuit_voltage(cold), model.open_circuit_voltage(hot));
}

TEST(SingleDiodeModel, DaylightSpectrumScalesPhotocurrent) {
  const SingleDiodeModel model(basic_params());
  Conditions fl = at_lux(1000.0);
  Conditions dl = at_lux(1000.0);
  dl.spectrum = Spectrum::kDaylight;
  EXPECT_NEAR(model.photocurrent(dl),
              model.photocurrent(fl) * basic_params().daylight_ratio, 1e-12);
}

TEST(SingleDiodeModel, MppLiesBetweenZeroAndVoc) {
  const SingleDiodeModel model(basic_params());
  const Conditions c = at_lux(300.0);
  const MppResult mpp = model.maximum_power_point(c);
  const double voc = model.open_circuit_voltage(c);
  EXPECT_GT(mpp.voltage, 0.0);
  EXPECT_LT(mpp.voltage, voc);
  EXPECT_GT(mpp.power, 0.0);
  EXPECT_GE(mpp.power, model.power_at(mpp.voltage * 0.95, c));
  EXPECT_GE(mpp.power, model.power_at(mpp.voltage * 1.05, c));
}

TEST(SingleDiodeModel, OpenCircuitThrowsInDarkness) {
  const SingleDiodeModel model(basic_params());
  EXPECT_THROW((void)model.open_circuit_voltage(at_lux(0.0)), PreconditionError);
}

TEST(SingleDiodeModel, TrackingEfficiencyPeaksAtMpp) {
  const SingleDiodeModel model(basic_params());
  const Conditions c = at_lux(2000.0);
  const MppResult mpp = model.maximum_power_point(c);
  EXPECT_NEAR(model.tracking_efficiency(mpp.voltage, c), 1.0, 1e-6);
  EXPECT_LT(model.tracking_efficiency(mpp.voltage * 0.7, c), 1.0);
  EXPECT_DOUBLE_EQ(model.tracking_efficiency(-1.0, c), 0.0);
}

TEST(SingleDiodeModel, CurveSamplesConsistent) {
  const SingleDiodeModel model(basic_params());
  const Conditions c = at_lux(800.0);
  const IVCurve curve = model.curve(c, 51);
  ASSERT_EQ(curve.voltage.size(), 51u);
  EXPECT_NEAR(curve.current.front(), model.short_circuit_current(c), 1e-12);
  EXPECT_NEAR(curve.current.back(), 0.0, 1e-9);
  for (std::size_t i = 0; i < curve.voltage.size(); ++i) {
    EXPECT_NEAR(curve.power[i], curve.voltage[i] * curve.current[i], 1e-15);
  }
}

TEST(SingleDiodeModel, RejectsBadParams) {
  SingleDiodeModel::Params p = basic_params();
  p.saturation_current = 0.0;
  EXPECT_THROW(SingleDiodeModel{p}, PreconditionError);
  p = basic_params();
  p.ideality = -1.0;
  EXPECT_THROW(SingleDiodeModel{p}, PreconditionError);
  p = basic_params();
  p.shunt_resistance = 0.0;
  EXPECT_THROW(SingleDiodeModel{p}, PreconditionError);
}

MertenAsiModel::AsiParams merten_params() {
  MertenAsiModel::AsiParams p;
  p.base = basic_params();
  p.builtin_voltage = 6.3;
  p.recombination_chi = 0.4;
  p.photo_shunt_per_volt = 0.05;
  return p;
}

TEST(MertenAsiModel, LossesReduceCurrentAboveZeroVolts) {
  const SingleDiodeModel plain(basic_params());
  const MertenAsiModel lossy(merten_params());
  const Conditions c = at_lux(1000.0);
  for (double v = 0.5; v < 5.0; v += 0.5) {
    EXPECT_LT(lossy.current(v, c), plain.current(v, c)) << "v=" << v;
  }
}

TEST(MertenAsiModel, PhotoShuntLowersFillFactor) {
  MertenAsiModel::AsiParams weak = merten_params();
  weak.recombination_chi = 0.0;
  weak.photo_shunt_per_volt = 0.0;
  MertenAsiModel::AsiParams strong = merten_params();
  strong.photo_shunt_per_volt = 0.15;
  const MertenAsiModel a(weak), b(strong);
  const Conditions c = at_lux(1000.0);
  EXPECT_GT(a.fill_factor(c), b.fill_factor(c));
}

TEST(MertenAsiModel, GuardKeepsModelFiniteNearVbi) {
  const MertenAsiModel model(merten_params());
  const Conditions c = at_lux(1000.0);
  const double v = model.voltage_bound(c);
  EXPECT_TRUE(std::isfinite(model.current(v, c)));
  EXPECT_TRUE(std::isfinite(model.current_derivative(v, c)));
}

TEST(MertenAsiModel, RejectsChiAboveVbi) {
  MertenAsiModel::AsiParams p = merten_params();
  p.recombination_chi = 7.0;  // > builtin_voltage
  EXPECT_THROW(MertenAsiModel{p}, PreconditionError);
}

// Property sweep: curve stays physical over a lux x temperature grid.
struct SweepPoint {
  double lux;
  double temp_k;
};

class MertenSweepTest : public ::testing::TestWithParam<SweepPoint> {};

TEST_P(MertenSweepTest, PhysicalCurveEverywhere) {
  const MertenAsiModel model(merten_params());
  Conditions c;
  c.illuminance_lux = GetParam().lux;
  c.temperature_k = GetParam().temp_k;
  const double voc = model.open_circuit_voltage(c);
  const double isc = model.short_circuit_current(c);
  EXPECT_GT(voc, 0.0);
  EXPECT_GT(isc, 0.0);
  const MppResult mpp = model.maximum_power_point(c);
  EXPECT_GT(mpp.power, 0.0);
  const double k = mpp.voltage / voc;
  EXPECT_GT(k, 0.3);
  EXPECT_LT(k, 0.95);
  const double ff = model.fill_factor(c);
  EXPECT_GT(ff, 0.1);
  EXPECT_LT(ff, 0.9);
}

INSTANTIATE_TEST_SUITE_P(
    LuxTemperatureGrid, MertenSweepTest,
    ::testing::Values(SweepPoint{50, 285}, SweepPoint{50, 300.15}, SweepPoint{50, 320},
                      SweepPoint{200, 285}, SweepPoint{200, 300.15}, SweepPoint{200, 320},
                      SweepPoint{1000, 285}, SweepPoint{1000, 300.15}, SweepPoint{1000, 320},
                      SweepPoint{5000, 285}, SweepPoint{5000, 300.15}, SweepPoint{5000, 320},
                      SweepPoint{20000, 285}, SweepPoint{20000, 300.15},
                      SweepPoint{20000, 320}, SweepPoint{100000, 300.15}));

}  // namespace
}  // namespace focv::pv
