// The endpoint crossing test on the per-node event path:
// MacroStepper::advance_store_span advances a supercapacitor piece with
// Supercapacitor::advance_if_clear() and solves time_to_energy() only
// when the test cannot rule a usable() crossing out. The test must never
// clear a piece the solve would split, and a cleared advance must be the
// exact bytes of advance_constant_power().
#include <algorithm>
#include <cmath>
#include <random>

#include <gtest/gtest.h>

#include "core/focv_system.hpp"
#include "env/profiles.hpp"
#include "node/harvester_node.hpp"
#include "power/storage.hpp"
#include "pv/cell_library.hpp"

namespace focv {
namespace {

TEST(SchedCrossing, SeededSweepNeverClearsASplit) {
  // Random stores, powers and step-boundary pieces anywhere in a
  // week-long trace, with the endpoint aimed within a few decades of the
  // guard band on both sides of the gate (and across it).
  std::mt19937_64 rng(20260413);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const auto log_uniform = [&](double lo, double hi) {
    return std::exp(std::log(lo) + unit(rng) * (std::log(hi) - std::log(lo)));
  };
  int cleared = 0, splits = 0, probes = 0;
  for (int k = 0; k < 100000; ++k) {
    power::Supercapacitor::Params p;
    p.capacitance = log_uniform(1e-3, 10.0);
    p.self_discharge_resistance = log_uniform(1e3, 1e8);
    p.min_useful_voltage = log_uniform(0.1, 3.0);
    p.max_voltage = p.min_useful_voltage * log_uniform(1.2, 10.0);
    power::Supercapacitor cap(p);
    const double tau = p.self_discharge_resistance * p.capacitance;
    const double e_use = cap.min_useful_energy();
    const double t_p = unit(rng) * 6.048e5;
    const double t_q = t_p + tau * log_uniform(1e-7, 0.5);
    if (!(t_q > t_p)) continue;
    const double dt = t_q - t_p;

    const double side = unit(rng) < 0.5 ? 1.0 : -1.0;
    const double gap = e_use * log_uniform(1e-12, 1e3);
    const double e_inf = unit(rng) < 0.8 ? e_use - side * gap : e_use + side * gap;
    const double band = power::kCrossingGuard * (e_use + std::fabs(e_use - e_inf));
    double offset = side * band * log_uniform(1e-3, 1e5);
    if (unit(rng) < 0.25) offset = -offset;
    const double e0 = e_inf + (e_use + offset - e_inf) / std::exp(-2.0 * dt / tau);
    if (!(e0 >= 0.0 && e0 <= cap.max_energy())) continue;
    cap.set_voltage(std::sqrt(2.0 * e0 / p.capacitance));
    const double power = 2.0 * e_inf / tau;
    ++probes;

    const double flip_dt = cap.time_to_energy(power, e_use);
    const bool split = std::isfinite(flip_dt) && t_p + flip_dt < t_q;
    if (split) ++splits;
    power::Supercapacitor reference = cap;
    reference.advance_constant_power(power, dt);
    const double v0 = cap.voltage();
    if (cap.advance_if_clear(power, dt, e_use)) {
      ++cleared;
      EXPECT_FALSE(split) << "cleared a crossing: e0=" << e0 << " e_inf=" << e_inf;
      EXPECT_EQ(cap.voltage(), reference.voltage());
    } else {
      EXPECT_EQ(cap.voltage(), v0) << "a refused advance must leave the store untouched";
    }
    if (HasFailure()) return;
  }
  EXPECT_GT(probes, 50000);
  EXPECT_GT(cleared, 10000);
  EXPECT_GT(splits, 10000);
}

TEST(SchedCrossing, NoSelfDischargeIsNeverCleared) {
  // Without a leak there is no exponential closed form to test.
  power::Supercapacitor::Params p;
  p.self_discharge_resistance = 0.0;
  p.initial_voltage = 3.0;
  power::Supercapacitor cap(p);
  EXPECT_FALSE(cap.advance_if_clear(-1e-6, 10.0, cap.min_useful_energy()));
  EXPECT_EQ(cap.voltage(), 3.0);
}

TEST(SchedCrossing, StoreAtTheGateIsNeverCleared) {
  power::Supercapacitor::Params p;
  p.initial_voltage = p.min_useful_voltage;
  power::Supercapacitor cap(p);
  for (const double power : {-1e-5, 0.0, 1e-5}) {
    EXPECT_FALSE(cap.advance_if_clear(power, 60.0, cap.min_useful_energy())) << power;
  }
}

TEST(SchedCrossing, EventStepperAtTheGateHoldsTheFixedContract) {
  // Nodes parked at the usable() gate, a hair inside the guard band and
  // well outside it on both sides: the event stepper's first pieces land
  // on the crossing test's edge and must still track the fixed-step
  // reference within the 0.1 % contract.
  const env::LightTrace trace = env::office_desk_mixed(env::OfficeDayParams{});
  for (const double offset : {0.0, 0.25, -0.25, 1e3, -1e3}) {
    node::NodeConfig cfg;
    cfg.use_cell(pv::sanyo_am1815());
    cfg.use_controller(core::make_paper_controller());
    cfg.load.report_period = 30.0;
    cfg.storage.initial_voltage =
        cfg.storage.min_useful_voltage * std::sqrt(1.0 + offset * power::kCrossingGuard);
    cfg.stepper = node::Stepper::kFixed;
    const node::NodeReport fixed = node::simulate_node(trace, cfg);
    cfg.stepper = node::Stepper::kEvent;
    const node::NodeReport event = node::simulate_node(trace, cfg);
    const auto rel = [](double a, double b) {
      const double m = std::max(std::abs(a), std::abs(b));
      return m > 1e-12 ? std::abs(a - b) / m : 0.0;
    };
    EXPECT_LE(rel(fixed.harvested_energy, event.harvested_energy), 1e-3) << offset;
    EXPECT_LE(rel(fixed.delivered_energy, event.delivered_energy), 1e-3) << offset;
    EXPECT_LE(rel(fixed.load_energy_served, event.load_energy_served), 1e-3) << offset;
    EXPECT_LE(std::abs(fixed.final_store_voltage - event.final_store_voltage), 5e-3) << offset;
  }
}

}  // namespace
}  // namespace focv
