// Energy storage models: supercapacitor and a simple battery.
#pragma once

#include <cmath>
#include <limits>

#include "common/require.hpp"

namespace focv::power {

/// Relative guard band of the endpoint crossing test, 2^16 machine
/// epsilons. DESIGN.md §8 "Crossing test" bounds the rounding the test
/// must absorb by (22 + 11 lambda) u, u = epsilon / 2 and lambda =
/// 2 dt / tau; a crossing span has lambda < 1419 over the normal double
/// range, so the band covers the worst case eight times over.
inline constexpr double kCrossingGuard = 0x1p16 * std::numeric_limits<double>::epsilon();

/// The one crossing test of the closed-form store advance
/// E(t) = e_inf + (e0 - e_inf) exp(-2t/tau) across a span, given the
/// span's computed endpoint `e_end`: true when e_end lies on e0's side of
/// `threshold` by more than the band rel_guard * (threshold +
/// |threshold - e_inf|). The trajectory is monotone, so the store then
/// provably stays on that side for the whole span, and the exact
/// time_to_energy() solve would report no crossing before the span ends.
/// False at e0 == threshold, inside the band and on NaN: the caller then
/// solves for the crossing time. `rel_guard` is kCrossingGuard, widened
/// only where the endpoint's decay and the crossing solve measure the
/// span differently (the SoA schedule's prefix-summed widths).
[[nodiscard]] inline bool stays_clear(double e0, double e_end, double e_inf, double threshold,
                                      double rel_guard) {
  const double band = rel_guard * (threshold + std::fabs(threshold - e_inf));
  return e0 > threshold ? e_end - threshold > band
                        : e0 < threshold && threshold - e_end > band;
}

/// Ideal supercapacitor with voltage limits and self-discharge.
class Supercapacitor {
 public:
  struct Params {
    double capacitance = 0.4;       ///< [F]
    double max_voltage = 5.0;       ///< [V]
    double min_useful_voltage = 1.8;///< below this the load browns out [V]
    double initial_voltage = 0.0;   ///< cold start: empty [V]
    double self_discharge_resistance = 5e6;  ///< [Ohm]
  };

  explicit Supercapacitor(Params params) : params_(params), voltage_(params.initial_voltage) {
    require(params_.capacitance > 0.0, "Supercapacitor: capacitance must be > 0");
    require(params_.max_voltage > params_.min_useful_voltage,
            "Supercapacitor: max_voltage must exceed min_useful_voltage");
  }
  Supercapacitor() : Supercapacitor(Params{}) {}

  /// Apply a net power for dt seconds (positive charges, negative
  /// discharges). Returns the energy actually absorbed/delivered [J]
  /// (clipped at the voltage limits and at empty).
  double apply_power(double power, double dt);

  /// Advance by dt under a constant net power using the closed form of
  /// the continuous dynamics dE/dt = P - 2E/tau (tau = R_self * C).
  /// apply_power() composes the same dynamics one decay-then-integrate
  /// step at a time; the two agree to O(dt_step / tau) per step, which
  /// for the default parameters (tau = 2e6 s, 1 s steps) is ~5e-7
  /// relative. The trajectory is monotone toward its asymptote, so
  /// clamping the endpoint at [0, max] is exact. Used by the event-driven
  /// macro-stepper to jump across hold periods in one call. Returns the
  /// energy change [J].
  double advance_constant_power(double power, double dt);

  /// advance_constant_power() guarded by the crossing test: when the
  /// closed form provably keeps the store on its side of `threshold_j`
  /// for all of dt (stays_clear() with kCrossingGuard), advances exactly
  /// as advance_constant_power() would and returns true. Otherwise —
  /// a possible crossing, or no self-discharge (no exponential closed
  /// form) — returns false and leaves the state untouched.
  bool advance_if_clear(double power, double dt, double threshold_j);

  /// Time until the stored energy first reaches `target_j` under a
  /// constant net power from the current state (voltage clamps ignored).
  /// +infinity when the trajectory never gets there — wrong direction or
  /// asymptote short of the target; 0 when already exactly at it. This is the
  /// closed-form root-solve behind storage threshold events (cold-start,
  /// energy-neutral, depletion crossings).
  [[nodiscard]] double time_to_energy(double power, double target_j) const;

  [[nodiscard]] double voltage() const { return voltage_; }
  [[nodiscard]] double stored_energy() const {
    return 0.5 * params_.capacitance * voltage_ * voltage_;
  }
  /// Energy at max_voltage [J].
  [[nodiscard]] double max_energy() const {
    return 0.5 * params_.capacitance * params_.max_voltage * params_.max_voltage;
  }
  /// Energy at min_useful_voltage — the usable()/brown-out threshold [J].
  [[nodiscard]] double min_useful_energy() const {
    return 0.5 * params_.capacitance * params_.min_useful_voltage * params_.min_useful_voltage;
  }
  [[nodiscard]] bool usable() const { return voltage_ >= params_.min_useful_voltage; }
  [[nodiscard]] bool full() const { return voltage_ >= params_.max_voltage - 1e-9; }
  [[nodiscard]] const Params& params() const { return params_; }

  void set_voltage(double v) {
    require(v >= 0.0 && v <= params_.max_voltage, "Supercapacitor: voltage out of range");
    voltage_ = v;
  }

 private:
  Params params_;
  double voltage_;
};

}  // namespace focv::power
