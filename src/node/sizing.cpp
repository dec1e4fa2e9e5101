#include "node/sizing.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <unordered_map>

#include "common/require.hpp"
#include "obs/obs.hpp"

namespace focv::node {

namespace {

/// Exact area scaling of a cell: every areal current (photo, diode,
/// shunt) scales together while series resistance scales inversely, so
/// I_scaled(V) = factor * I_reference(V) at every voltage. The day loop
/// forms that product itself (see ProbeShare); this class serves the
/// Voc root solve, which must run on the scaled current.
class ScaledCell : public pv::CellModel {
 public:
  ScaledCell(const pv::SingleDiodeModel& inner, double factor)
      : inner_(inner), factor_(factor) {}

  [[nodiscard]] std::string name() const override {
    return inner_.name() + " x" + std::to_string(factor_);
  }
  [[nodiscard]] double area_cm2() const override { return inner_.area_cm2() * factor_; }
  [[nodiscard]] double current(double v, const pv::Conditions& c) const override {
    return factor_ * inner_.current(v, c);
  }
  [[nodiscard]] double voltage_bound(const pv::Conditions& c) const override {
    return inner_.voltage_bound(c);
  }

 private:
  const pv::SingleDiodeModel& inner_;
  double factor_;
};

struct DayRun {
  double harvest_j = 0.0;       ///< delivered minus overhead [J]
  double load_j = 0.0;
  double worst_deficit_j = 0.0; ///< deepest cumulative (load+overhead-delivered) dip [J]
};

/// The factor-independent work of one sizing call, shared by its
/// bisection probes and freed when the call returns.
///
/// Every probe walks the same active steps (lux at or above `min_lux`)
/// in the same order under the same conditions, so per active step k:
///  - v[k], i_ref[k]: the last voltage commanded there and the reference
///    cell's current at it. A probe whose controller commands a voltage
///    with the same bits reuses i_ref; any other voltage re-solves.
///  - voc_slot[k]: the step's Voc lux-grid key, numbered in order of
///    first appearance. Voc itself stays per probe (run_day).
struct ProbeShare {
  ProbeShare(const std::vector<double>& eq_lux, std::size_t steps, double min_lux)
      : min_lux(min_lux) {
    std::unordered_map<long, std::uint32_t> slot_of_key;
    for (std::size_t i = 0; i < steps; ++i) {
      const double lux = eq_lux[i];
      if (!(lux >= min_lux)) continue;
      const long key = std::lround(200.0 * std::log(lux));
      voc_slot.push_back(
          slot_of_key.try_emplace(key, static_cast<std::uint32_t>(slot_of_key.size()))
              .first->second);
    }
    v.assign(voc_slot.size(), 0.0);  // never matches: only v > 0 (or NaN) is looked up
    i_ref.assign(voc_slot.size(), 0.0);
  }

  double min_lux;
  std::vector<std::uint32_t> voc_slot;
  std::vector<double> v;
  std::vector<double> i_ref;
  std::uint64_t probes = 0;
  std::uint64_t cell_solves = 0;
  std::uint64_t voc_solves = 0;
};

DayRun run_day(const SizingQuery& query, const pv::SingleDiodeModel& reference_cell,
               const std::vector<double>& t, const std::vector<double>& eq_lux,
               mppt::MpptController& controller, double factor, ProbeShare& share) {
  const ScaledCell cell(reference_cell, factor);
  controller.reset();
  const power::WsnLoad load(query.load);
  const double load_power = load.average_power();
  ++share.probes;

  DayRun result;
  double balance = 0.0;
  double prev_power = 0.0, prev_voltage = 0.0;
  mppt::SensedInputs sensed;
  pv::Conditions c;
  c.temperature_k = query.temperature_k;

  // Voc (area-invariant in the model, but solved on this probe's scaled
  // current) memoised per lux-grid slot. Slots are numbered in order of
  // first appearance, so this probe always meets a slot it has not
  // solved yet exactly when it has solved all the lower ones.
  std::vector<double> voc;

  std::size_t k = 0;  // active-step index
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    const double dt = t[i + 1] - t[i];
    const double lux = eq_lux[i];
    c.illuminance_lux = lux;

    double delivered = 0.0;
    double overhead = 0.0;
    if (lux >= share.min_lux) {
      const std::uint32_t slot = share.voc_slot[k];
      if (slot == voc.size()) {
        voc.push_back(cell.open_circuit_voltage(c));
        ++share.voc_solves;
      }
      sensed.time = t[i];
      sensed.dt = dt;
      sensed.voc = voc[slot];
      sensed.pilot_voc = sensed.voc;
      sensed.illuminance_estimate = lux;
      sensed.prev_power = prev_power;
      sensed.prev_voltage = prev_voltage;
      const mppt::ControlOutput out = controller.step(sensed);
      const double v = out.pv_voltage;
      // cell.power_at(v, c), with the reference current looked up:
      // the same tests in the same order, and the scaled current is
      // the same product ScaledCell::current forms.
      double cell_power = 0.0;
      if (!(v <= 0.0)) {
        if (std::bit_cast<std::uint64_t>(v) != std::bit_cast<std::uint64_t>(share.v[k])) {
          share.v[k] = v;
          share.i_ref[k] = reference_cell.current(v, c);
          ++share.cell_solves;
        }
        const double current = factor * share.i_ref[k];
        cell_power = (current > 0.0) ? v * current : 0.0;
      }
      const double pv_power = cell_power * (1.0 - std::min(1.0, out.disconnect_fraction));
      prev_power = pv_power;
      prev_voltage = v;
      delivered = query.converter.output_power(pv_power, v);
      overhead = controller.overhead_power();
      ++k;
    }
    result.harvest_j += (delivered - overhead) * dt;
    result.load_j += load_power * dt;
    balance += (delivered - overhead - load_power) * dt;
    result.worst_deficit_j = std::min(result.worst_deficit_j, balance);
  }
  return result;
}

SizingResult size_impl(const SizingQuery& query, double min_factor, double max_factor,
                       const std::vector<double>* shared_eq_lux) {
  require(query.cell_model != nullptr, "size_for_energy_neutrality: cell is required");
  require(query.scenario_trace != nullptr, "size_for_energy_neutrality: scenario is required");
  require(query.controller_prototype != nullptr,
          "size_for_energy_neutrality: controller is required");
  require(min_factor > 0.0 && max_factor > min_factor,
          "size_for_energy_neutrality: bad factor range");

  // The spectral conversion depends only on (trace, cell): a caller
  // sizing many queries against one scenario shares it through a
  // SizingContext, and without one it is done once per call.
  std::vector<double> owned_eq_lux;
  if (shared_eq_lux == nullptr) {
    owned_eq_lux = query.scenario_trace->equivalent_lux(*query.cell_model);
  }
  const std::vector<double>& eq_lux = shared_eq_lux ? *shared_eq_lux : owned_eq_lux;

  // Each run gets a freshly cloned controller so a shared query can be
  // sized from several threads at once.
  const std::unique_ptr<mppt::MpptController> owned = query.controller_prototype->clone();
  mppt::MpptController& controller = *owned;
  // The controller runs where lux reaches both its own floor and 0.05 lx.
  const std::vector<double>& t = query.scenario_trace->time();
  ProbeShare share(eq_lux, t.empty() ? 0 : t.size() - 1,
                   std::max(controller.minimum_operating_lux(), 0.05));
  const auto day_at = [&](double factor) {
    return run_day(query, *query.cell_model, t, eq_lux, controller, factor, share);
  };
  // Work counters, added once per call (observe-only).
  const auto count_work = [&] {
    if (!obs::enabled()) return;
    static const obs::CounterId probes_id = obs::metrics().counter("node.sizing.probes");
    static const obs::CounterId cell_id = obs::metrics().counter("node.sizing.cell_solves");
    static const obs::CounterId voc_id = obs::metrics().counter("node.sizing.voc_solves");
    obs::metrics().add(probes_id, static_cast<double>(share.probes));
    obs::metrics().add(cell_id, static_cast<double>(share.cell_solves));
    obs::metrics().add(voc_id, static_cast<double>(share.voc_solves));
  };

  SizingResult result;
  const DayRun at_max = day_at(max_factor);
  result.daily_load_j = at_max.load_j;
  if (at_max.harvest_j < at_max.load_j) {
    // Even the largest allowed cell cannot reach neutrality.
    result.area_factor = max_factor;
    result.daily_harvest_j = at_max.harvest_j;
    result.feasible = false;
    count_work();
    return result;
  }

  // `hi` is always a probed factor; `at_hi` is its run.
  double lo = min_factor, hi = max_factor;
  DayRun at_hi = at_max;
  const DayRun at_min = day_at(min_factor);
  if (at_min.harvest_j >= at_min.load_j) {
    hi = min_factor;  // already neutral at the smallest size
    at_hi = at_min;
  }
  for (int iter = 0; iter < 24 && hi > lo * 1.02; ++iter) {
    const double mid = std::sqrt(lo * hi);
    const DayRun run = day_at(mid);
    if (run.harvest_j >= run.load_j) {
      hi = mid;
      at_hi = run;
    } else {
      lo = mid;
    }
  }
  result.area_factor = hi;
  result.daily_harvest_j = at_hi.harvest_j;
  result.storage_j = -at_hi.worst_deficit_j * 1.25;  // 25% engineering margin
  // Supercap sized for full energy swing at a 3 V working voltage.
  result.storage_f_at_3v = 2.0 * result.storage_j / (3.0 * 3.0);
  result.feasible = true;
  count_work();
  return result;
}

}  // namespace

SizingResult size_for_energy_neutrality(const SizingQuery& query, double min_factor,
                                        double max_factor) {
  return size_impl(query, min_factor, max_factor, nullptr);
}

SizingResult size_for_energy_neutrality(const SizingQuery& query, const SizingContext& context,
                                        double min_factor, double max_factor) {
  require(query.scenario_trace != nullptr, "size_for_energy_neutrality: scenario is required");
  require(query.cell_model != nullptr, "size_for_energy_neutrality: cell is required");
  require(&context.trace() == query.scenario_trace.get(),
          "size_for_energy_neutrality: context was built for a different trace");
  require(&context.cell() == query.cell_model.get(),
          "size_for_energy_neutrality: context was built for a different cell");
  return size_impl(query, min_factor, max_factor, &context.eq_lux());
}

}  // namespace focv::node
