// Byte-identity contract between the SoA engine's two kernels: the
// interval-major lane-batched sweep (fleet/soa_lanes.cpp) must produce
// EXACTLY the bytes of the node-major scalar sweep (soa_scalar.cpp) —
// same IEEE op sequence per lane, selects in place of branches, shared
// slow-path routine — in both table modes, at any worker count, and at
// every lane-tail / fallback edge the blocking can hit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "env/profiles.hpp"
#include "fleet/fleet.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "power/storage.hpp"
#include "pv/cell_library.hpp"

namespace focv::fleet {
namespace {

/// All-batchable roster over the paper's two measured day shapes: every
/// axis is a closed form the lane kernel runs (focv sample/hold, pilot
/// and fixed affine laws).
FleetSpec lanes_spec(std::size_t nodes, TableMode mode) {
  FleetSpec spec;
  spec.node_count = nodes;
  spec.root_seed = 2026;
  spec.chunk_size = 64;
  spec.table_mode = mode;
  spec.engine = FleetEngine::kSoa;
  spec.use_cell(pv::sanyo_am1815());
  spec.base.stepper = node::Stepper::kEvent;
  spec.base.storage.initial_voltage = 2.4;
  spec.base.load.report_period = 120.0;
  env::OfficeDayParams office;
  office.duration = 6.0 * 3600.0;
  spec.add_environment("office", env::office_desk_mixed(office), 0.6);
  spec.add_environment("sunday", env::desk_sunday_blinds_closed(7), 0.4);
  spec.add_policy("focv", 0.6);
  spec.add_policy("pilot", 0.2);
  spec.add_policy("fixed", 0.2);
  return spec;
}

std::string run_kernel(FleetSpec spec, SoaKernel kernel, int jobs) {
  spec.soa_kernel = kernel;
  FleetOptions opt;
  opt.jobs = jobs;
  return run_fleet(spec, opt).to_json();
}

/// The whole contract in one assertion: scalar jobs=1 is the reference;
/// lanes jobs=1, lanes jobs=4 and scalar jobs=4 must all match it.
void expect_kernels_identical(const FleetSpec& spec, const std::string& label) {
  const std::string ref = run_kernel(spec, SoaKernel::kScalar, 1);
  EXPECT_EQ(ref, run_kernel(spec, SoaKernel::kLanes, 1)) << label << " lanes jobs=1";
  EXPECT_EQ(ref, run_kernel(spec, SoaKernel::kLanes, 4)) << label << " lanes jobs=4";
  EXPECT_EQ(ref, run_kernel(spec, SoaKernel::kScalar, 4)) << label << " scalar jobs=4";
}

TEST(FleetSoaLanes, ByteIdenticalToScalarBothTableModes) {
  for (const TableMode mode : {TableMode::kFloat, TableMode::kQuantized}) {
    const FleetSpec spec = lanes_spec(1000, mode);
    expect_kernels_identical(spec,
                             mode == TableMode::kQuantized ? "quantized" : "float");
  }
}

TEST(FleetSoaLanes, LaneTailSizesByteIdentical) {
  // Chunk sizes and node counts chosen so axis runs end at every
  // residue mod the lane width: single-node runs, W-1 / W+1 tails, and
  // runs that fill whole blocks exactly. Tail blocks pad with replicas
  // of the last real node; any padding leak would corrupt these bytes.
  for (const std::size_t nodes : {1u, 3u, 7u, 8u, 9u, 63u, 64u, 65u, 130u}) {
    FleetSpec spec = lanes_spec(nodes, TableMode::kFloat);
    spec.chunk_size = 32;
    expect_kernels_identical(spec, "nodes=" + std::to_string(nodes));
  }
}

TEST(FleetSoaLanes, SlowPathCrossingsinsideLanesByteIdentical) {
  // Start every store exactly at the usable() gate: the first advance of
  // every lane takes the step-split slow path (e == e_use), and the
  // brownout/recovery churn afterwards keeps mixing slow and fast lanes
  // within single blocks. This pins the spill -> shared advance_slow ->
  // reload path, where a lane kernel would most plausibly diverge.
  for (const TableMode mode : {TableMode::kFloat, TableMode::kQuantized}) {
    FleetSpec spec = lanes_spec(200, mode);
    spec.base.storage.initial_voltage = spec.base.storage.min_useful_voltage;
    spec.base.load.report_period = 30.0;  // heavier load: more crossings
    expect_kernels_identical(spec, mode == TableMode::kQuantized ? "quantized" : "float");
  }
}

/// The SoA sweep's deterministic work on one serial run.
struct SweepWork {
  double slow = 0.0, flips = 0.0;
};

SweepWork sweep_work(FleetSpec spec, SoaKernel kernel) {
  spec.soa_kernel = kernel;
  const auto counter = [](const char* name) { return obs::metrics().counter_value(name); };
  obs::ScopedEnable on;
  const double slow0 = counter("fleet.soa.slow_advances");
  const double flips0 = counter("fleet.soa.store_flips");
  FleetOptions opt;
  opt.jobs = 1;
  (void)run_fleet(spec, opt);
  return {counter("fleet.soa.slow_advances") - slow0, counter("fleet.soa.store_flips") - flips0};
}

double rel_err(double a, double b) {
  const double scale = std::max(std::abs(a), std::abs(b));
  return scale == 0.0 ? 0.0 : std::abs(a - b) / scale;
}

/// Every contract the endpoint crossing test touches, on one roster:
/// scalar <-> lanes bytes, identical slow/flip work in both kernels,
/// no more slow advances than flips, and the per-node engine within the
/// 0.1 % equivalence band.
void expect_crossing_contracts(const FleetSpec& spec, const std::string& label) {
  expect_kernels_identical(spec, label);
  const SweepWork lanes = sweep_work(spec, SoaKernel::kLanes);
  const SweepWork scalar = sweep_work(spec, SoaKernel::kScalar);
  EXPECT_EQ(lanes.slow, scalar.slow) << label;
  EXPECT_EQ(lanes.flips, scalar.flips) << label;
  EXPECT_LE(lanes.slow, lanes.flips) << label;

  FleetSpec per_node = spec;
  per_node.engine = FleetEngine::kPerNode;
  FleetOptions opt;
  opt.jobs = 1;
  const FleetReport a = run_fleet(per_node, opt);
  const FleetReport b = run_fleet(spec, opt);
  ASSERT_EQ(a.nodes_ok, b.nodes_ok) << label;
  EXPECT_LT(rel_err(a.harvested_j, b.harvested_j), 1e-3) << label;
  EXPECT_LT(rel_err(a.delivered_j, b.delivered_j), 1e-3) << label;
  EXPECT_LT(rel_err(a.load_served_j, b.load_served_j), 1e-3) << label;
  EXPECT_LT(rel_err(a.overhead_j, b.overhead_j), 1e-3) << label;
}

TEST(FleetSoaLanes, StoresParkedAtTheGuardBand) {
  // Every node starts at the usable() gate, or offset from it in energy
  // by a quarter of the crossing test's relative guard band (inside) or
  // by a thousand bands (outside), on both sides: the first advance of
  // every lane starts on the test's edge, in blocks mixing slow and
  // fast lanes.
  const double band = power::kCrossingGuard;
  for (const double offset : {0.0, 0.25 * band, -0.25 * band, 1e3 * band, -1e3 * band}) {
    FleetSpec spec = lanes_spec(130, TableMode::kFloat);
    spec.chunk_size = 32;
    spec.base.storage.initial_voltage =
        spec.base.storage.min_useful_voltage * std::sqrt(1.0 + offset);
    expect_crossing_contracts(spec, "energy offset " + std::to_string(offset / band) + " bands");
  }
}

TEST(FleetSoaLanes, AsymptoteAtTheGate) {
  // No load and a gate at 0 V: in the dark the store's asymptote is the
  // gate itself (e_inf == e_use == 0), approached but never reached.
  FleetSpec spec = lanes_spec(130, TableMode::kQuantized);
  spec.base.storage.min_useful_voltage = 0.0;
  spec.base.load.sleep_power = 0.0;
  spec.base.load.sense_power = 0.0;
  spec.base.load.tx_power = 0.0;
  expect_crossing_contracts(spec, "e_inf == e_use");
}

TEST(FleetSoaLanes, LanesKernelIsTheDefault) {
  FleetSpec spec;
  EXPECT_EQ(spec.soa_kernel, SoaKernel::kLanes);
}

}  // namespace
}  // namespace focv::fleet
