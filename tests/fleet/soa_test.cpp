// Equivalence and determinism contract of the struct-of-arrays fleet
// engine (fleet/soa.hpp) against the per-node engine it accelerates.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "env/profiles.hpp"
#include "fleet/fleet.hpp"
#include "fleet/soa_internal.hpp"
#include "node/harvester_node.hpp"
#include "obs/obs.hpp"
#include "power/storage.hpp"
#include "pv/cell_library.hpp"

namespace focv::fleet {
namespace {

FleetOptions jobs1() {
  FleetOptions opt;
  opt.jobs = 1;
  return opt;
}

/// Mixed-policy fleet over the paper's two measured day shapes. The
/// roster deliberately mixes batchable axes (focv closed form, pilot
/// memoryless) with a per-node fallback axis (direct tracks the store).
FleetSpec day_spec(std::size_t nodes, bool with_fallback = true) {
  FleetSpec spec;
  spec.node_count = nodes;
  spec.root_seed = 2026;
  spec.chunk_size = 64;
  spec.use_cell(pv::sanyo_am1815());
  spec.base.stepper = node::Stepper::kEvent;
  spec.base.storage.initial_voltage = 2.4;
  spec.base.load.report_period = 120.0;
  env::OfficeDayParams office;
  office.duration = 6.0 * 3600.0;
  spec.add_environment("office", env::office_desk_mixed(office), 0.6);
  spec.add_environment("sunday", env::desk_sunday_blinds_closed(7), 0.4);
  if (with_fallback) {
    spec.add_policy("focv", 0.6);
    spec.add_policy("pilot", 0.2);
    spec.add_policy("direct", 0.2);
  } else {
    spec.add_policy("focv", 0.7);
    spec.add_policy("pilot", 0.2);
    spec.add_policy("fixed", 0.1);
  }
  return spec;
}

double rel_err(double a, double b) {
  const double scale = std::max(std::abs(a), std::abs(b));
  if (scale == 0.0) return 0.0;
  return std::abs(a - b) / scale;
}

TEST(FleetSoa, MatchesPerNodeEngineWithinEventContract) {
  FleetSpec per_node = day_spec(96);
  FleetSpec soa = per_node;
  soa.engine = FleetEngine::kSoa;

  const FleetReport a = run_fleet(per_node, jobs1());
  const FleetReport b = run_fleet(soa, jobs1());

  ASSERT_EQ(a.nodes_ok, b.nodes_ok);
  ASSERT_EQ(a.nodes_failed, 0u);
  // Fleet-level energy totals stay inside the event stepper's 0.1 %
  // equivalence band.
  EXPECT_LT(rel_err(a.harvested_j, b.harvested_j), 1e-3);
  EXPECT_LT(rel_err(a.delivered_j, b.delivered_j), 1e-3);
  EXPECT_LT(rel_err(a.ideal_mpp_j, b.ideal_mpp_j), 1e-3);
  EXPECT_LT(rel_err(a.load_served_j, b.load_served_j), 1e-3);
  EXPECT_LT(rel_err(a.net_j, b.net_j), 2e-3);
  EXPECT_LT(rel_err(a.overhead_j, b.overhead_j), 1e-3);
  EXPECT_LT(std::abs(a.efficiency_sum - b.efficiency_sum),
            1e-3 * static_cast<double>(a.nodes_ok));

  // Per-axis totals hold the same bound (nothing hides in mixture
  // cancellation), and the fallback axis is not merely close — those
  // nodes run the per-node engine inside the SoA chunks, byte for byte.
  ASSERT_EQ(a.policies.size(), b.policies.size());
  for (std::size_t i = 0; i < a.policies.size(); ++i) {
    const PolicyAggregate& pa = a.policies[i];
    const PolicyAggregate& pb = b.policies[i];
    ASSERT_EQ(pa.nodes, pb.nodes);
    EXPECT_LT(rel_err(pa.harvested_j, pb.harvested_j), 1e-3) << pa.policy;
    EXPECT_LT(std::abs(pa.efficiency_sum - pb.efficiency_sum),
              1e-3 * static_cast<double>(pa.nodes) + 1e-12)
        << pa.policy;
    if (pa.policy == "direct") {
      EXPECT_DOUBLE_EQ(pa.harvested_j, pb.harvested_j);
      EXPECT_DOUBLE_EQ(pa.net_j, pb.net_j);
      EXPECT_DOUBLE_EQ(pa.efficiency_sum, pb.efficiency_sum);
    }
  }
}

TEST(FleetSoa, AllFallbackRosterIsByteIdenticalToPerNode) {
  // No batchable axis at all: the SoA engine must degrade to exactly
  // the per-node engine, not an approximation of it.
  FleetSpec per_node = day_spec(24);
  per_node.policies.clear();
  per_node.add_policy("direct", 0.5);
  per_node.add_policy("pando", 0.5);
  FleetSpec soa = per_node;
  soa.engine = FleetEngine::kSoa;

  const FleetReport a = run_fleet(per_node, jobs1());
  const FleetReport b = run_fleet(soa, jobs1());
  EXPECT_EQ(a.to_json(), b.to_json());
}

TEST(FleetSoa, TelemetryOnOffIsByteIdenticalAndCountsTheSweep) {
  // The observe-only contract at fleet scale: enabling focv::obs must
  // not perturb a single exported byte, while the SoA sweep's aggregate
  // counters report real work. The mixed roster exercises both the
  // batched axes and the per-node fallback axis under telemetry.
  FleetSpec spec = day_spec(96);
  spec.engine = FleetEngine::kSoa;
  const std::string off = run_fleet(spec, jobs1()).to_json();

  obs::reset_all();
  std::string on;
  {
    obs::ScopedEnable scoped;
    on = run_fleet(spec, jobs1()).to_json();
  }
  EXPECT_EQ(off, on);
  EXPECT_GT(obs::metrics().counter_value("fleet.soa.nodes_swept"), 0.0);
  EXPECT_GT(obs::metrics().counter_value("fleet.soa.intervals_swept"), 0.0);
  EXPECT_GT(obs::metrics().counter_value("fleet.soa.nodes_batched"), 0.0);
  EXPECT_GT(obs::metrics().counter_value("fleet.soa.nodes_fallback"), 0.0);
  EXPECT_GT(obs::metrics().counter_value("fleet.soa.plans_built"), 0.0);
  EXPECT_GT(obs::metrics().counter_value("sched.batch.builds"), 0.0);
  // Batched + fallback partitions the fleet exactly.
  EXPECT_EQ(obs::metrics().counter_value("fleet.soa.nodes_batched") +
                obs::metrics().counter_value("fleet.soa.nodes_fallback"),
            96.0);
  obs::reset_all();
}

TEST(FleetSoa, ByteIdenticalAcrossWorkerCountsBothTableModes) {
  for (const TableMode mode : {TableMode::kFloat, TableMode::kQuantized}) {
    FleetSpec spec = day_spec(10000, /*with_fallback=*/false);
    spec.chunk_size = 512;
    spec.engine = FleetEngine::kSoa;
    spec.table_mode = mode;

    FleetOptions threaded;
    threaded.jobs = 4;
    const FleetReport a = run_fleet(spec, jobs1());
    const FleetReport b = run_fleet(spec, threaded);
    EXPECT_EQ(a.to_json(), b.to_json())
        << "table_mode=" << (mode == TableMode::kQuantized ? "quantized" : "float");
    EXPECT_EQ(a.nodes_failed, 0u);
  }
}

TEST(FleetSoa, QuantizedTablesStayWithinAccuracyBound) {
  FleetSpec flt = day_spec(128, /*with_fallback=*/false);
  flt.engine = FleetEngine::kSoa;
  FleetSpec qnt = flt;
  qnt.table_mode = TableMode::kQuantized;

  const FleetReport a = run_fleet(flt, jobs1());
  const FleetReport b = run_fleet(qnt, jobs1());
  ASSERT_EQ(a.nodes_ok, b.nodes_ok);
  // uV / nW rounding on the table entries: far below the engine's own
  // 0.1 % contract.
  EXPECT_LT(rel_err(a.harvested_j, b.harvested_j), 1e-3);
  EXPECT_LT(rel_err(a.delivered_j, b.delivered_j), 1e-3);
  EXPECT_LT(rel_err(a.ideal_mpp_j, b.ideal_mpp_j), 1e-3);
  EXPECT_LT(rel_err(a.net_j, b.net_j), 2e-3);
}

// --- endpoint crossing test -------------------------------------------
//
// The kernels' fast path runs only where power::stays_clear() clears the
// interval; everywhere else internal::advance_slow solves the crossing.
// These tests drive advance_slow directly on hand-built intervals and
// hold the contract the byte-identity rests on: whenever the test
// clears an interval, advance_slow finds no flip and produces exactly
// the fast path's bytes.

namespace internal = soa::internal;

/// One SoA interval over steps t[0..n] with the schedule's derived
/// fields: the prefix-summed width w, the decay exp(-2 w / tau), and the
/// guard band the plan widens by the width shortfall (soa_plan.cpp).
struct TestInterval {
  std::vector<double> t;
  sched::BatchInterval iv;
  double span = 0.0, dec = 0.0, guard = 0.0;
};

TestInterval make_interval(std::vector<double> t, double tau) {
  TestInterval ti;
  ti.t = std::move(t);
  const std::size_t n = ti.t.size() - 1;
  double cum = ti.t[0];
  for (std::size_t i = 0; i < n; ++i) cum += ti.t[i + 1] - ti.t[i];
  ti.iv.a = 0;
  ti.iv.b = static_cast<std::uint32_t>(n);
  ti.iv.t0 = ti.t[0];
  ti.iv.t1 = ti.t[n];
  ti.iv.w = cum - ti.t[0];
  ti.span = ti.iv.t1 - ti.iv.t0;
  ti.dec = std::exp(-2.0 * ti.iv.w / tau);
  ti.guard = power::kCrossingGuard + 4.0 * std::max(0.0, ti.span - ti.iv.w) / tau;
  return ti;
}

/// Store state after one interval, from either path.
struct Advanced {
  double e = 0.0, served = 0.0, brown_t = 0.0;
  std::uint32_t brown_steps = 0, flips = 0, slow = 0;
};

struct Probe {
  double e = 0.0, e_inf = 0.0, e_end = 0.0;
  bool clear = false;
  Advanced slow;  ///< advance_slow's result
  Advanced fast;  ///< the kernels' fast path (meaningful when clear)
};

/// Runs both paths from energy `e` under converter output `delivered`
/// and load `load_w` (charged only while usable, as the kernels do).
Probe probe(const TestInterval& ti, double tau, double e_use, double e_max, double e,
            double delivered, double load_w) {
  internal::EnvContext cx;
  cx.t = ti.t.data();
  cx.tau = tau;
  cx.e_use = e_use;
  cx.e_max = e_max;
  Probe pr;
  pr.e = e;
  const bool usable = e >= e_use;
  pr.e_inf = 0.5 * (delivered - 0.0 - (usable ? load_w : 0.0)) * tau;
  pr.e_end = pr.e_inf + (e - pr.e_inf) * ti.dec;
  pr.clear = power::stays_clear(e, pr.e_end, pr.e_inf, e_use, ti.guard);
  Advanced& s = pr.slow;
  s.e = e;
  internal::advance_slow(cx, ti.iv, load_w, delivered, 0.0, ti.dec,
                         internal::SlowRefs{s.e, s.served, s.brown_t, s.brown_steps, s.flips,
                                            s.slow});
  Advanced& f = pr.fast;
  f.e = std::clamp(pr.e_end, 0.0, e_max);
  if (usable) {
    f.served = load_w * ti.span;
  } else {
    f.brown_steps = ti.iv.b - ti.iv.a;
    f.brown_t = ti.span;
  }
  return pr;
}

void expect_fast_path_exact(const Probe& pr) {
  EXPECT_EQ(pr.slow.flips, 0u) << "cleared interval flipped: e=" << pr.e
                               << " e_inf=" << pr.e_inf << " e_end=" << pr.e_end;
  EXPECT_EQ(pr.slow.e, pr.fast.e);
  EXPECT_EQ(pr.slow.served, pr.fast.served);
  EXPECT_EQ(pr.slow.brown_t, pr.fast.brown_t);
  EXPECT_EQ(pr.slow.brown_steps, pr.fast.brown_steps);
}

TEST(FleetSoaCrossing, SeededSweepNeverClearsAFlip) {
  // Random (e, e_inf, decay) triples, concentrated within a few decades
  // of the guard band on both sides of the gate and both drift
  // directions, over 1-8 step intervals anywhere in a week-long trace
  // (large t stresses the time rounding of advance_slow's crossing
  // test). Whenever the endpoint test clears an interval, advance_slow
  // must find no flip and reproduce the fast path bit for bit.
  std::mt19937_64 rng(20260412);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const auto log_uniform = [&](double lo, double hi) {
    return std::exp(std::log(lo) + unit(rng) * (std::log(hi) - std::log(lo)));
  };
  int cleared = 0, cleared_near_band = 0, flipped = 0, probes = 0;
  for (int k = 0; k < 200000; ++k) {
    const double tau = log_uniform(10.0, 1e8);
    const double e_use = log_uniform(1e-6, 10.0);
    const double e_max = e_use * log_uniform(1.5, 100.0);
    std::vector<double> t{unit(rng) * 6.048e5};
    const int steps = 1 + static_cast<int>(rng() % 8);
    for (int i = 0; i < steps; ++i) t.push_back(t.back() + tau * log_uniform(1e-7, 0.5));
    if (!(t.back() > t.front())) continue;
    const TestInterval ti = make_interval(t, tau);

    // Side of the gate, asymptote across it (a crossing is possible) or
    // on the same side, and a target endpoint offset from the gate in
    // units of the band — including the wrong side (a real crossing).
    const double side = unit(rng) < 0.5 ? 1.0 : -1.0;
    const double gap = e_use * log_uniform(1e-12, 1e3);
    const double e_inf_target = unit(rng) < 0.8 ? e_use - side * gap : e_use + side * gap;
    const double band = ti.guard * (e_use + std::fabs(e_use - e_inf_target));
    double offset = side * band * log_uniform(1e-3, 1e5);
    if (unit(rng) < 0.25) offset = -offset;
    if (unit(rng) < 0.2) offset = side * e_use * log_uniform(1e-6, 1.0);
    const double e = e_inf_target + (e_use + offset - e_inf_target) / ti.dec;
    if (!(e >= 0.0 && e <= e_max)) continue;

    const double load_w = unit(rng) < 0.5 ? 0.0 : e_use / tau * log_uniform(1e-3, 1e3);
    const double delivered = 2.0 * e_inf_target / tau + (e >= e_use ? load_w : 0.0);
    const Probe pr = probe(ti, tau, e_use, e_max, e, delivered, load_w);
    ++probes;
    if (pr.slow.flips != 0) ++flipped;
    if (!pr.clear) continue;
    ++cleared;
    if (std::fabs(pr.e_end - e_use) < 100.0 * band) ++cleared_near_band;
    expect_fast_path_exact(pr);
    if (HasFailure()) return;
  }
  // The sweep must actually probe the edge it guards.
  EXPECT_GT(probes, 100000);
  EXPECT_GT(cleared_near_band, 10000);
  EXPECT_GT(flipped, 10000);
  EXPECT_GT(cleared, flipped / 2);
}

/// The paper node's store: 0.4 F, 5 MOhm, usable from 1.8 V, over a
/// 4-step minute-grid interval.
struct GateCase {
  double tau = 0.4 * 5e6;
  double e_use = 0.5 * 0.4 * 1.8 * 1.8;
  double e_max = 0.5 * 0.4 * 5.0 * 5.0;
  double load_w = 50e-6;
  TestInterval ti = make_interval({3600.0, 3660.0, 3720.0, 3780.0, 3840.0}, 0.4 * 5e6);
};

TEST(FleetSoaCrossing, StoreAtTheGateTakesTheSlowPath) {
  // e == e_use exactly: advance_slow counts a flip at t = 0 and splits,
  // so the test must never clear it, whichever way the store drifts.
  const GateCase g;
  for (const double delivered : {0.0, 1e-3}) {
    const Probe pr = probe(g.ti, g.tau, g.e_use, g.e_max, g.e_use, delivered, g.load_w);
    EXPECT_FALSE(pr.clear) << "delivered=" << delivered;
    EXPECT_EQ(pr.slow.flips, 1u);
  }
}

TEST(FleetSoaCrossing, GuardBandEdges) {
  // Endpoints just inside the band go to advance_slow (no flip there:
  // the band only costs work); just outside, they are cleared and the
  // fast path is exact. Both drift directions.
  const GateCase g;
  for (const double side : {1.0, -1.0}) {
    // Drain from above (no converter output) or charge from below.
    const double delivered = side > 0.0 ? 0.0 : 20e-6;
    const double e_inf = 0.5 * (delivered - (side > 0.0 ? g.load_w : 0.0)) * g.tau;
    const double band = g.ti.guard * (g.e_use + std::fabs(g.e_use - e_inf));
    for (const double k : {0.5, 2.0}) {
      const double e = e_inf + (g.e_use + side * k * band - e_inf) / g.ti.dec;
      const Probe pr = probe(g.ti, g.tau, g.e_use, g.e_max, e, delivered, g.load_w);
      ASSERT_EQ(pr.e_inf, e_inf);
      ASSERT_GT(side * (pr.e_end - g.e_use), 0.0) << "the endpoint must not cross";
      EXPECT_EQ(pr.clear, k > 1.0) << "side=" << side << " k=" << k;
      EXPECT_EQ(pr.slow.flips, 0u);
      if (pr.clear) expect_fast_path_exact(pr);
    }
  }
}

TEST(FleetSoaCrossing, AsymptoteExactlyAtTheGate) {
  // e_inf == e_use: the store approaches the gate without ever reaching
  // it. tau = 2^21 s and e_use = 0.625 J make 0.5 * net * tau exact.
  const double tau = 2097152.0;
  const double e_use = 0.625;
  const TestInterval ti = make_interval({0.0, 30.0, 60.0}, tau);
  const double delivered = e_use * 0x1p-20;
  for (const double e : {0.7, 0.625 + 1e-9, 0.3}) {
    const Probe pr = probe(ti, tau, e_use, 5.0, e, delivered, 0.0);
    ASSERT_EQ(pr.e_inf, e_use);
    EXPECT_TRUE(pr.clear) << "e=" << e;
    expect_fast_path_exact(pr);
  }
}

TEST(FleetSoaCrossing, DrainCrossingInTheLastStep) {
  // The store reaches the gate at t0 + 210 s of a 240 s, 4-step
  // interval. advance_slow snaps the flip to the interval's end, so its
  // energy and served bytes equal the fast path's — only the flip
  // (a report event) tells them apart. The test must not clear it.
  const GateCase g;
  const double e_inf = -0.5 * g.load_w * g.tau;
  const double e = e_inf + (g.e_use - e_inf) * std::exp(2.0 * 210.0 / g.tau);
  const Probe pr = probe(g.ti, g.tau, g.e_use, g.e_max, e, 0.0, g.load_w);
  EXPECT_FALSE(pr.clear);
  EXPECT_EQ(pr.slow.flips, 1u);
  EXPECT_EQ(pr.slow.brown_steps, 0u);
  EXPECT_LT(pr.slow.e, g.e_use);
}

}  // namespace
}  // namespace focv::fleet
