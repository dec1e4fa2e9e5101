#include "node/sizing.hpp"

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "core/focv_system.hpp"
#include "env/profiles.hpp"
#include "obs/obs.hpp"
#include "pv/cell_library.hpp"

namespace focv::node {
namespace {

SizingQuery office_query(const env::LightTrace& trace, double report_period) {
  SizingQuery q;
  q.use_cell(pv::sanyo_am1815());
  q.use_scenario(trace);
  q.use_controller(core::make_paper_controller());
  q.load.report_period = report_period;
  return q;
}

TEST(Sizing, LightLoadNeedsSmallCell) {
  const env::LightTrace day = env::office_desk_mixed();
  const SizingResult r =
      size_for_energy_neutrality(office_query(day, 600.0));  // report every 10 min
  ASSERT_TRUE(r.feasible);
  EXPECT_LT(r.area_factor, 2.0);  // one AM-1815 class cell suffices
  EXPECT_GE(r.daily_harvest_j, r.daily_load_j);
  EXPECT_GT(r.storage_j, 0.0);   // must ride through the night
  EXPECT_GT(r.storage_f_at_3v, 0.0);
}

TEST(Sizing, HeavierLoadNeedsLargerCell) {
  const env::LightTrace day = env::office_desk_mixed();
  const SizingResult light = size_for_energy_neutrality(office_query(day, 600.0));
  const SizingResult heavy = size_for_energy_neutrality(office_query(day, 60.0));
  ASSERT_TRUE(light.feasible);
  ASSERT_TRUE(heavy.feasible);
  EXPECT_GT(heavy.area_factor, light.area_factor);
  EXPECT_GT(heavy.storage_j, light.storage_j);
}

TEST(Sizing, InfeasibleWhenScenarioIsDark) {
  const env::LightTrace dark = env::constant_light(0.0, 0.0, 86400.0, 60.0);
  const SizingResult r =
      size_for_energy_neutrality(office_query(dark, 600.0), 0.1, 4.0);
  EXPECT_FALSE(r.feasible);
}

TEST(Sizing, QueryIsReentrant) {
  // Two runs of the same const query agree bit-for-bit: the controller
  // prototype is cloned per run, never mutated in place.
  const env::LightTrace day = env::office_desk_mixed();
  const SizingQuery q = office_query(day, 600.0);
  const SizingResult a = size_for_energy_neutrality(q);
  const SizingResult b = size_for_energy_neutrality(q);
  EXPECT_DOUBLE_EQ(a.area_factor, b.area_factor);
  EXPECT_DOUBLE_EQ(a.storage_j, b.storage_j);
}

TEST(Sizing, RejectsMissingInputs) {
  SizingQuery q;
  EXPECT_THROW((void)size_for_energy_neutrality(q), PreconditionError);
}

// ---------------------------------------------------------------- golden grid
//
// Every registry controller in three scenarios at a 120 s report period,
// pinned as hex floats. The rows were printed by the sizing code as it
// stood before its probes shared work (12 full probes, each re-solving
// every cell current and Voc), so they hold the shared-work sizing to
// the plain bisection bit for bit, through both overloads.

struct GoldenRow {
  const char* scenario;
  const char* spec;
  const char* area_factor;
  const char* daily_harvest_j;
  const char* daily_load_j;
  const char* storage_j;
  const char* storage_f_at_3v;
  bool feasible;
};

constexpr GoldenRow kGolden[] = {
    {"office_desk_mixed", "focv", "0x1.6961ddacccd22p-3", "0x1.9dc47227662f3p-1", "0x1.9172ef0ae84fep-1", "0x1.44214b692c2f7p-2", "0x1.201d985d7c9bfp-4", true},
    {"office_desk_mixed", "pando", "0x1p+6", "0x0p+0", "0x1.9172ef0ae84fep-1", "0x0p+0", "0x0p+0", false},
    {"office_desk_mixed", "inccond", "0x1p+6", "0x0p+0", "0x1.9172ef0ae84fep-1", "0x0p+0", "0x0p+0", false},
    {"office_desk_mixed", "graddesc", "0x1.a06412de7fc9cp+0", "0x1.1b994f0737dc7p+3", "0x1.9172ef0ae84fep-1", "0x1.44161e4f76129p-2", "0x1.2013a92a30108p-4", true},
    {"office_desk_mixed", "pilot", "0x1.f6b019f7203a3p-1", "0x1.bdfb54b14e257p-1", "0x1.9172ef0ae84fep-1", "0x1.7b218585802ddp-2", "0x1.51015a3dc7453p-4", true},
    {"office_desk_mixed", "direct", "0x1p+6", "0x0p+0", "0x1.9172ef0ae84fep-1", "0x0p+0", "0x0p+0", false},
    {"office_desk_mixed", "fixed", "0x1.af382e4b136a6p-3", "0x1.9a292018104eep-1", "0x1.9172ef0ae84fep-1", "0x1.4419379556248p-2", "0x1.20166a4bdacb2p-4", true},
    {"office_desk_mixed", "photo", "0x1p+6", "0x0p+0", "0x1.9172ef0ae84fep-1", "0x0p+0", "0x0p+0", false},
    {"office_desk_mixed", "periodic", "0x1p+6", "0x0p+0", "0x1.9172ef0ae84fep-1", "0x0p+0", "0x0p+0", false},
    {"semi_mobile_day", "focv", "0x1.b9d1ca10bba05p-4", "0x1.9760dea1dd878p-1", "0x1.9172ef0ae84fep-1", "0x1.4b2328fff22e4p-1", "0x1.26582471bad3cp-3", true},
    {"semi_mobile_day", "pando", "0x1.e38ca57c0d6c9p-2", "0x1.a1b5c75b9322ap-1", "0x1.9172ef0ae84fep-1", "0x1.0021ff2e49df6p-1", "0x1.c758e21966e27p-4", true},
    {"semi_mobile_day", "inccond", "0x1.e38ca57c0d6c9p-2", "0x1.a89f825f76b46p-1", "0x1.9172ef0ae84fep-1", "0x1.0021ff2e49df6p-1", "0x1.c758e21966e27p-4", true},
    {"semi_mobile_day", "graddesc", "0x1.c66a07184b7c5p-1", "0x1.cbb05543bdc3fp+2", "0x1.9172ef0ae84fep-1", "0x1.873669ca34b9ap-1", "0x1.5bbe96eca0a5p-3", true},
    {"semi_mobile_day", "pilot", "0x1.cbbedeb068024p-2", "0x1.9946273fcb431p-1", "0x1.9172ef0ae84fep-1", "0x1.7724e4694b95p+1", "0x1.4d76205d98847p-1", true},
    {"semi_mobile_day", "direct", "0x1p+6", "0x0p+0", "0x1.9172ef0ae84fep-1", "0x0p+0", "0x0p+0", false},
    {"semi_mobile_day", "fixed", "0x1.46ada5d0036c6p-3", "0x1.9944a92512f65p-1", "0x1.9172ef0ae84fep-1", "0x1.3b5f22f980f94p-1", "0x1.185490ddc7fap-3", true},
    {"semi_mobile_day", "photo", "0x1.610ca4961de38p-1", "0x1.a04c9407841e1p-1", "0x1.9172ef0ae84fep-1", "0x1.0021ff2e49df6p-1", "0x1.c758e21966e27p-4", true},
    {"semi_mobile_day", "periodic", "0x1.b00b6b2787c71p-1", "0x1.b16ab8e1380e3p-1", "0x1.9172ef0ae84fep-1", "0x1.0c25bec6b426cp-1", "0x1.dcb4e1614044ep-4", true},
    {"outdoor_day", "focv", "0x1.999999999999ap-4", "0x1.922611fa9b035p+4", "0x1.9172ef0ae84fep-1", "0x1.20025b4bd4c89p-2", "0x1.0002184367cecp-4", true},
    {"outdoor_day", "pando", "0x1.274e97791388ap-3", "0x1.f62ce4c46e71ap-1", "0x1.9172ef0ae84fep-1", "0x1.94f227f86d0aep+2", "0x1.67f3b1c060ed4p+0", true},
    {"outdoor_day", "inccond", "0x1.274e97791388ap-3", "0x1.f3319f4a22fd6p-1", "0x1.9172ef0ae84fep-1", "0x1.9555d3fc9e4b6p+2", "0x1.684c4aa7a9269p+0", true},
    {"outdoor_day", "graddesc", "0x1.e2a03a069aebcp-4", "0x1.a31a557a1ffe5p+2", "0x1.9172ef0ae84fep-1", "0x1.85ab925ad6de9p-2", "0x1.5a5f9e89a28cfp-4", true},
    {"outdoor_day", "pilot", "0x1.999999999999ap-4", "0x1.cbb937c6021fbp+3", "0x1.9172ef0ae84fep-1", "0x1.41753f0ea0096p+0", "0x1.1dbd8d62555dbp-2", true},
    {"outdoor_day", "direct", "0x1p+6", "0x0p+0", "0x1.9172ef0ae84fep-1", "0x0p+0", "0x0p+0", false},
    {"outdoor_day", "fixed", "0x1.999999999999ap-4", "0x1.900a854e89e3dp+4", "0x1.9172ef0ae84fep-1", "0x1.308a1f519dbp-2", "0x1.0eb3aa0fa89c7p-4", true},
    {"outdoor_day", "photo", "0x1.cb4e6ce93b8fep-3", "0x1.9dd1537687af1p-1", "0x1.9172ef0ae84fep-1", "0x1.1178dbb221b6p+3", "0x1.e62c313cadb55p+0", true},
    {"outdoor_day", "periodic", "0x1.23e1eaaeca052p-2", "0x1.2ac4939610e01p+0", "0x1.9172ef0ae84fep-1", "0x1.194c0d6a5c142p+3", "0x1.f4156d2edc959p+0", true},
};

std::string hex(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", x);
  return buf;
}

/// The six fields of a result as one comparable line.
std::string fingerprint(const SizingResult& r) {
  return hex(r.area_factor) + " " + hex(r.daily_harvest_j) + " " + hex(r.daily_load_j) + " " +
         hex(r.storage_j) + " " + hex(r.storage_f_at_3v) + (r.feasible ? " feasible" : " infeasible");
}

std::string fingerprint(const GoldenRow& g) {
  return std::string(g.area_factor) + " " + g.daily_harvest_j + " " + g.daily_load_j + " " +
         g.storage_j + " " + g.storage_f_at_3v + (g.feasible ? " feasible" : " infeasible");
}

SizingQuery spec_query(const env::LightTrace& trace, const std::string& spec) {
  SizingQuery q;
  q.use_cell(pv::sanyo_am1815());
  q.use_scenario(trace);
  q.use_controller(spec);
  q.load.report_period = 120.0;
  return q;
}

void expect_golden(const std::string& scenario, const env::LightTrace& trace) {
  core::register_paper_controller();
  const SizingContext context(trace, pv::sanyo_am1815());
  int rows = 0;
  for (const GoldenRow& g : kGolden) {
    if (scenario != g.scenario) continue;
    ++rows;
    const SizingQuery q = spec_query(trace, g.spec);
    EXPECT_EQ(fingerprint(size_for_energy_neutrality(q)), fingerprint(g))
        << scenario << " " << g.spec << " (no context)";
    EXPECT_EQ(fingerprint(size_for_energy_neutrality(q, context)), fingerprint(g))
        << scenario << " " << g.spec << " (with context)";
  }
  EXPECT_EQ(rows, 9) << scenario;
}

TEST(SizingGolden, OfficeDeskMixed) { expect_golden("office_desk_mixed", env::office_desk_mixed()); }
TEST(SizingGolden, SemiMobileDay) { expect_golden("semi_mobile_day", env::semi_mobile_day()); }
TEST(SizingGolden, OutdoorDay) { expect_golden("outdoor_day", env::outdoor_day()); }

TEST(Sizing, WorkCountersPinProbeReuse) {
  // The office S&H FOCV sizing: 11 probes (max, min, 9 midpoints; the
  // answer's own probe is reused, not re-run), one reference-cell solve
  // per active step for the whole call (the controller's voltage does
  // not depend on the area), and each probe's own Voc per lux-grid
  // slot. Plain bisection did 12 probes and 12 x 38,700 cell solves.
  const env::LightTrace day = env::office_desk_mixed();
  const SizingQuery q = spec_query(day, "focv");
  const auto counter = [](const char* name) { return obs::metrics().counter_value(name); };

  const SizingResult quiet = size_for_energy_neutrality(q);
  SizingResult traced;
  double probes = 0.0, cell = 0.0, voc = 0.0;
  {
    const obs::ScopedEnable on;
    const double probes0 = counter("node.sizing.probes");
    const double cell0 = counter("node.sizing.cell_solves");
    const double voc0 = counter("node.sizing.voc_solves");
    traced = size_for_energy_neutrality(q);
    probes = counter("node.sizing.probes") - probes0;
    cell = counter("node.sizing.cell_solves") - cell0;
    voc = counter("node.sizing.voc_solves") - voc0;
  }
  EXPECT_EQ(probes, 11.0);
  EXPECT_EQ(cell, 38700.0);
  EXPECT_EQ(voc, 11.0 * 196.0);
  // Observe-only: telemetry changes no byte of the answer.
  EXPECT_EQ(fingerprint(traced), fingerprint(quiet));
}

}  // namespace
}  // namespace focv::node
