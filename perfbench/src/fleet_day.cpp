// fleet_day: the ROADMAP's fleet rung at a size that runs in seconds.
//
// 250k nodes x 24 h on the SoA engine (event stepper, chunk 4096, float
// tables, default kernel) with the bench/fleet_scale roster, run with
// jobs=1 and jobs=4 in alternation. The seed only picks the fleet's
// root_seed. Batch users also run the paper's node (office desk, S&H
// FOCV) for 24 h and size it without a server; those one-shot calls give
// this workload's sim/sizing latencies.
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/focv_system.hpp"
#include "env/profiles.hpp"
#include "fleet/fleet.hpp"
#include "fleet_pipeline.hpp"
#include "mppt/registry.hpp"
#include "node/curve_cache.hpp"
#include "node/sizing.hpp"
#include "obs/obs.hpp"
#include "pv/cell_library.hpp"
#include "sched/prepared_trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fl = focv::fleet;

constexpr int kJobs = 4;
constexpr std::size_t kOneShotNodes = 256;

struct Environs {
  std::shared_ptr<const focv::env::LightTrace> office, corridor, outdoor;
};

Environs build_environs() {
  Environs env;
  env.office = std::make_shared<const focv::env::LightTrace>(focv::env::office_desk_mixed());
  env.corridor = std::make_shared<const focv::env::LightTrace>(env.office->scaled(0.65, 0.1));
  env.outdoor = std::make_shared<const focv::env::LightTrace>(focv::env::outdoor_day({}));
  return env;
}

/// bench/fleet_scale's roster: every axis batches on the SoA engine.
fl::FleetSpec make_spec(std::size_t nodes, const Environs& env, std::uint64_t root_seed) {
  fl::FleetSpec spec;
  spec.node_count = nodes;
  spec.root_seed = root_seed;
  spec.use_cell(focv::pv::sanyo_am1815());
  spec.add_environment("office_desk", env.office, 0.55);
  spec.add_environment("corridor", env.corridor, 0.25);
  spec.add_environment("outdoor", env.outdoor, 0.20);
  spec.add_policy("focv", 0.70);
  spec.add_policy("fixed", 0.15);
  spec.add_policy("pilot", 0.15);
  spec.base.storage.initial_voltage = 2.5;
  spec.base.load.report_period = 120.0;
  spec.base.stepper = focv::node::Stepper::kEvent;
  spec.chunk_size = 4096;
  spec.engine = fl::FleetEngine::kSoa;
  spec.table_mode = fl::TableMode::kFloat;
  return spec;
}

struct FleetRun {
  double wall_s = 0.0;
  std::string json;
  std::uint64_t nodes_failed = 0;
  std::vector<double> chunk_done_s;  ///< completion times from submission
};

/// One untraced run_fleet call plus its JSON export, as a batch user
/// would make it; chunk completions are timestamped from submission.
FleetRun timed_run(const fl::FleetSpec& spec, int jobs) {
  FleetRun run;
  run.chunk_done_s.reserve((spec.node_count + spec.chunk_size - 1) / spec.chunk_size);
  fl::FleetOptions options;
  options.jobs = jobs;
  options.analyze_load = false;  // as fleet_scale at >= 100k nodes
  const Clock::time_point start = Clock::now();
  options.on_progress = [&](const fl::FleetProgress&) {
    run.chunk_done_s.push_back(seconds_since(start));
  };
  const fl::FleetReport report = fl::run_fleet(spec, options);
  run.json = report.to_json(false);
  run.wall_s = seconds_since(start);
  run.nodes_failed = report.nodes_failed;
  if (report.jobs_used != jobs) run.nodes_failed = spec.node_count;  // silent fallback
  return run;
}

/// One-shot (no server) calls on the paper's node as the fleet draws it:
/// office-desk nodes with the S&H FOCV policy, in fleet order, run 24 h
/// and sized. Sim and sizing cost differ by orders of magnitude across
/// environments and controllers, so one cell keeps these figures a
/// function of the code rather than of the seed's mix. Calls are made in
/// slices between fleet runs (round robin over the nodes), so they see
/// the same host conditions as the fleet figures.
class OneShot {
 public:
  OneShot(const fl::FleetSpec& spec, std::size_t nodes)
      : spec_(spec),
        env_(spec.environments[kEnv]),
        label_(fl::effective_policies(spec)[kPolicy].label),
        prepared_(*env_.trace, *spec.cell, segmentation(spec)),
        context_(*env_.trace, *spec.cell),
        cache_(*spec.cell, spec.base.temperature_k,
               focv::node::CurveCache::Options{spec.base.power_model,
                                               spec.base.surrogate_points}) {
    for (std::size_t i = 0; i < spec.node_count && draws_.size() < nodes; ++i) {
      const fl::NodeDraw d = fl::draw_node(spec, i);
      if (d.env_index == kEnv && d.policy_index == kPolicy) draws_.push_back(d);
    }
    if (draws_.empty()) throw std::runtime_error("no office-desk S&H FOCV node in the fleet");
    // One untimed pass warms the curve cache over every illuminance these
    // nodes reach, as a resident caller would, so timed calls measure the
    // run rather than curve solves; its results are the reference.
    for (const fl::NodeDraw& d : draws_) {
      const focv::node::NodeConfig config = fl::materialize_node(spec, d);
      first_.push_back(
          summary(focv::node::simulate_node(*env_.trace, config, &cache_, &prepared_)));
    }
  }

  /// The next `sims` node runs and `sizings` sizings, round robin.
  void step(std::size_t sims, std::size_t sizings) {
    for (std::size_t n = 0; n < sims; ++n, next_sim_ = (next_sim_ + 1) % draws_.size()) {
      Clock::time_point t = Clock::now();
      const std::string canonical = focv::mppt::Registry::instance().canonical(label_);
      const auto controller = focv::mppt::Registry::instance().make(canonical);
      spec_us_.push_back(seconds_since(t) * 1e6);

      const focv::node::NodeConfig config = fl::materialize_node(spec_, draws_[next_sim_]);
      t = Clock::now();
      const focv::node::NodeReport rep =
          focv::node::simulate_node(*env_.trace, config, &cache_, &prepared_);
      simulate_ms_.push_back(seconds_since(t) * 1e3);
      repeatable_ = repeatable_ && summary(rep) == first_[next_sim_];
      ++items_;
    }
    for (std::size_t n = 0; n < sizings; ++n, next_size_ = (next_size_ + 1) % draws_.size()) {
      focv::node::SizingQuery query;
      query.cell_model = spec_.cell;
      query.scenario_trace = env_.trace;
      query.use_controller(label_);
      query.load = spec_.base.load;
      query.load.report_period = draws_[next_size_].report_period;
      query.temperature_k = spec_.base.temperature_k;
      const Clock::time_point t = Clock::now();
      const focv::node::SizingResult s = focv::node::size_for_energy_neutrality(query, context_);
      sizing_ms_.push_back(seconds_since(t) * 1e3);
      sized_ok_ = sized_ok_ && std::isfinite(s.area_factor) && s.area_factor > 0.0;
      ++items_;
    }
  }

  [[nodiscard]] double simulate_ms() const { return median(simulate_ms_); }
  [[nodiscard]] double sizing_ms() const { return median(sizing_ms_); }
  [[nodiscard]] double spec_us() const { return median(spec_us_); }
  [[nodiscard]] std::size_t sims() const { return simulate_ms_.size(); }
  [[nodiscard]] std::size_t sizings() const { return sizing_ms_.size(); }
  [[nodiscard]] std::uint64_t items() const { return items_; }
  [[nodiscard]] bool repeatable() const { return repeatable_; }
  [[nodiscard]] bool sized_ok() const { return sized_ok_; }
  /// Every node's 24 h result.
  [[nodiscard]] std::string digest_text() const {
    std::string text;
    for (const std::string& f : first_) text += f;
    return text;
  }

 private:
  static constexpr std::size_t kEnv = 0;     // office_desk
  static constexpr std::size_t kPolicy = 0;  // focv

  static std::string summary(const focv::node::NodeReport& r) {
    return fmt(r.harvested_energy) + " " + fmt(r.net_energy()) + " " + std::to_string(r.events) +
           "\n";
  }
  static focv::env::SegmentationOptions segmentation(const fl::FleetSpec& spec) {
    focv::env::SegmentationOptions seg;
    seg.ratio_band = spec.base.events.lux_ratio_band;
    seg.floor = focv::node::CurveCache::kDarkLux;
    return seg;
  }

  const fl::FleetSpec& spec_;
  const fl::EnvironmentAxis& env_;
  std::string label_;
  focv::sched::PreparedTrace prepared_;
  focv::node::SizingContext context_;
  focv::node::CurveCache cache_;
  std::vector<fl::NodeDraw> draws_;
  std::vector<std::string> first_;
  std::size_t next_sim_ = 0, next_size_ = 0;
  std::vector<double> simulate_ms_, sizing_ms_, spec_us_;
  std::uint64_t items_ = 0;
  bool repeatable_ = true;
  bool sized_ok_ = true;
};

std::uint64_t counter(const char* name) {
  return static_cast<std::uint64_t>(focv::obs::metrics().counter_value(name));
}

/// Wall after the (chunks - jobs)-th chunk completed: the part of the
/// run in which some workers had no chunk left to take.
double tail_seconds(const FleetRun& run, int jobs) {
  const std::size_t n = run.chunk_done_s.size();
  if (n <= static_cast<std::size_t>(jobs)) return run.wall_s;
  return run.wall_s - run.chunk_done_s[n - static_cast<std::size_t>(jobs) - 1];
}

std::size_t node_count(const Args& args) { return args.smoke ? 6000 : 250000; }

void untraced(const Args& args, Result& result) {
  std::vector<double> setup;
  Environs env;
  for (int i = 0; i < 7; ++i) {
    const Clock::time_point t = Clock::now();
    env = build_environs();
    setup.push_back(seconds_since(t));
  }
  const std::size_t nodes = node_count(args);
  const fl::FleetSpec spec = make_spec(nodes, env, focv::splitmix64(args.seed));

  const Clock::time_point start = Clock::now();
  OneShot one(spec, kOneShotNodes);

  // Chunk completion percentiles per jobs=4 run; the metrics are their
  // medians over runs, so one slow run does not set the tail.
  std::vector<double> serial_s, jobs4_s, chunk_p50_ms, chunk_p99_ms;
  std::size_t chunks = 0;
  std::string reference;
  std::uint64_t failed_nodes = 0;
  int pairs = 0;
  do {
    const FleetRun serial = timed_run(spec, 1);
    const FleetRun par = timed_run(spec, kJobs);
    if (reference.empty()) reference = serial.json;
    result.attempt(2 * nodes);
    failed_nodes += serial.nodes_failed + par.nodes_failed;
    result.check(serial.json == reference, "jobs=1 report repeats byte-for-byte", nodes);
    result.check(par.json == serial.json, "jobs=4 report equals jobs=1 byte-for-byte", nodes);
    serial_s.push_back(serial.wall_s);
    jobs4_s.push_back(par.wall_s);
    chunk_p50_ms.push_back(quantile(par.chunk_done_s, 0.50) * 1e3);
    chunk_p99_ms.push_back(quantile(par.chunk_done_s, 0.99) * 1e3);
    chunks += par.chunk_done_s.size();
    one.step(kOneShotNodes / 4, 2);
    ++pairs;
  } while (seconds_since(start) < args.seconds);
  result.fail(failed_nodes);
  result.attempt(one.items());
  result.check(one.repeatable(), "one-shot 24 h node runs repeat exactly", one.items());
  result.check(one.sized_ok(), "one-shot sizings give a finite cell area", one.items());

  const double serial_rate = static_cast<double>(nodes) / median(serial_s);
  const double jobs4_rate = static_cast<double>(nodes) / median(jobs4_s);
  result.metric("setup_s", median(setup));
  result.metric("peak_rss_mib", peak_rss_mib());
  result.metric("p50_ms", median(chunk_p50_ms));
  result.metric("p99_ms", median(chunk_p99_ms));
  result.metric("max_rate_per_s", jobs4_rate);
  result.metric("serial_rate_per_s", serial_rate);
  result.metric("sim_p50_ms", one.simulate_ms());
  result.metric("sizing_p50_ms", one.sizing_ms());
  result.note("nodes_per_s_serial = " + fmt(serial_rate) + " node-days/s (" +
              std::to_string(pairs) + " runs of " + std::to_string(nodes) + " nodes)");
  result.note("nodes_per_s_jobs4 = " + fmt(jobs4_rate) + " node-days/s (" +
              std::to_string(pairs) + " runs, " + std::to_string(chunks) +
              " chunk completions)");
  result.note("one-shot: " + std::to_string(one.sims()) + " node runs, " +
              std::to_string(one.sizings()) + " sizings");
  result.note("digest = " + hex(fnv1a(one.digest_text(), fnv1a(reference))));
}

void traced(const Args& args, Result& result, SpanLog& spans) {
  const int root = spans.begin("fleet_day");
  Environs env;
  const Clock::time_point built = Clock::now();
  env = build_environs();
  spans.add("env.trace_build", built, Clock::now(), root);
  result.metric("env.trace_build_s", seconds_since(built));
  const std::size_t nodes = node_count(args);
  const fl::FleetSpec spec = make_spec(nodes, env, focv::splitmix64(args.seed));

  // Alternate untraced run_fleet calls (telemetry off) with traced
  // pipeline passes (telemetry on, for the program's own counters).
  std::vector<double> untraced_s, traced_s;
  std::map<std::string, double> self;
  std::string reference;
  std::vector<std::uint64_t> slow, flips;
  TracedFleet pass;
  constexpr int kPasses = 2;
  for (int i = 0; i < kPasses; ++i) {
    const FleetRun plain = timed_run(spec, 1);
    if (reference.empty()) reference = plain.json;
    result.attempt(2 * nodes);
    result.fail(plain.nodes_failed);
    result.check(plain.json == reference, "jobs=1 report repeats byte-for-byte", nodes);
    untraced_s.push_back(plain.wall_s);

    focv::obs::reset_all();
    focv::obs::set_enabled(true);
    pass = traced_fleet(spec, /*analyze_load=*/false, spans, root);
    focv::obs::set_enabled(false);
    result.check(pass.json == reference,
                 "traced pipeline report equals run_fleet's byte-for-byte", nodes);
    traced_s.push_back(spans.duration(pass.root));
    for (const auto& [name, s] : spans.self_seconds(pass.root)) self[name] += s / kPasses;
    slow.push_back(counter("fleet.soa.slow_advances"));
    flips.push_back(counter("fleet.soa.store_flips"));
  }
  result.check(slow.front() == slow.back() && flips.front() == flips.back(),
               "SoA work counters repeat exactly");

  const FleetRun par = timed_run(spec, kJobs);
  result.attempt(nodes);
  result.check(par.json == reference, "jobs=4 report equals jobs=1 byte-for-byte", nodes);

  OneShot one(spec, kOneShotNodes);
  one.step(kOneShotNodes, 8);
  result.attempt(one.items());
  result.check(one.repeatable(), "one-shot 24 h node runs repeat exactly", one.items());
  result.check(one.sized_ok(), "one-shot sizings give a finite cell area", one.items());
  spans.end(root);

  const double untraced_wall = median(untraced_s);
  double layers = 0.0;
  for (const auto& [name, s] : self) {
    if (name != span::kRun) layers += s;
  }
  const double residual = (untraced_wall - layers) / untraced_wall;
  const double fixed = self[span::kPrepare] + self[span::kWarm] + self[span::kPlan];
  result.metric("sched.prepare_s", self[span::kPrepare]);
  result.metric("node.curve_warm_s", self[span::kWarm]);
  result.metric("node.curve_model_evals", static_cast<double>(pass.model_evals));
  result.metric("fleet.plan_s", self[span::kPlan]);
  result.metric("sched.batch_intervals", static_cast<double>(pass.batch_intervals));
  result.metric("fleet.request_fixed_share", fixed / median(traced_s));
  result.metric("fleet.draw_ns_per_node", self[span::kDraw] / static_cast<double>(nodes) * 1e9);
  result.metric("fleet.kernel_s", self[span::kKernel]);
  result.metric("fleet.kernel_ns_per_interval",
                self[span::kKernel] / static_cast<double>(pass.steps) * 1e9);
  result.metric("fleet.intervals", static_cast<double>(pass.steps));
  result.metric("fleet.soa.slow_advances", static_cast<double>(slow.back()));
  result.metric("fleet.soa.store_flips", static_cast<double>(flips.back()));
  result.metric("fleet.soa.slow_useful_ratio",
                slow.back() > 0 ? static_cast<double>(flips.back()) /
                                      static_cast<double>(slow.back())
                                : 0.0);
  result.metric("fleet.report_s", self[span::kReport]);
  result.metric("fleet.json_s", self[span::kJson]);
  result.metric("fleet.events", static_cast<double>(pass.events));
  result.metric("runtime.pool.efficiency_jobs4", untraced_wall / (kJobs * par.wall_s));
  result.metric("runtime.pool.tail_s", tail_seconds(par, kJobs));
  result.metric("node.simulate_ms", one.simulate_ms());
  result.metric("node.sizing_ms", one.sizing_ms());
  result.metric("mppt.spec_us", one.spec_us());
  result.metric("trace_overhead", median(traced_s) / untraced_wall);
  result.metric("trace.residual_share", residual);

  result.note("layer self times of the traced serial pass (mean of " +
              std::to_string(kPasses) + "), untraced wall " + fmt(untraced_wall) + " s:");
  for (const auto& [name, s] : self) result.note("  " + name + " " + fmt(s) + " s");
  constexpr double kResidualBound = 0.2;
  result.note("residual (untraced wall - sum of layer self times) / untraced wall = " +
              fmt(residual) + ", stated bound +-" + fmt(kResidualBound));
  result.check(std::fabs(residual) <= kResidualBound,
               "layer self times add up to the untraced wall within the stated residual");
  result.note("digest = " + hex(fnv1a(one.digest_text(), fnv1a(reference))));
}

}  // namespace

void run_fleet_day(const Args& args, Result& result, SpanLog& spans) {
  focv::core::register_paper_controller();
  if (args.trace) {
    traced(args, result, spans);
  } else {
    untraced(args, result);
  }
}

}  // namespace perfbench
