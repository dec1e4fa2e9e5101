#include "fleet_pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "fleet/detail.hpp"
#include "fleet/soa.hpp"
#include "node/curve_cache.hpp"
#include "sched/prepared_trace.hpp"

namespace perfbench {

namespace fl = focv::fleet;

TracedFleet traced_fleet(const fl::FleetSpec& spec, bool analyze_load, SpanLog& log, int parent,
                         std::uint64_t request) {
  if (spec.engine != fl::FleetEngine::kSoa ||
      spec.base.power_model != focv::node::PowerModel::kSurrogate) {
    throw std::invalid_argument("traced_fleet follows run_fleet's SoA surrogate path only");
  }
  TracedFleet out;
  const SpanLog::Scope run(log, span::kRun, parent, request);
  out.root = run.id();
  (void)fl::draw_node(spec, 0);  // validates the spec exactly as run_fleet does

  const std::vector<fl::PolicyAxis> policies = fl::effective_policies(spec);
  const std::size_t chunks = (spec.node_count + spec.chunk_size - 1) / spec.chunk_size;

  std::vector<std::optional<focv::sched::PreparedTrace>> prepared(spec.environments.size());
  {
    const SpanLog::Scope s(log, span::kPrepare, run.id(), request);
    focv::env::SegmentationOptions seg;
    seg.ratio_band = spec.base.events.lux_ratio_band;
    seg.floor = focv::node::CurveCache::kDarkLux;
    for (std::size_t e = 0; e < spec.environments.size(); ++e) {
      prepared[e].emplace(*spec.environments[e].trace, *spec.cell, seg);
    }
  }

  focv::node::CurveCache warm_cache(*spec.cell, spec.base.temperature_k,
                                    focv::node::CurveCache::Options{spec.base.power_model,
                                                                    spec.base.surrogate_points});
  {
    const SpanLog::Scope s(log, span::kWarm, run.id(), request);
    const fl::HeterogeneitySpec& h = spec.heterogeneity;
    const double scale_lo =
        spec.base.lux_scale * h.attenuation_min * std::exp(-3.0 * h.cell_tolerance_sigma);
    const double scale_hi =
        spec.base.lux_scale * h.attenuation_max * std::exp(3.0 * h.cell_tolerance_sigma);
    for (std::size_t e = 0; e < spec.environments.size(); ++e) {
      double lo = 0.0;
      double hi = 0.0;
      for (const double v : prepared[e]->eq_lux()) {
        if (v < focv::node::CurveCache::kDarkLux) continue;
        if (hi == 0.0) lo = v;
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      if (hi > 0.0) warm_cache.warm_range(lo * scale_lo, hi * scale_hi);
    }
  }
  out.model_evals = warm_cache.model_evals();

  std::unique_ptr<const fl::soa::SoaPlan> plan;
  {
    const SpanLog::Scope s(log, span::kPlan, run.id(), request);
    plan = fl::soa::build_plan(spec, policies, prepared, warm_cache);
  }
  if (!plan) throw std::invalid_argument("traced_fleet: spec does not batch");
  for (const fl::soa::EnvPlan& e : plan->envs) out.batch_intervals += e.schedule.intervals.size();

  std::vector<fl::FleetReport> partials(chunks);
  for (fl::FleetReport& p : partials) p = fl::detail::make_skeleton(spec, policies);

  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t first = c * spec.chunk_size;
    const std::size_t last = std::min(spec.node_count, first + spec.chunk_size);
    const std::size_t n = last - first;

    std::vector<fl::NodeDraw> draws;
    {
      const SpanLog::Scope s(log, span::kDraw, run.id(), request);
      draws.reserve(n);
      for (std::size_t node = first; node < last; ++node) {
        draws.push_back(fl::detail::draw_node_prevalidated(spec, policies, node));
      }
    }

    std::vector<focv::node::NodeReport> reports(n);
    std::vector<std::uint32_t> members(n);
    for (std::size_t k = 0; k < n; ++k) {
      if (!plan->axes[draws[k].policy_index].batch) {
        throw std::invalid_argument("traced_fleet: a policy falls back to the per-node engine");
      }
      members[k] = static_cast<std::uint32_t>(k);
    }
    {
      const SpanLog::Scope s(log, span::kKernel, run.id(), request);
      fl::soa::run_batch(*plan, spec, draws, members, reports);
    }

    const SpanLog::Scope s(log, span::kReport, run.id(), request);
    for (std::size_t k = 0; k < n; ++k) {
      // Batched nodes never carry batteries, so the neutrality reference
      // is the supercap's initial voltage (as in run_fleet).
      const bool neutral = reports[k].final_store_voltage >= spec.base.storage.initial_voltage;
      partials[c].add_node(draws[k], reports[k], neutral, reports[k].brownout_time);
    }
  }

  fl::FleetReport result = fl::detail::make_skeleton(spec, policies);
  {
    const SpanLog::Scope s(log, span::kReport, run.id(), request);
    for (const fl::FleetReport& p : partials) result.merge(p);
  }
  if (analyze_load) {
    const SpanLog::Scope s(log, span::kLoad, run.id(), request);
    result.load = fl::analyze_load_concurrency(spec);
  }
  {
    const SpanLog::Scope s(log, span::kJson, run.id(), request);
    out.json = result.to_json(false);
  }
  out.nodes = spec.node_count;
  out.steps = result.steps;
  out.events = result.events;
  return out;
}

}  // namespace perfbench
