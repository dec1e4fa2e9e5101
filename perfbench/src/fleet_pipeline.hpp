// run_fleet's serial (jobs=1) path for an SoA fleet whose every node
// batches, step by step through the fleet module's own functions, with
// a span around every layer. The steps and their order are run_fleet's:
// PreparedTrace per environment, the warm curve cache, soa::build_plan,
// then per chunk the node draws, the SoA kernel and the report fold,
// then the ordered merge, the optional load analysis and the JSON
// export. The result must be byte-identical to run_fleet's, which the
// callers check, so the layer times describe the same work.
#pragma once

#include <cstdint>
#include <string>

#include "bench.hpp"
#include "fleet/fleet.hpp"

namespace perfbench {

struct TracedFleet {
  std::string json;       ///< FleetReport::to_json(false)
  int root = -1;          ///< the "fleet.run" span
  std::uint64_t nodes = 0;
  std::uint64_t batch_intervals = 0;  ///< sum of schedule intervals over environments
  std::uint64_t model_evals = 0;      ///< curve-model evaluations of the warm-up
  std::uint64_t steps = 0;            ///< FleetReport::steps
  std::uint64_t events = 0;           ///< FleetReport::events
};

/// Span names the pipeline records (self times are keyed by these).
namespace span {
inline constexpr const char* kRun = "fleet.run";
inline constexpr const char* kPrepare = "sched.prepare";
inline constexpr const char* kWarm = "node.curve_warm";
inline constexpr const char* kPlan = "fleet.plan";
inline constexpr const char* kDraw = "fleet.draw";
inline constexpr const char* kKernel = "fleet.kernel";
inline constexpr const char* kReport = "fleet.report";
inline constexpr const char* kLoad = "fleet.load";
inline constexpr const char* kJson = "fleet.json";
}  // namespace span

/// Throws std::invalid_argument for a spec outside that path.
[[nodiscard]] TracedFleet traced_fleet(const focv::fleet::FleetSpec& spec, bool analyze_load,
                                       SpanLog& log, int parent = -1,
                                       std::uint64_t request = 0);

}  // namespace perfbench
