// focv repo benchmark: the perfbench binary.
//
//   perfbench --workload fleet_day|serve_hot|serve_cold --seed N
//             --seconds S --trace 0|1 [--smoke] [--out-dir DIR]
//             [--commit SHA] [--source-digest HEX]
//
// Prints a host fingerprint, one summary line per metric, and as the
// last line one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1. Exits 1 when an output check failed or the
// workload threw, 2 on a usage error or an unoptimised build, 3 when a
// workload left an end-to-end metric unreported.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "fleet/soa_internal.hpp"
#include "workloads.hpp"

namespace {

using perfbench::fmt;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (tests/test_smoke.py checks that it does).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
    {"p50_ms", "ms"},
    {"p99_ms", "ms"},
    {"max_rate_per_s", "1/s"},
    {"serial_rate_per_s", "1/s"},
    {"sim_p50_ms", "ms"},
    {"sizing_p50_ms", "ms"},
};

constexpr MetricDef kPerLayer[] = {
    {"env.trace_build_s", "s"},
    {"sched.prepare_s", "s"},
    {"node.curve_warm_s", "s"},
    {"node.curve_model_evals", "count"},
    {"fleet.plan_s", "s"},
    {"sched.batch_intervals", "count"},
    {"fleet.request_fixed_share", "ratio"},
    {"fleet.draw_ns_per_node", "ns"},
    {"fleet.kernel_s", "s"},
    {"fleet.kernel_ns_per_interval", "ns"},
    {"fleet.intervals", "count"},
    {"fleet.soa.slow_advances", "count"},
    {"fleet.soa.store_flips", "count"},
    {"fleet.soa.slow_useful_ratio", "ratio"},
    {"fleet.report_s", "s"},
    {"fleet.json_s", "s"},
    {"fleet.events", "count"},
    {"runtime.pool.efficiency_jobs4", "ratio"},
    {"runtime.pool.tail_s", "s"},
    {"serve.protocol.parse_us", "us"},
    {"serve.protocol.render_us", "us"},
    {"serve.session.canonicalize_us", "us"},
    {"serve.session.cache_lookup_us", "us"},
    {"serve.session.cache_hit_ratio", "ratio"},
    {"serve.session.cache_entries", "count"},
    {"serve.transport_us", "us"},
    {"serve.requests", "count"},
    {"serve.bytes_in", "bytes"},
    {"serve.bytes_out", "bytes"},
    {"serve.compute_ms.sim", "ms"},
    {"serve.compute_ms.sizing", "ms"},
    {"serve.compute_ms.fleet", "ms"},
    {"node.sizing_ms", "ms"},
    {"node.simulate_ms", "ms"},
    {"mppt.spec_us", "us"},
    {"serve.queue_wait_ms.p50", "ms"},
    {"serve.queue_wait_ms.p99", "ms"},
    {"serve.server.coalesced_share", "ratio"},
    {"serve.server.batch_size_mean", "count"},
    {"serve.server.overloaded_share", "ratio"},
    {"serve.server.deadline_exceeded", "count"},
    {"runtime.pool.utilization", "ratio"},
    {"gen.lateness_p99_ms", "ms"},
    {"failed_share", "ratio"},
    {"trace_overhead", "ratio"},
    {"trace.residual_share", "ratio"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload fleet_day|serve_hot|serve_cold --seed N "
               "--seconds S --trace 0|1 [--smoke] [--out-dir DIR]\n",
               why);
  return 2;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  int trace = -1;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      args.smoke = true;
    } else if (!has_value) {
      return usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      args.workload = argv[++i];
    } else if (a == "--seed") {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      args.seconds = std::atof(argv[++i]);
      have_seconds = true;
    } else if (a == "--trace") {
      trace = std::atoi(argv[++i]);
    } else if (a == "--out-dir") {
      args.out_dir = argv[++i];
    } else if (a == "--commit") {
      commit = argv[++i];
    } else if (a == "--source-digest") {
      source_digest = argv[++i];
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (args.workload != "fleet_day" && args.workload != "serve_hot" &&
      args.workload != "serve_cold") {
    return usage("unknown or missing --workload");
  }
  if (!have_seed || !have_seconds || args.seconds <= 0.0 || (trace != 0 && trace != 1)) {
    return usage("--seed, --seconds > 0 and --trace 0|1 are required");
  }
  args.trace = trace == 1;

#if defined(__OPTIMIZE__)
  constexpr bool kOptimised = true;
#else
  constexpr bool kOptimised = false;
#endif
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (!kOptimised || (build_type != "Release" && build_type != "RelWithDebInfo")) {
    std::fprintf(stderr, "perfbench: refusing to time an unoptimised build (%s)\n",
                 build_type.c_str());
    return 2;
  }

  const bool lanes = focv::fleet::soa::internal::lanes_supported();
  std::printf("# host: {\"cpu\": %s, \"nproc\": %u, \"compiler\": %s, \"flags\": %s, "
              "\"build_type\": %s, \"commit\": %s, \"source_digest\": %s, "
              "\"soa_kernel\": \"%s\"}\n",
              json_string(cpu_model()).c_str(), std::thread::hardware_concurrency(),
              json_string(PERFBENCH_COMPILER).c_str(), json_string(PERFBENCH_CXX_FLAGS).c_str(),
              json_string(build_type).c_str(), json_string(commit).c_str(),
              json_string(source_digest).c_str(), lanes ? "lanes (AVX2)" : "scalar");
  std::printf("# workload %s seed %llu seconds %s trace %d%s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), fmt(args.seconds).c_str(), trace,
              args.smoke ? " (smoke sizes)" : "");
  std::fflush(stdout);

  perfbench::Result result;
  perfbench::SpanLog spans;
  try {
    if (args.workload == "fleet_day") {
      perfbench::run_fleet_day(args, result, spans);
    } else {
      perfbench::run_serve(args, args.workload == "serve_hot", result, spans);
    }
    if (args.trace) {
      const std::string path = args.out_dir + "/spans-" + args.workload + "-seed" +
                               std::to_string(args.seed) + ".json";
      spans.write_json(path);
      std::printf("# %zu spans written to %s\n", spans.size(), path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }

  for (const std::string& line : result.notes()) std::printf("# %s\n", line.c_str());
  const double failed_share = result.attempted() > 0
                                  ? static_cast<double>(result.failed()) /
                                        static_cast<double>(result.attempted())
                                  : 1.0;
  std::printf("# failed_share = %s (failed / attempted, %llu / %llu)\n",
              fmt(failed_share).c_str(), static_cast<unsigned long long>(result.failed()),
              static_cast<unsigned long long>(result.attempted()));
  if (args.trace) result.metric("failed_share", failed_share);

  std::string metrics;
  bool missing = false;
  const auto emit = [&](const MetricDef& def, bool required) {
    const auto it = result.metrics().find(def.name);
    double value = 0.0;
    if (it != result.metrics().end()) {
      value = it->second;
    } else if (required) {
      std::fprintf(stderr, "perfbench: workload did not report %s\n", def.name);
      missing = true;
    }
    std::printf("# %-32s %s %s\n", def.name, fmt(value).c_str(), def.unit);
    if (!metrics.empty()) metrics += ", ";
    metrics += '"';
    metrics += std::string(def.name) + "\": {\"value\": " + fmt(value) + ", \"unit\": \"" +
               def.unit + "\"}";
  };
  if (args.trace) {
    // A layer the workload never calls reports 0.
    for (const MetricDef& def : kPerLayer) emit(def, false);
  } else {
    for (const MetricDef& def : kEndToEnd) emit(def, true);
  }
  if (missing) return 3;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              result.correct() ? "true" : "false",
              static_cast<unsigned long long>(result.attempted()),
              static_cast<unsigned long long>(result.failed()), metrics.c_str());
  return result.correct() ? 0 : 1;
}
