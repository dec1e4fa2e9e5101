// focv-serve load generator: drives a daemon with C connections × K
// pipelined in-flight requests each and reports latency percentiles and
// sustained throughput.
//
//   serve_load [--port N]          attach to a running daemon
//              [--connections C]   default 64
//              [--inflight K]      default 160   (C*K = concurrent load)
//              [--duration S]      default 10
//              [--distinct D]      default 1 distinct request keys
//              [--deadline-ms X]   per-request deadline
//              [--op sizing|sim|burn]
//              [--env NAME] [--jobs N] [--queue-depth N]
//              [--json PATH] [--smoke]
//
// Without --port it self-hosts an in-process server (ephemeral port) so
// CI can run it as one command. The default workload is the warm-path
// contract the serving tier is built around: identical sizing queries
// answered from the response cache at socket round-trip latency. With
// --distinct D the load cycles over D distinct sizing keys
// (report_period_s = 60 + i), exercising compute, batching and
// single-flight coalescing instead of the cache.
//
// Output: a human summary plus optional focv-serve-load/v1 JSON:
//   {"schema":"focv-serve-load/v1","connections":64,...,
//    "qps":...,"p50_ms":...,"p99_ms":...,
//    "errors":{"overloaded":0,"deadline_exceeded":0,"other":0}}
//
// --smoke shrinks to 8×16 for ~2 s and exits non-zero when any
// response failed — the CI smoke gate.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using focv::Json;

struct LoadOptions {
  int port = 0;  // 0 = self-host
  int connections = 64;
  int inflight = 160;
  double duration_s = 10.0;
  int distinct = 1;
  double deadline_ms = 0.0;
  std::string op = "sizing";
  std::string env = "office";
  int jobs = 0;          // self-hosted server workers
  long queue_depth = -1; // self-hosted server queue bound (-1 = default)
  std::string json_path;
  bool smoke = false;
};

struct WorkerTally {
  std::vector<double> latencies_ms;
  std::uint64_t ok = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t other_errors = 0;
  bool transport_failed = false;
};

std::string request_json(const LoadOptions& options, int key_index, std::uint64_t id) {
  Json body = Json::object();
  body.set("op", Json::string(options.op));
  body.set("id", Json::number(static_cast<double>(id)));
  if (options.op == "burn") {
    body.set("ms", Json::number(1.0));
  } else {
    body.set("env", Json::string(options.env));
    if (options.op == "sizing") {
      body.set("report_period_s", Json::number(60.0 + key_index));
    }
  }
  if (options.deadline_ms > 0.0) body.set("deadline_ms", Json::number(options.deadline_ms));
  return body.dump();
}

/// One connection's sliding-window loop: keep `inflight` requests on
/// the wire until the deadline, then drain.
void worker_loop(const LoadOptions& options, std::uint16_t port, Clock::time_point until,
                 WorkerTally& tally) {
  focv::serve::Client client;
  std::string error;
  if (!client.connect(port, error)) {
    tally.transport_failed = true;
    return;
  }
  // id -> send timestamp of the in-flight window (ids recycle mod 2K).
  const std::uint64_t window = static_cast<std::uint64_t>(options.inflight) * 2;
  std::vector<Clock::time_point> sent_at(window);
  std::uint64_t next_id = 0;
  std::uint64_t outstanding = 0;

  const auto fire = [&] {
    const std::uint64_t id = next_id++;
    sent_at[id % window] = Clock::now();
    if (!client.send(request_json(options, static_cast<int>(id) % options.distinct, id))) {
      tally.transport_failed = true;
      return false;
    }
    ++outstanding;
    return true;
  };

  for (int i = 0; i < options.inflight; ++i) {
    if (!fire()) return;
  }
  std::string payload;
  Json response;
  bool sending = true;
  while (outstanding > 0) {
    if (!client.recv(payload)) {
      tally.transport_failed = true;
      return;
    }
    --outstanding;
    const Clock::time_point now = Clock::now();
    if (Json::parse(payload, response)) {
      const Json* id = response.find("id");
      if (id != nullptr && id->is_number()) {
        const std::uint64_t got = static_cast<std::uint64_t>(id->as_number());
        tally.latencies_ms.push_back(
            std::chrono::duration<double, std::milli>(now - sent_at[got % window]).count());
      }
      if (response.bool_or("ok", false)) {
        ++tally.ok;
      } else {
        const Json* err = response.find("error");
        const std::string code = err != nullptr ? err->string_or("code", "") : "";
        if (code == "overloaded") {
          ++tally.overloaded;
        } else if (code == "deadline_exceeded") {
          ++tally.deadline_exceeded;
        } else {
          ++tally.other_errors;
        }
      }
    } else {
      ++tally.other_errors;
    }
    if (sending && now >= until) sending = false;
    if (sending && !fire()) return;
  }
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const std::size_t idx = static_cast<std::size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

}  // namespace

int main(int argc, char** argv) {
  LoadOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "serve_load: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--port") options.port = std::atoi(value());
    else if (arg == "--connections") options.connections = std::atoi(value());
    else if (arg == "--inflight") options.inflight = std::atoi(value());
    else if (arg == "--duration") options.duration_s = std::atof(value());
    else if (arg == "--distinct") options.distinct = std::max(1, std::atoi(value()));
    else if (arg == "--deadline-ms") options.deadline_ms = std::atof(value());
    else if (arg == "--op") options.op = value();
    else if (arg == "--env") options.env = value();
    else if (arg == "--jobs") options.jobs = std::atoi(value());
    else if (arg == "--queue-depth") options.queue_depth = std::atol(value());
    else if (arg == "--json") options.json_path = value();
    else if (arg == "--smoke") options.smoke = true;
    else {
      std::fprintf(stderr, "serve_load: unknown flag %s (see file header)\n", arg.c_str());
      return 2;
    }
  }
  if (options.smoke) {
    options.connections = std::min(options.connections, 8);
    options.inflight = std::min(options.inflight, 16);
    options.duration_s = std::min(options.duration_s, 2.0);
  }

  // Self-host when no daemon was given: same server class, in-process.
  std::unique_ptr<focv::serve::Server> server;
  std::uint16_t port = static_cast<std::uint16_t>(options.port);
  if (options.port == 0) {
    focv::serve::ServerOptions server_options;
    server_options.jobs = options.jobs;
    if (options.queue_depth >= 0) {
      server_options.queue_depth = static_cast<std::size_t>(options.queue_depth);
    }
    server_options.session.enable_test_ops = true;
    server = std::make_unique<focv::serve::Server>(server_options);
    std::string error;
    if (!server->start(error)) {
      std::fprintf(stderr, "serve_load: %s\n", error.c_str());
      return 1;
    }
    port = server->port();
  }

  // Warm every distinct key once so the measured run probes the serving
  // path (cache + socket), not the first-touch environment build.
  {
    focv::serve::Client client;
    std::string error;
    if (!client.connect(port, error)) {
      std::fprintf(stderr, "serve_load: %s\n", error.c_str());
      return 1;
    }
    std::string response;
    for (int k = 0; k < options.distinct; ++k) {
      LoadOptions warm = options;
      warm.deadline_ms = 0.0;
      if (!client.request(request_json(warm, k, 0), response)) {
        std::fprintf(stderr, "serve_load: warm-up request failed\n");
        return 1;
      }
    }
  }

  const int total_inflight = options.connections * options.inflight;
  std::printf("serve_load: %d connections x %d in-flight = %d concurrent, %.1f s, op=%s%s\n",
              options.connections, options.inflight, total_inflight, options.duration_s,
              options.op.c_str(), options.port == 0 ? " (self-hosted)" : "");
  std::fflush(stdout);

  std::vector<WorkerTally> tallies(static_cast<std::size_t>(options.connections));
  std::vector<std::thread> threads;
  const Clock::time_point start = Clock::now();
  const Clock::time_point until =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.duration_s));
  for (int c = 0; c < options.connections; ++c) {
    threads.emplace_back(worker_loop, std::cref(options), port, until,
                         std::ref(tallies[static_cast<std::size_t>(c)]));
  }
  for (std::thread& t : threads) t.join();
  const double elapsed_s = std::chrono::duration<double>(Clock::now() - start).count();

  WorkerTally total;
  bool transport_failed = false;
  for (WorkerTally& tally : tallies) {
    total.ok += tally.ok;
    total.overloaded += tally.overloaded;
    total.deadline_exceeded += tally.deadline_exceeded;
    total.other_errors += tally.other_errors;
    transport_failed = transport_failed || tally.transport_failed;
    total.latencies_ms.insert(total.latencies_ms.end(), tally.latencies_ms.begin(),
                              tally.latencies_ms.end());
  }
  std::sort(total.latencies_ms.begin(), total.latencies_ms.end());
  const std::uint64_t responses =
      total.ok + total.overloaded + total.deadline_exceeded + total.other_errors;
  const double qps = elapsed_s > 0.0 ? static_cast<double>(responses) / elapsed_s : 0.0;
  const double p50 = percentile(total.latencies_ms, 0.50);
  const double p99 = percentile(total.latencies_ms, 0.99);

  std::printf("  responses %llu in %.2f s -> %.0f qps\n",
              static_cast<unsigned long long>(responses), elapsed_s, qps);
  std::printf("  latency p50 %.3f ms, p99 %.3f ms\n", p50, p99);
  std::printf("  ok %llu, overloaded %llu, deadline_exceeded %llu, other %llu%s\n",
              static_cast<unsigned long long>(total.ok),
              static_cast<unsigned long long>(total.overloaded),
              static_cast<unsigned long long>(total.deadline_exceeded),
              static_cast<unsigned long long>(total.other_errors),
              transport_failed ? " [TRANSPORT FAILURE]" : "");

  if (!options.json_path.empty()) {
    Json errors = Json::object();
    errors.set("overloaded", Json::number(static_cast<double>(total.overloaded)));
    errors.set("deadline_exceeded", Json::number(static_cast<double>(total.deadline_exceeded)));
    errors.set("other", Json::number(static_cast<double>(total.other_errors)));
    Json out = Json::object();
    out.set("schema", Json::string("focv-serve-load/v1"));
    out.set("op", Json::string(options.op));
    out.set("connections", Json::number(options.connections));
    out.set("inflight_per_connection", Json::number(options.inflight));
    out.set("concurrent_inflight", Json::number(total_inflight));
    out.set("distinct_keys", Json::number(options.distinct));
    out.set("duration_s", Json::number(elapsed_s));
    out.set("responses", Json::number(static_cast<double>(responses)));
    out.set("qps", Json::number(qps));
    out.set("p50_ms", Json::number(p50));
    out.set("p99_ms", Json::number(p99));
    out.set("errors", std::move(errors));
    std::ofstream file(options.json_path);
    file << out.dump() << "\n";
    std::printf("  wrote %s\n", options.json_path.c_str());
  }

  if (server != nullptr) server->stop();
  // Smoke mode is a pass/fail gate: every response must be an ok.
  if (options.smoke && (transport_failed || responses == 0 || total.ok != responses)) {
    std::fprintf(stderr, "serve_load: smoke gate FAILED\n");
    return 1;
  }
  return transport_failed ? 1 : 0;
}
