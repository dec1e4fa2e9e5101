// Shared plumbing of the repo benchmark: command-line options, the
// result accumulator every workload fills, in-memory spans for traced
// runs, and small statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point a) {
  return seconds_between(a, Clock::now());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes for the benchmark's own tests; never used for numbers.
  bool smoke = false;
  /// Directory the span dump is written to at exit.
  std::string out_dir = ".bench_build";
};

/// Peak resident set size of this process so far [MiB] (Linux VmHWM).
[[nodiscard]] double peak_rss_mib();

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// 64-bit FNV-1a, for output digests.
[[nodiscard]] std::uint64_t fnv1a(std::string_view data,
                                  std::uint64_t hash = 14695981039346656037ull);

/// What one workload run reports: work attempted and failed, output
/// checks, metric values by name, and human-readable summary lines.
class Result {
 public:
  void metric(const std::string& name, double value) { metrics_[name] = value; }
  /// Record an output check over `items` units of work; a failed check
  /// counts those items as failed and makes the run incorrect.
  void check(bool ok, const std::string& what, std::uint64_t items = 1);
  void attempt(std::uint64_t items) { attempted_ += items; }
  void fail(std::uint64_t items) { failed_ += items; }
  void note(const std::string& line) { notes_.push_back(line); }

  [[nodiscard]] bool correct() const { return correct_; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::map<std::string, double>& metrics() const { return metrics_; }
  [[nodiscard]] const std::vector<std::string>& notes() const { return notes_; }

 private:
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, double> metrics_;
  std::vector<std::string> notes_;
};

/// In-memory span log of a traced run (single-threaded use). Spans are
/// recorded around calls into the program's public functions and are
/// written out once, when the benchmark ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;  ///< since the log's origin
    double end_s = 0.0;
    int parent = -1;
    std::uint64_t request = 0;  ///< shared by the spans of one request
  };

  SpanLog() : origin_(Clock::now()) {}

  int begin(std::string name, int parent = -1, std::uint64_t request = 0);
  void end(int id);
  /// A span whose bounds were measured elsewhere (e.g. client latency).
  int add(std::string name, Clock::time_point start, Clock::time_point end, int parent = -1,
          std::uint64_t request = 0);

  /// RAII span around one call.
  class Scope {
   public:
    Scope(SpanLog& log, std::string name, int parent = -1, std::uint64_t request = 0)
        : log_(log), id_(log.begin(std::move(name), parent, request)) {}
    ~Scope() { log_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] int id() const { return id_; }

   private:
    SpanLog& log_;
    int id_;
  };

  [[nodiscard]] double duration(int id) const;
  /// Self time per span name: each span's duration minus the part its
  /// direct children cover, summed over spans of that name.
  [[nodiscard]] std::map<std::string, double> self_seconds(int root) const;
  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  void write_json(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Format with all significant digits (%.17g).
[[nodiscard]] std::string fmt(double value);
/// 16 hex digits.
[[nodiscard]] std::string hex(std::uint64_t value);

}  // namespace perfbench
