#include "bench.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      long kib = 0;
      std::sscanf(line.c_str() + 6, "%ld", &kib);
      return static_cast<double>(kib) / 1024.0;
    }
  }
  return 0.0;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::uint64_t fnv1a(std::string_view data, std::uint64_t hash) {
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string fmt(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string hex(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, value);
  return buf;
}

void Result::check(bool ok, const std::string& what, std::uint64_t items) {
  if (ok) return;
  correct_ = false;
  failed_ += items;
  notes_.push_back("CHECK FAILED: " + what);
}

int SpanLog::begin(std::string name, int parent, std::uint64_t request) {
  const double now = seconds_since(origin_);
  spans_.push_back({std::move(name), now, now, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::end(int id) { spans_.at(static_cast<std::size_t>(id)).end_s = seconds_since(origin_); }

int SpanLog::add(std::string name, Clock::time_point start, Clock::time_point end, int parent,
                 std::uint64_t request) {
  spans_.push_back({std::move(name), seconds_between(origin_, start),
                    seconds_between(origin_, end), parent, request});
  return static_cast<int>(spans_.size() - 1);
}

double SpanLog::duration(int id) const {
  const Span& s = spans_.at(static_cast<std::size_t>(id));
  return s.end_s - s.start_s;
}

std::map<std::string, double> SpanLog::self_seconds(int root) const {
  std::vector<std::vector<int>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) children[static_cast<std::size_t>(spans_[i].parent)].push_back(
        static_cast<int>(i));
  }
  std::map<std::string, double> out;
  std::vector<int> stack{root};
  while (!stack.empty()) {
    const int id = stack.back();
    stack.pop_back();
    double self = duration(id);
    for (const int c : children[static_cast<std::size_t>(id)]) {
      self -= duration(c);
      stack.push_back(c);
    }
    out[spans_[static_cast<std::size_t>(id)].name] += self;
  }
  return out;
}

void SpanLog::write_json(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot write span dump " + path);
  f << "{\"schema\": \"focv-perfbench-spans/v1\", \"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << (i ? ",\n" : "") << "{\"id\": " << i << ", \"name\": \"" << s.name
      << "\", \"start_s\": " << fmt(s.start_s) << ", \"end_s\": " << fmt(s.end_s)
      << ", \"parent\": " << s.parent << ", \"request\": " << s.request << "}";
  }
  f << "\n]}\n";
}

}  // namespace perfbench
