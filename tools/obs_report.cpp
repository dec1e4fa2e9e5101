// obs_report: fold a telemetry bundle into per-tier summary tables.
//
// Point it at any mix of the artifacts the focv binaries export with
// the shared --trace/--metrics/--snapshot/--flight flags; each file's
// type is sniffed from its content, so argument order is free:
//
//   ./build/tools/obs_report trace.json metrics.jsonl snapshot.json flight.json
//
// Sections (each printed only when an input supplies it):
//   metrics   — counters/gauges grouped by tier (the name prefix before
//               the first '.'), histograms with count/mean, from the
//               focv-obs-snapshot/v1 JSON and/or the focv-obs/v1 JSONL
//   events    — domain-event counts with first/last sim_t, from the
//               JSONL stream and/or a flight dump
//   spans     — wall-clock trace spans folded by name (count, total,
//               mean), from the Chrome trace_event JSON
//   flight    — dump reason and tail accounting, from focv-obs-flight/v1
//
// Exits 1 when a file cannot be read or parsed, 2 on unrecognised
// content — CI uses it as the smoke check that the exporters stay
// parseable.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/table.hpp"

namespace {

using focv::Json;

/// A number member's value, 0 for any other JSON type.
double number(const Json& v) { return v.is_number() ? v.as_number() : 0.0; }

// ---------------------------------------------------------------------------
// Folded report state.

struct MetricRow {
  std::string kind;  // counter / gauge / histogram
  double value = 0.0;
  double sum = 0.0;  // histograms
};

struct EventRow {
  std::uint64_t count = 0;
  double first_sim_t = 0.0;
  double last_sim_t = 0.0;
};

struct SpanRow {
  std::uint64_t count = 0;
  double total_us = 0.0;
};

struct Report {
  std::map<std::string, MetricRow> metrics;  // name -> row
  std::map<std::string, EventRow> events;
  std::map<std::string, SpanRow> spans;
  std::uint64_t sim_markers = 0;  // pid-2 (simulated time) trace records
  std::vector<std::string> flight_lines;
};

std::string tier_of(const std::string& name) {
  const std::size_t dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

void fold_event(Report& report, const Json& line) {
  const Json* name = line.find("event");
  if (name == nullptr || !name->is_string()) return;
  EventRow& row = report.events[name->as_string()];
  const double at = line.number_or("sim_t", 0.0);
  if (row.count == 0) row.first_sim_t = at;
  row.last_sim_t = at;
  ++row.count;
}

void fold_metric_line(Report& report, const Json& line) {
  const Json* kind = line.find("kind");
  if (kind == nullptr || !kind->is_string()) return;
  if (kind->as_string() == "event") {
    fold_event(report, line);
    return;
  }
  const Json* name = line.find("name");
  if (name == nullptr) return;
  MetricRow& row = report.metrics[name->as_string()];
  row.kind = kind->as_string();
  if (kind->as_string() == "histogram") {
    if (const Json* count = line.find("count")) row.value = number(*count);
    if (const Json* sum = line.find("sum")) row.sum = number(*sum);
  } else if (const Json* value = line.find("value")) {
    row.value = number(*value);
  }
}

bool fold_metrics_jsonl(Report& report, const std::string& text) {
  std::istringstream lines(text);
  std::string line;
  bool any = false;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    Json parsed;
    if (!Json::parse(line, parsed)) return false;
    fold_metric_line(report, parsed);
    any = true;
  }
  return any;
}

void fold_snapshot(Report& report, const Json& snapshot) {
  if (const Json* counters = snapshot.find("counters")) {
    for (const auto& [name, value] : counters->members()) {
      report.metrics[name] = {"counter", number(value), 0.0};
    }
  }
  if (const Json* gauges = snapshot.find("gauges")) {
    for (const auto& [name, value] : gauges->members()) {
      report.metrics[name] = {"gauge", number(value), 0.0};
    }
  }
  if (const Json* histograms = snapshot.find("histograms")) {
    for (const Json& h : histograms->items()) {
      const Json* name = h.find("name");
      if (name == nullptr) continue;
      MetricRow& row = report.metrics[name->as_string()];
      row.kind = "histogram";
      if (const Json* count = h.find("count")) row.value = number(*count);
      if (const Json* sum = h.find("sum")) row.sum = number(*sum);
    }
  }
}

void fold_trace(Report& report, const Json& trace) {
  const Json* events = trace.find("traceEvents");
  if (events == nullptr) return;
  for (const Json& e : events->items()) {
    const Json* ph = e.find("ph");
    const Json* name = e.find("name");
    if (ph == nullptr || name == nullptr || ph->as_string() == "M") continue;
    if (e.number_or("pid", 1.0) == 2.0) {
      ++report.sim_markers;
      continue;
    }
    if (ph->as_string() != "X") continue;
    SpanRow& row = report.spans[name->as_string()];
    ++row.count;
    if (const Json* dur = e.find("dur")) row.total_us += number(*dur);
  }
}

void fold_flight(Report& report, const Json& flight, const std::string& path) {
  std::ostringstream line;
  line << path << ": reason=";
  if (const Json* reason = flight.find("reason")) line << reason->as_string();
  if (const Json* dump = flight.find("dump")) line << "  dump=" << number(*dump);
  if (const Json* seen = flight.find("events_seen")) {
    line << "  events_seen=" << static_cast<std::uint64_t>(number(*seen));
  }
  if (const Json* evicted = flight.find("events_evicted")) {
    line << "  evicted=" << static_cast<std::uint64_t>(number(*evicted));
  }
  if (const Json* events = flight.find("events")) {
    line << "  retained=" << events->items().size();
    for (const Json& e : events->items()) fold_event(report, e);
  }
  report.flight_lines.push_back(line.str());
}

/// Sniff + fold one file. Returns 0 ok, 1 unreadable/unparseable,
/// 2 unrecognised content.
int fold_file(Report& report, const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f.good()) {
    std::fprintf(stderr, "obs_report: cannot read %s\n", path.c_str());
    return 1;
  }
  std::ostringstream buffer;
  buffer << f.rdbuf();
  const std::string text = buffer.str();

  // JSONL metric streams have one object per line; everything else is a
  // single JSON document.
  if (text.find("\"focv-obs/v1\"") != std::string::npos &&
      text.find("\"traceEvents\"") == std::string::npos &&
      text.find("\"focv-obs-flight/v1\"") == std::string::npos) {
    if (!fold_metrics_jsonl(report, text)) {
      std::fprintf(stderr, "obs_report: bad focv-obs/v1 JSONL in %s\n", path.c_str());
      return 1;
    }
    return 0;
  }
  Json doc;
  if (!Json::parse(text, doc)) {
    std::fprintf(stderr, "obs_report: JSON parse failure in %s\n", path.c_str());
    return 1;
  }
  const Json* schema = doc.find("schema");
  if (doc.find("traceEvents") != nullptr) {
    fold_trace(report, doc);
    return 0;
  }
  if (schema != nullptr && schema->as_string() == "focv-obs-snapshot/v1") {
    fold_snapshot(report, doc);
    return 0;
  }
  if (schema != nullptr && schema->as_string() == "focv-obs-flight/v1") {
    fold_flight(report, doc, path);
    return 0;
  }
  std::fprintf(stderr, "obs_report: unrecognised content in %s\n", path.c_str());
  return 2;
}

void print_report(const Report& report) {
  using focv::ConsoleTable;
  if (!report.metrics.empty()) {
    // Grouped by tier: the map's lexicographic order already clusters
    // `fleet.*`, `node.*`, ... together; the tier column labels each
    // cluster's first row.
    ConsoleTable table({"tier", "metric", "kind", "value", "mean"});
    std::string last_tier;
    for (const auto& [name, row] : report.metrics) {
      const std::string tier = tier_of(name);
      const bool histogram = row.kind == "histogram";
      table.add_row({tier == last_tier ? "" : tier, name, row.kind,
                     ConsoleTable::num(row.value, row.value == static_cast<std::uint64_t>(row.value) ? 0 : 3),
                     histogram && row.value > 0.0 ? ConsoleTable::num(row.sum / row.value, 4)
                                                  : "-"});
      last_tier = tier;
    }
    std::printf("metrics (%zu):\n", report.metrics.size());
    table.print(std::cout);
  }
  if (!report.events.empty()) {
    ConsoleTable table({"event", "count", "first sim_t", "last sim_t"});
    std::uint64_t total = 0;
    for (const auto& [name, row] : report.events) {
      table.add_row({name, ConsoleTable::num(static_cast<double>(row.count), 0),
                     ConsoleTable::num(row.first_sim_t, 3),
                     ConsoleTable::num(row.last_sim_t, 3)});
      total += row.count;
    }
    std::printf("\ndomain events (%llu):\n", static_cast<unsigned long long>(total));
    table.print(std::cout);
  }
  if (!report.spans.empty()) {
    ConsoleTable table({"span", "count", "total ms", "mean us"});
    for (const auto& [name, row] : report.spans) {
      table.add_row({name, ConsoleTable::num(static_cast<double>(row.count), 0),
                     ConsoleTable::num(row.total_us / 1000.0, 3),
                     ConsoleTable::num(row.total_us / static_cast<double>(row.count), 1)});
    }
    std::printf("\nwall-clock spans:\n");
    table.print(std::cout);
    if (report.sim_markers > 0) {
      std::printf("plus %llu simulated-time records (pid 2)\n",
                  static_cast<unsigned long long>(report.sim_markers));
    }
  }
  for (const std::string& line : report.flight_lines) {
    std::printf("\nflight %s\n", line.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::printf("usage: obs_report FILE...\n"
                "  FILE: any mix of --trace / --metrics / --snapshot / --flight\n"
                "  artifacts (type sniffed from content)\n");
    return 2;
  }
  Report report;
  for (int i = 1; i < argc; ++i) {
    const int rc = fold_file(report, argv[i]);
    if (rc != 0) return rc;
  }
  print_report(report);
  return 0;
}
