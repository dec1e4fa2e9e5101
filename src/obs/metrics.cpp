#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "common/json.hpp"
#include "common/require.hpp"

namespace focv::obs {

namespace {

std::uint64_t next_registry_uid() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

std::uint32_t find_or_append(std::vector<std::string>& names, const std::string& name,
                             std::uint32_t capacity, const char* kind) {
  for (std::uint32_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return i;
  }
  require(names.size() < capacity,
          std::string("MetricsRegistry: ") + kind + " capacity exhausted at '" + name + "'");
  names.push_back(name);
  return static_cast<std::uint32_t>(names.size() - 1);
}

}  // namespace

MetricsRegistry::Shard::Shard()
    : hist_counts(static_cast<std::size_t>(kMaxHistograms) * (kMaxBins + 2)) {}

MetricsRegistry::MetricsRegistry() : uid_(next_registry_uid()) {}
MetricsRegistry::~MetricsRegistry() = default;

CounterId MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return CounterId{find_or_append(counter_names_, name, kMaxCounters, "counter")};
}

GaugeId MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return GaugeId{find_or_append(gauge_names_, name, kMaxGauges, "gauge")};
}

HistogramId MetricsRegistry::histogram(const std::string& name, const HistogramSpec& spec) {
  require(spec.lo > 0.0 && spec.hi > spec.lo,
          "MetricsRegistry: histogram '" + name + "' needs 0 < lo < hi");
  require(spec.bins >= 1 && spec.bins <= kMaxBins,
          "MetricsRegistry: histogram '" + name + "' bin count out of range");
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::uint32_t i = 0; i < histogram_names_.size(); ++i) {
    if (histogram_names_[i] != name) continue;
    const HistogramSpec& prior = hist_meta_[i].spec;
    require(prior.lo == spec.lo && prior.hi == spec.hi && prior.bins == spec.bins,
            "MetricsRegistry: histogram '" + name + "' re-registered with a different spec");
    return HistogramId{i};
  }
  require(histogram_names_.size() < kMaxHistograms,
          "MetricsRegistry: histogram capacity exhausted at '" + name + "'");
  const auto index = static_cast<std::uint32_t>(histogram_names_.size());
  HistMeta meta;
  meta.spec = spec;
  meta.log_lo = std::log(spec.lo);
  meta.inv_log_step = spec.bins / (std::log(spec.hi) - std::log(spec.lo));
  meta.slot = index * static_cast<std::uint32_t>(kMaxBins + 2);
  hist_meta_[index] = meta;
  histogram_names_.push_back(name);
  return HistogramId{index};
}

void MetricsRegistry::atomic_add(std::atomic<double>& slot, double delta) {
  // fetch_add on atomic<double> is C++20; spelled as a CAS loop for
  // toolchains whose libatomic lowers it the same way anyway.
  double cur = slot.load(std::memory_order_relaxed);
  while (!slot.compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed)) {
  }
}

MetricsRegistry::Shard& MetricsRegistry::local_shard() {
  struct TlsEntry {
    std::uint64_t uid = 0;
    Shard* shard = nullptr;
  };
  // One-entry fast cache plus a slow list for threads touching several
  // registries (tests, nested sweeps).
  thread_local TlsEntry fast;
  thread_local std::vector<TlsEntry> slow;
  if (fast.uid == uid_) return *fast.shard;
  for (const TlsEntry& e : slow) {
    if (e.uid == uid_) {
      fast = e;
      return *e.shard;
    }
  }
  Shard* shard = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shards_.push_back(std::make_unique<Shard>());
    shard = shards_.back().get();
  }
  fast = TlsEntry{uid_, shard};
  slow.push_back(fast);
  return *shard;
}

void MetricsRegistry::add(CounterId id, double delta) {
  atomic_add(local_shard().counters[id.index], delta);
}

void MetricsRegistry::set(GaugeId id, double value) {
  gauges_[id.index].store(value, std::memory_order_relaxed);
}

int MetricsRegistry::bucket_index(const HistogramSpec& spec, double value) {
  if (!(value >= spec.lo)) return 0;  // underflow (also NaN)
  if (value >= spec.hi) return spec.bins + 1;
  const double pos = (std::log(value) - std::log(spec.lo)) *
                     (spec.bins / (std::log(spec.hi) - std::log(spec.lo)));
  const int bin = static_cast<int>(pos);
  return 1 + std::clamp(bin, 0, spec.bins - 1);
}

std::vector<double> MetricsRegistry::bin_edges(const HistogramSpec& spec) {
  std::vector<double> edges(static_cast<std::size_t>(spec.bins) + 1);
  const double ratio = std::log(spec.hi / spec.lo) / spec.bins;
  for (int i = 0; i <= spec.bins; ++i) {
    edges[static_cast<std::size_t>(i)] = spec.lo * std::exp(ratio * i);
  }
  edges.front() = spec.lo;
  edges.back() = spec.hi;
  return edges;
}

void MetricsRegistry::observe(HistogramId id, double value) {
  Shard& shard = local_shard();
  const HistMeta& meta = hist_meta_[id.index];
  int bin;
  if (!(value >= meta.spec.lo)) {
    bin = 0;
  } else if (value >= meta.spec.hi) {
    bin = meta.spec.bins + 1;
  } else {
    const int raw = static_cast<int>((std::log(value) - meta.log_lo) * meta.inv_log_step);
    bin = 1 + std::clamp(raw, 0, meta.spec.bins - 1);
  }
  shard.hist_counts[meta.slot + static_cast<std::uint32_t>(bin)].fetch_add(
      1, std::memory_order_relaxed);
  shard.hist_n[id.index].fetch_add(1, std::memory_order_relaxed);
  atomic_add(shard.hist_sum[id.index], value);
}

void MetricsRegistry::flush(HistogramId id, HistogramBatch& batch) {
  if (batch.n_ == 0) return;
  const HistMeta& meta = hist_meta_[id.index];
  require(meta.spec.lo == batch.spec_.lo && meta.spec.hi == batch.spec_.hi &&
              meta.spec.bins == batch.spec_.bins,
          "MetricsRegistry::flush: batch spec does not match the histogram");
  Shard& shard = local_shard();
  for (int b = 0; b < meta.spec.bins + 2; ++b) {
    const std::uint64_t c = batch.counts_[static_cast<std::size_t>(b)];
    if (c != 0) {
      shard.hist_counts[meta.slot + static_cast<std::uint32_t>(b)].fetch_add(
          c, std::memory_order_relaxed);
    }
  }
  shard.hist_n[id.index].fetch_add(batch.n_, std::memory_order_relaxed);
  atomic_add(shard.hist_sum[id.index], batch.sum_);
  batch.clear();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  snap.counters.reserve(counter_names_.size());
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    double total = 0.0;
    for (const auto& shard : shards_) {
      total += shard->counters[i].load(std::memory_order_relaxed);
    }
    snap.counters.emplace_back(counter_names_[i], total);
  }
  snap.gauges.reserve(gauge_names_.size());
  for (std::size_t i = 0; i < gauge_names_.size(); ++i) {
    snap.gauges.emplace_back(gauge_names_[i], gauges_[i].load(std::memory_order_relaxed));
  }
  snap.histograms.reserve(histogram_names_.size());
  for (std::size_t i = 0; i < histogram_names_.size(); ++i) {
    const HistMeta& meta = hist_meta_[i];
    HistogramSnapshot h;
    h.name = histogram_names_[i];
    h.spec = meta.spec;
    h.edges = bin_edges(meta.spec);
    h.counts.assign(static_cast<std::size_t>(meta.spec.bins) + 2, 0);
    for (const auto& shard : shards_) {
      for (std::size_t b = 0; b < h.counts.size(); ++b) {
        h.counts[b] += shard->hist_counts[meta.slot + b].load(std::memory_order_relaxed);
      }
      h.count += shard->hist_n[i].load(std::memory_order_relaxed);
      h.sum += shard->hist_sum[i].load(std::memory_order_relaxed);
    }
    snap.histograms.push_back(std::move(h));
  }
  return snap;
}

double MetricsRegistry::counter_value(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    if (counter_names_[i] != name) continue;
    double total = 0.0;
    for (const auto& shard : shards_) {
      total += shard->counters[i].load(std::memory_order_relaxed);
    }
    return total;
  }
  return 0.0;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& shard : shards_) {
    for (auto& c : shard->counters) c.store(0.0, std::memory_order_relaxed);
    for (auto& c : shard->hist_counts) c.store(0, std::memory_order_relaxed);
    for (auto& s : shard->hist_sum) s.store(0.0, std::memory_order_relaxed);
    for (auto& n : shard->hist_n) n.store(0, std::memory_order_relaxed);
  }
  for (auto& g : gauges_) g.store(0.0, std::memory_order_relaxed);
}

void MetricsRegistry::append_jsonl(std::string& out) const {
  const MetricsSnapshot snap = snapshot();
  for (const auto& [name, value] : snap.counters) {
    out += "{\"schema\":\"focv-obs/v1\",\"kind\":\"counter\",\"name\":\"" + name +
           "\",\"value\":" + Json::dump_number(value) + "}\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    out += "{\"schema\":\"focv-obs/v1\",\"kind\":\"gauge\",\"name\":\"" + name +
           "\",\"value\":" + Json::dump_number(value) + "}\n";
  }
  for (const HistogramSnapshot& h : snap.histograms) {
    out += "{\"schema\":\"focv-obs/v1\",\"kind\":\"histogram\",\"name\":\"" + h.name +
           "\",\"count\":" + std::to_string(h.count) + ",\"sum\":" + Json::dump_number(h.sum) +
           ",\"edges\":[";
    for (std::size_t i = 0; i < h.edges.size(); ++i) {
      if (i) out += ',';
      out += Json::dump_number(h.edges[i]);
    }
    out += "],\"counts\":[";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i) out += ',';
      out += std::to_string(h.counts[i]);
    }
    out += "]}\n";
  }
}

}  // namespace focv::obs
