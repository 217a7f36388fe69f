#include "obs/metrics.hpp"

#include <cmath>

namespace amrio::obs {
namespace {

// Log2 bucket of an observation in integer units: -1 for zero, otherwise
// floor(log2(units)) — [1,2) -> 0, [2,4) -> 1, ...
int bucket_of(std::int64_t units) {
  if (units <= 0) return -1;
  int b = -1;
  for (std::uint64_t u = static_cast<std::uint64_t>(units); u; u >>= 1) ++b;
  return b;
}

}  // namespace

void MetricsRegistry::add(const std::string& name, std::int64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += delta;
}

void MetricsRegistry::gauge_max(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = gauges_.emplace(name, value);
  if (!inserted && value > it->second) it->second = value;
}

void MetricsRegistry::observe(const std::string& name, double value,
                              double quantum) {
  std::lock_guard<std::mutex> lock(mu_);
  Histogram& h = histograms_[name];
  if (h.count == 0) h.quantum = quantum;
  const std::int64_t units = std::llround(value / h.quantum);
  h.count += 1;
  h.sum_units += units;
  h.buckets[bucket_of(units)] += 1;
}

void MetricsRegistry::sample(const std::string& name, double t, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  series_[name].emplace_back(t, value);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters = counters_;
  snap.gauges = gauges_;
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.quantum = h.quantum;
    hs.count = h.count;
    hs.sum_units = h.sum_units;
    hs.buckets = h.buckets;
    snap.histograms.emplace(name, std::move(hs));
  }
  for (const auto& [name, samples] : series_) {
    TimeSeriesSnapshot ts;
    ts.samples = samples;
    snap.series.emplace(name, std::move(ts));
  }
  return snap;
}

}  // namespace amrio::obs
