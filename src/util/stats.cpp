#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace amrio::util {

void RunningStats::push(double x) {
  ++n_;
  sum_ += x;
  if (n_ == 1) {
    mean_ = x;
    m2_ = 0.0;
    min_ = x;
    max_ = x;
    return;
  }
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double percentile(std::span<const double> values, double q) {
  AMRIO_EXPECTS(q >= 0.0 && q <= 1.0);
  if (values.empty()) return 0.0;
  std::vector<double> v(values.begin(), values.end());
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t i = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(i);
  if (i + 1 >= v.size()) return v.back();
  return v[i] * (1.0 - frac) + v[i + 1] * frac;
}

double imbalance_factor(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  double mx = values[0];
  for (double v : values) {
    sum += v;
    mx = std::max(mx, v);
  }
  const double mean = sum / static_cast<double>(values.size());
  if (mean == 0.0) return 0.0;
  return mx / mean;
}

double gini(std::span<const double> values) {
  if (values.empty()) return 0.0;
  std::vector<double> v(values.begin(), values.end());
  std::sort(v.begin(), v.end());
  double sum = 0.0;
  double weighted = 0.0;
  const std::size_t n = v.size();
  for (std::size_t i = 0; i < n; ++i) {
    sum += v[i];
    weighted += static_cast<double>(i + 1) * v[i];
  }
  if (sum == 0.0) return 0.0;
  const double dn = static_cast<double>(n);
  return (2.0 * weighted) / (dn * sum) - (dn + 1.0) / dn;
}

Histogram histogram(std::span<const double> values, int nbins) {
  AMRIO_EXPECTS(nbins > 0);
  Histogram h;
  h.counts.assign(static_cast<std::size_t>(nbins), 0);
  if (values.empty()) return h;
  h.lo = *std::min_element(values.begin(), values.end());
  h.hi = *std::max_element(values.begin(), values.end());
  const double width = (h.hi - h.lo) > 0 ? (h.hi - h.lo) : 1.0;
  for (double v : values) {
    int bin = static_cast<int>((v - h.lo) / width * nbins);
    bin = std::clamp(bin, 0, nbins - 1);
    ++h.counts[static_cast<std::size_t>(bin)];
  }
  return h;
}

}  // namespace amrio::util
