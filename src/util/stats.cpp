#include "util/stats.hpp"

#include <algorithm>
#include <vector>

#include "util/assert.hpp"

namespace amrio::util {

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

}  // namespace amrio::util
