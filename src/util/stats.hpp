#pragma once
/// \file stats.hpp
/// Streaming and batch statistics used by the I/O characterization layer:
/// Welford running moments, percentiles, and load-imbalance metrics.

#include <cstdint>
#include <span>
#include <vector>

namespace amrio::util {

/// Welford online mean/variance plus min/max.
class RunningStats {
 public:
  void push(double x);

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 when fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Linear-interpolated percentile, q in [0,1]. Copies and sorts.
double percentile(std::span<const double> values, double q);

/// max/mean ratio; the classic HPC load-imbalance factor. 1.0 == balanced.
/// Returns 0 for empty input or zero mean.
double imbalance_factor(std::span<const double> values);

/// Gini coefficient in [0,1]; 0 == perfectly even shares.
double gini(std::span<const double> values);

/// Equal-width histogram of `values` into `nbins` bins over [min,max].
struct Histogram {
  double lo = 0.0;
  double hi = 0.0;
  std::vector<std::uint64_t> counts;
};
Histogram histogram(std::span<const double> values, int nbins);

}  // namespace amrio::util
