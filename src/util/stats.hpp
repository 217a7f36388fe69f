#pragma once
/// \file stats.hpp
/// Batch statistics used by the I/O characterization layer: percentiles
/// and load-imbalance metrics.

#include <span>

namespace amrio::util {

/// Linear-interpolated percentile, q in [0,1]. Copies and sorts.
double percentile(std::span<const double> values, double q);

/// max/mean ratio; the classic HPC load-imbalance factor. 1.0 == balanced.
/// Returns 0 for empty input or zero mean.
double imbalance_factor(std::span<const double> values);

/// Gini coefficient in [0,1]; 0 == perfectly even shares.
double gini(std::span<const double> values);

}  // namespace amrio::util
