#pragma once
/// \file aggregate.hpp
/// Aggregation of plotfile scans (plotfile::scan_plotfiles) into the
/// quantities the paper plots:
///   Eq. (1):  x = output_counter × ncells   (cumulative independent variable)
///   Eq. (2):  y = data_output_i, i = (time step, level, task)
/// plus per-level splits (Fig. 7), per-task matrices (Fig. 8), and
/// load-imbalance metrics.

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

namespace amrio::iostats {

/// bytes keyed by (step, level, rank); metadata rows use level/rank = -1.
using SizeTable = std::map<std::tuple<std::int64_t, int, int>, std::uint64_t>;

/// Output steps present, ascending (steps at which any bytes were produced).
std::vector<std::int64_t> output_steps(const SizeTable& table);

/// Levels present (excluding -1 metadata rows), ascending.
std::vector<int> levels_present(const SizeTable& table);

/// Total bytes at one (step, level); level -1 = top-level metadata only.
std::uint64_t step_level_bytes(const SizeTable& table, std::int64_t step, int level);

/// Per-rank bytes at one (step, level): index = rank (0..nranks-1).
std::vector<std::uint64_t> per_task_bytes(const SizeTable& table,
                                          std::int64_t step, int level,
                                          int nranks);

/// A per-output-event series; `x` follows the paper's Eq. (1) with
/// output_counter = 1..N (count of output events so far).
struct CumulativeSeries {
  std::vector<std::int64_t> steps;  ///< simulation step of each output event
  std::vector<double> x;            ///< output_counter × ncells
  std::vector<double> y;            ///< cumulative bytes through this event
  std::vector<double> per_step;     ///< bytes of this event alone
};

/// Cumulative total output (all levels + metadata) vs Eq. (1) x.
CumulativeSeries cumulative_series(const SizeTable& table, std::int64_t ncells0);

/// Cumulative output restricted to one AMR level.
CumulativeSeries cumulative_series_level(const SizeTable& table,
                                         std::int64_t ncells0, int level);

/// max/mean per-task imbalance at one (step, level).
double task_imbalance(const SizeTable& table, std::int64_t step, int level,
                      int nranks);

}  // namespace amrio::iostats
