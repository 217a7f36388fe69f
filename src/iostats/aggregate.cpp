#include "iostats/aggregate.hpp"

#include <algorithm>
#include <set>

#include "util/assert.hpp"
#include "util/stats.hpp"

namespace amrio::iostats {

std::vector<std::int64_t> output_steps(const SizeTable& table) {
  std::set<std::int64_t> steps;
  for (const auto& [key, bytes] : table) steps.insert(std::get<0>(key));
  return {steps.begin(), steps.end()};
}

std::vector<int> levels_present(const SizeTable& table) {
  std::set<int> levels;
  for (const auto& [key, bytes] : table) {
    if (std::get<1>(key) >= 0) levels.insert(std::get<1>(key));
  }
  return {levels.begin(), levels.end()};
}

std::uint64_t step_level_bytes(const SizeTable& table, std::int64_t step,
                               int level) {
  std::uint64_t total = 0;
  for (const auto& [key, bytes] : table) {
    if (std::get<0>(key) == step && std::get<1>(key) == level) total += bytes;
  }
  return total;
}

std::vector<std::uint64_t> per_task_bytes(const SizeTable& table,
                                          std::int64_t step, int level,
                                          int nranks) {
  AMRIO_EXPECTS(nranks >= 1);
  std::vector<std::uint64_t> out(static_cast<std::size_t>(nranks), 0);
  for (const auto& [key, bytes] : table) {
    if (std::get<0>(key) != step || std::get<1>(key) != level) continue;
    const int rank = std::get<2>(key);
    if (rank >= 0 && rank < nranks) out[static_cast<std::size_t>(rank)] += bytes;
  }
  return out;
}

namespace {
CumulativeSeries build_series(const SizeTable& table, std::int64_t ncells0,
                              int level_filter, bool filter_level) {
  AMRIO_EXPECTS(ncells0 > 0);
  CumulativeSeries s;
  double cum = 0.0;
  std::int64_t counter = 0;
  for (const auto step : output_steps(table)) {
    double bytes = 0.0;
    for (const auto& [key, b] : table) {
      if (std::get<0>(key) != step) continue;
      if (filter_level && std::get<1>(key) != level_filter) continue;
      bytes += static_cast<double>(b);
    }
    ++counter;  // Eq. (1): output_counter = 1..max
    cum += bytes;
    s.steps.push_back(step);
    s.x.push_back(static_cast<double>(counter) * static_cast<double>(ncells0));
    s.y.push_back(cum);
    s.per_step.push_back(bytes);
  }
  return s;
}
}  // namespace

CumulativeSeries cumulative_series(const SizeTable& table, std::int64_t ncells0) {
  return build_series(table, ncells0, 0, false);
}

CumulativeSeries cumulative_series_level(const SizeTable& table,
                                         std::int64_t ncells0, int level) {
  return build_series(table, ncells0, level, true);
}

double task_imbalance(const SizeTable& table, std::int64_t step, int level,
                      int nranks) {
  const auto bytes = per_task_bytes(table, step, level, nranks);
  std::vector<double> v(bytes.begin(), bytes.end());
  return util::imbalance_factor(v);
}

}  // namespace amrio::iostats
