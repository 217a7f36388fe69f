#include "mesh/distribution.hpp"

#include <algorithm>
#include <numeric>
#include <queue>
#include <stdexcept>

#include "mesh/morton.hpp"
#include "util/assert.hpp"
#include "util/format.hpp"

namespace amrio::mesh {

const char* to_string(DistributionStrategy s) {
  switch (s) {
    case DistributionStrategy::kRoundRobin: return "roundrobin";
    case DistributionStrategy::kKnapsack: return "knapsack";
    case DistributionStrategy::kSfc: return "sfc";
  }
  return "?";
}

DistributionStrategy distribution_strategy_from_string(const std::string& s) {
  const std::string v = util::to_lower(s);
  if (v == "roundrobin" || v == "round_robin") return DistributionStrategy::kRoundRobin;
  if (v == "knapsack") return DistributionStrategy::kKnapsack;
  if (v == "sfc") return DistributionStrategy::kSfc;
  throw std::invalid_argument("unknown distribution strategy: " + s);
}

DistributionMapping DistributionMapping::make(const BoxArray& ba, int nranks,
                                              DistributionStrategy strategy) {
  std::vector<std::int64_t> weights(ba.size());
  for (std::size_t i = 0; i < ba.size(); ++i) weights[i] = ba[i].num_pts();
  return make(ba, nranks, strategy, weights);
}

DistributionMapping DistributionMapping::make(
    const BoxArray& ba, int nranks, DistributionStrategy strategy,
    const std::vector<std::int64_t>& weights) {
  AMRIO_EXPECTS(nranks >= 1);
  AMRIO_EXPECTS(weights.size() == ba.size());
  const std::size_t n = ba.size();
  std::vector<int> owner(n, 0);

  switch (strategy) {
    case DistributionStrategy::kRoundRobin: {
      for (std::size_t i = 0; i < n; ++i)
        owner[i] = static_cast<int>(i % static_cast<std::size_t>(nranks));
      break;
    }
    case DistributionStrategy::kKnapsack: {
      // Longest-processing-time greedy: heaviest box to the lightest rank.
      std::vector<std::size_t> order(n);
      std::iota(order.begin(), order.end(), 0);
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return weights[a] > weights[b];
                       });
      // min-heap of (load, rank); rank index breaks ties deterministically
      using Entry = std::pair<std::int64_t, int>;
      std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
      for (int r = 0; r < nranks; ++r) heap.push({0, r});
      for (std::size_t idx : order) {
        auto [load, rank] = heap.top();
        heap.pop();
        owner[idx] = rank;
        heap.push({load + weights[idx], rank});
      }
      break;
    }
    case DistributionStrategy::kSfc: {
      // Order boxes along the Morton curve of their centers, then cut the
      // curve into nranks contiguous chunks of near-equal weight.
      std::vector<std::size_t> order(n);
      std::iota(order.begin(), order.end(), 0);
      std::vector<std::uint64_t> code(n);
      for (std::size_t i = 0; i < n; ++i) {
        const Box& b = ba[i];
        const auto cx = static_cast<std::uint32_t>(
            (b.lo(0) + b.hi(0)) / 2 + (1 << 30));
        const auto cy = static_cast<std::uint32_t>(
            (b.lo(1) + b.hi(1)) / 2 + (1 << 30));
        code[i] = morton_encode(cx, cy);
      }
      std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return code[a] < code[b];
      });
      const std::int64_t total =
          std::accumulate(weights.begin(), weights.end(), std::int64_t{0});
      const double per_rank =
          static_cast<double>(total) / static_cast<double>(nranks);
      std::int64_t acc = 0;
      int rank = 0;
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t idx = order[k];
        // advance to the next rank when this rank's share is already met
        while (rank < nranks - 1 &&
               static_cast<double>(acc) >= per_rank * (rank + 1)) {
          ++rank;
        }
        owner[idx] = rank;
        acc += weights[idx];
      }
      break;
    }
  }
  return DistributionMapping(std::move(owner), nranks);
}

std::vector<std::size_t> DistributionMapping::boxes_of(int rank) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < owner_.size(); ++i)
    if (owner_[i] == rank) out.push_back(i);
  return out;
}

}  // namespace amrio::mesh
