#pragma once
/// \file distribution.hpp
/// DistributionMapping: which virtual MPI rank owns each box of a BoxArray.
/// The paper's per-task output sizes (Fig. 8) are direct images of this
/// mapping, so we provide the strategies AMReX ships: round-robin, knapsack
/// (weight balancing), and space-filling-curve.

#include <cstdint>
#include <string>
#include <vector>

#include "mesh/boxarray.hpp"

namespace amrio::mesh {

enum class DistributionStrategy { kRoundRobin, kKnapsack, kSfc };

const char* to_string(DistributionStrategy s);
DistributionStrategy distribution_strategy_from_string(const std::string& s);

class DistributionMapping {
 public:
  DistributionMapping() = default;

  /// Build a mapping of `ba` onto `nranks` ranks. Weights default to box cell
  /// counts (the I/O-relevant weight: bytes scale with cells).
  static DistributionMapping make(const BoxArray& ba, int nranks,
                                  DistributionStrategy strategy);
  static DistributionMapping make(const BoxArray& ba, int nranks,
                                  DistributionStrategy strategy,
                                  const std::vector<std::int64_t>& weights);

  int nranks() const { return nranks_; }
  std::size_t size() const { return owner_.size(); }

  /// Box indices owned by `rank`, in BoxArray order.
  std::vector<std::size_t> boxes_of(int rank) const;

 private:
  DistributionMapping(std::vector<int> owner, int nranks)
      : owner_(std::move(owner)), nranks_(nranks) {}
  std::vector<int> owner_;
  int nranks_ = 0;
};

}  // namespace amrio::mesh
