#pragma once
/// \file aggregator.hpp
/// Two-phase collective aggregation topology (ADIOS2-BP-style subfiling,
/// Hercule-style output restructuring): the ranks of an SPMD dump are
/// partitioned into `aggregators` contiguous groups; non-aggregator ranks
/// ship their serialized task documents to the first rank of their group
/// (the aggregator) over point-to-point messages, and only aggregators open
/// files — a 512-rank dump produces 8 subfiles plus one index instead of 512
/// files hammering the MDS.
///
/// The partition is deterministic: with nranks = q·aggregators + r, the first
/// r groups get q+1 ranks and the rest get q (the remainder is round-robined
/// over the leading groups), so equal inputs always yield equal subfiles.

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace amrio::staging {

/// Knobs of the aggregation phase. `link_*` model the interconnect a shipped
/// byte crosses on its way to the aggregator; the cost lands on the logical
/// clock of the aggregated write request (the data cannot reach the file
/// system before it has reached the aggregator).
struct AggregationConfig {
  int aggregators = 0;              ///< number of groups; 0 = disabled
  double link_bandwidth = 12.5e9;   ///< bytes/sec rank → aggregator
  double link_latency = 1.0e-6;     ///< seconds per shipped message
};

/// Deterministic contiguous partition of [0, nranks) into aggregation groups.
class AggTopology {
 public:
  /// Throws std::invalid_argument unless 1 <= aggregators <= nranks.
  static AggTopology make(int nranks, int aggregators);

  int nranks() const { return nranks_; }
  int ngroups() const { return ngroups_; }

  /// Group of a rank (groups are contiguous rank ranges).
  int group_of(int rank) const;
  /// First rank of a group — the member that opens the subfile.
  int aggregator_of_group(int group) const;
  /// Aggregator rank serving `rank`'s group.
  int aggregator_of(int rank) const { return aggregator_of_group(group_of(rank)); }
  bool is_aggregator(int rank) const { return aggregator_of(rank) == rank; }
  /// Members of a group in ascending rank order (aggregator first).
  std::vector<int> members_of(int group) const;

 private:
  AggTopology(int nranks, int ngroups) : nranks_(nranks), ngroups_(ngroups) {}
  int first_rank_of(int group) const;

  int nranks_ = 0;
  int ngroups_ = 0;
};

/// Logical-clock cost of shipping `bytes` to an aggregator in `nmessages`
/// point-to-point sends. Zero when nothing is shipped (the aggregator's own
/// document never crosses the link).
double ship_cost(const AggregationConfig& cfg, std::uint64_t bytes,
                 int nmessages);

}  // namespace amrio::staging
