#include "staging/aggregator.hpp"

#include <string>

#include "util/assert.hpp"

namespace amrio::staging {

AggTopology AggTopology::make(int nranks, int aggregators) {
  if (nranks < 1)
    throw std::invalid_argument("AggTopology: nranks must be >= 1 (got " +
                                std::to_string(nranks) + ")");
  if (aggregators < 1)
    throw std::invalid_argument(
        "AggTopology: aggregator count must be positive (got " +
        std::to_string(aggregators) + ")");
  if (aggregators > nranks)
    throw std::invalid_argument(
        "AggTopology: aggregator count " + std::to_string(aggregators) +
        " exceeds rank count " + std::to_string(nranks));
  return AggTopology(nranks, aggregators);
}

int AggTopology::first_rank_of(int group) const {
  AMRIO_EXPECTS(group >= 0 && group <= ngroups_);
  const int base = nranks_ / ngroups_;
  const int rem = nranks_ % ngroups_;
  // first `rem` groups hold base+1 ranks (remainder round-robined forward)
  if (group <= rem) return group * (base + 1);
  return rem * (base + 1) + (group - rem) * base;
}

int AggTopology::group_of(int rank) const {
  AMRIO_EXPECTS(rank >= 0 && rank < nranks_);
  const int base = nranks_ / ngroups_;
  const int rem = nranks_ % ngroups_;
  const int fat = rem * (base + 1);  // ranks covered by the base+1 groups
  if (rank < fat) return rank / (base + 1);
  return rem + (rank - fat) / base;
}

int AggTopology::aggregator_of_group(int group) const {
  AMRIO_EXPECTS(group >= 0 && group < ngroups_);
  return first_rank_of(group);
}

std::vector<int> AggTopology::members_of(int group) const {
  AMRIO_EXPECTS(group >= 0 && group < ngroups_);
  std::vector<int> out;
  const int lo = first_rank_of(group);
  const int hi = first_rank_of(group + 1);
  out.reserve(static_cast<std::size_t>(hi - lo));
  for (int r = lo; r < hi; ++r) out.push_back(r);
  return out;
}

double ship_cost(const AggregationConfig& cfg, std::uint64_t bytes,
                 int nmessages) {
  AMRIO_EXPECTS(cfg.link_bandwidth > 0);
  AMRIO_EXPECTS(cfg.link_latency >= 0);
  AMRIO_EXPECTS(nmessages >= 0);
  if (bytes == 0 && nmessages == 0) return 0.0;
  return static_cast<double>(bytes) / cfg.link_bandwidth +
         cfg.link_latency * nmessages;
}

}  // namespace amrio::staging
