#include "staging/restage.hpp"

#include <algorithm>
#include <string_view>
#include <unordered_set>

#include "util/assert.hpp"

namespace amrio::staging {

std::uint64_t RestagePlan::raw_bytes() const {
  std::uint64_t total = 0;
  for (const auto& e : extents) total += e.raw_bytes;
  return total;
}

std::uint64_t RestagePlan::encoded_bytes() const {
  std::uint64_t total = 0;
  for (const auto& e : extents) total += e.encoded_bytes;
  return total;
}

double RestagePlan::decode_gate() const {
  double gate = 0.0;
  for (const auto& s : slices) gate = std::max(gate, s.decode_seconds);
  return gate;
}

pfs::IoBatch RestagePlan::read_requests(double clock, bool prefetch) const {
  pfs::IoBatch batch;
  batch.files.reserve(extents.size());
  for (const auto& e : extents) batch.files.push_back(e.file);
  // Fetch units: whole extents when an aggregator pulls for its group, the
  // rank's own slice otherwise. Extent e is path-table entry e.
  struct Fetch {
    int client;
    std::uint32_t file;
    std::uint64_t bytes;
  };
  std::vector<Fetch> fetches;
  if (aggregated_) {
    fetches.reserve(extents.size());
    for (std::size_t e = 0; e < extents.size(); ++e)
      fetches.push_back({extents[e].reader, static_cast<std::uint32_t>(e),
                         extents[e].encoded_bytes});
  } else {
    fetches.reserve(slices.size());
    for (const auto& s : slices)
      fetches.push_back({s.rank, static_cast<std::uint32_t>(s.extent),
                         s.encoded_bytes});
  }
  batch.requests.reserve(fetches.size() * (prefetch ? 2 : 1));
  for (const auto& f : fetches) {
    if (prefetch)
      batch.requests.push_back(pfs::IoRequest{f.client, f.file, clock, f.bytes,
                                              pfs::kTierBurstBuffer,
                                              pfs::kOpPrefetch});
    batch.requests.push_back(pfs::IoRequest{
        f.client, f.file, clock, f.bytes,
        prefetch ? pfs::kTierBurstBuffer : pfs::kTierPfs, pfs::kOpRead});
  }
  return batch;
}

RestagePlan make_restage_plan(const std::vector<std::string>& files,
                              const std::vector<std::uint64_t>& raw_bytes,
                              const codec::Codec& codec,
                              const AggTopology* topo) {
  AMRIO_EXPECTS_MSG(files.size() == raw_bytes.size(),
                    "make_restage_plan: one file and one size per rank");
  AMRIO_EXPECTS_MSG(!files.empty(), "make_restage_plan: no ranks");
  if (topo != nullptr)
    AMRIO_EXPECTS_MSG(topo->nranks() == static_cast<int>(files.size()),
                      "make_restage_plan: topology rank count mismatch");

  RestagePlan plan;
  plan.aggregated_ = topo != nullptr;
  plan.slices.reserve(files.size());
  // Files that opened an extent; views into `files`, which outlives the loop.
  std::unordered_set<std::string_view> seen;
  seen.reserve(files.size());
  for (int r = 0; r < static_cast<int>(files.size()); ++r) {
    const std::string& file = files[static_cast<std::size_t>(r)];
    const std::uint64_t raw = raw_bytes[static_cast<std::size_t>(r)];
    const bool continues =
        !plan.extents.empty() && plan.extents.back().file == file;
    if (!continues) {
      // Ranks sharing a file must be contiguous: a file seen before the
      // previous rank's cannot reappear.
      AMRIO_EXPECTS_MSG(seen.insert(file).second,
                        "make_restage_plan: ranks of a shared file must be "
                        "contiguous");
      RestageExtent extent;
      extent.file = file;
      extent.reader = topo != nullptr ? topo->aggregator_of(r) : r;
      plan.extents.push_back(std::move(extent));
      if (topo != nullptr)
        AMRIO_EXPECTS_MSG(plan.extents.back().reader == r,
                          "make_restage_plan: a subfile must start at its "
                          "group's aggregator");
    }
    RestageExtent& extent = plan.extents.back();
    const codec::CompressResult enc = codec.plan(raw);
    RestageSlice slice;
    slice.rank = r;
    slice.file = file;
    slice.extent = plan.extents.size() - 1;
    slice.offset = extent.raw_bytes;
    slice.raw_bytes = raw;
    slice.encoded_bytes = enc.out_bytes;
    slice.decode_seconds = codec.decode_seconds(raw);
    extent.raw_bytes += raw;
    extent.encoded_bytes += enc.out_bytes;
    ++extent.nslices;
    plan.slices.push_back(std::move(slice));
  }
  return plan;
}

}  // namespace amrio::staging
