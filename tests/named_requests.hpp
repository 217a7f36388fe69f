#pragma once
/// Hand-written SimFs batches for tests: requests that name their file by
/// path text, turned into a pfs::IoBatch with one path-table entry per
/// distinct path, in order of first appearance.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "pfs/simfs.hpp"

namespace amrio_test {

struct NamedRequest {
  int client = 0;
  double submit_time = 0.0;
  std::string file;
  std::uint64_t bytes = 0;
  int tier = amrio::pfs::kTierPfs;
  int op = amrio::pfs::kOpWrite;
};

inline amrio::pfs::IoBatch make_batch(const std::vector<NamedRequest>& reqs) {
  amrio::pfs::IoBatch batch;
  std::map<std::string, std::uint32_t> index;
  for (const NamedRequest& r : reqs) {
    const auto [it, fresh] = index.try_emplace(r.file, 0);
    if (fresh) it->second = batch.add_file(r.file);
    batch.requests.push_back(
        {r.client, it->second, r.submit_time, r.bytes, r.tier, r.op});
  }
  return batch;
}

}  // namespace amrio_test
