#include "plotfile/scanner.hpp"

#include <algorithm>
#include <optional>
#include <set>

#include "util/format.hpp"

namespace amrio::plotfile {

namespace {

std::optional<std::int64_t> parse_step_suffix(const std::string& name,
                                              const std::string& prefix) {
  if (!name.starts_with(prefix)) return std::nullopt;
  const std::string digits = name.substr(prefix.size());
  if (digits.empty()) return std::nullopt;
  for (char c : digits)
    if (c < '0' || c > '9') return std::nullopt;
  return std::stoll(digits);
}

std::optional<int> parse_level_dir(const std::string& seg) {
  if (!seg.starts_with("Level_")) return std::nullopt;
  const std::string digits = seg.substr(6);
  if (digits.empty()) return std::nullopt;
  for (char c : digits)
    if (c < '0' || c > '9') return std::nullopt;
  return std::stoi(digits);
}

std::optional<int> parse_task_file(const std::string& seg) {
  if (!seg.starts_with("Cell_D_")) return std::nullopt;
  const std::string digits = seg.substr(7);
  if (digits.empty()) return std::nullopt;
  for (char c : digits)
    if (c < '0' || c > '9') return std::nullopt;
  return std::stoi(digits);
}

}  // namespace

ScanResult scan_plotfiles(const pfs::StorageBackend& backend,
                          const std::string& plot_prefix) {
  ScanResult result;
  std::set<std::pair<std::int64_t, std::string>> dirs;

  for (const auto& path : backend.list(plot_prefix)) {
    const auto segs = util::split(path, '/');
    if (segs.empty()) continue;
    const auto step = parse_step_suffix(segs[0], plot_prefix);
    if (!step) continue;

    const std::uint64_t bytes = backend.size(path);
    result.total_bytes += bytes;
    ++result.nfiles;
    dirs.insert({*step, segs[0]});

    int level = -1;
    int rank = -1;
    if (segs.size() >= 3) {
      if (const auto l = parse_level_dir(segs[1])) {
        level = *l;
        if (const auto r = parse_task_file(segs[2])) rank = *r;
      }
    }
    result.table[{*step, level, rank}] += bytes;
  }

  for (const auto& [step, dir] : dirs) result.plotfile_dirs.push_back(dir);
  return result;
}

}  // namespace amrio::plotfile
