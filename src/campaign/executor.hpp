#pragma once
/// \file executor.hpp
/// The sharded campaign executor: run thousands of sweep cells across a
/// worker pool with work stealing, deduplicating through the shared
/// ResultCache. Determinism contract: the outcome vector (cell order,
/// per-cell results, executed/hit totals) is identical for any --jobs value
/// — each cell executes in a private engine/backend/tracer, results land at
/// the cell's input index, and duplicate keys are claimed exactly once via
/// an in-flight table (later claimants block until the first finishes and
/// then count as hits, whatever the thread interleaving). Only
/// ExecutorStats::steals is scheduling-dependent; it never reaches an
/// artifact.

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/cache.hpp"
#include "campaign/cell.hpp"
#include "campaign/result.hpp"
#include "pfs/simfs.hpp"

namespace amrio::campaign {

struct ExecutorOptions {
  /// Worker threads. 1 = run inline on the caller (no threads spawned).
  int jobs = 1;
  /// When non-empty: load this JSON cache before the run and save it back
  /// after, so a later process re-running the sweep hits warm.
  std::string cache_path;
};

struct CellOutcome {
  std::string name;        ///< CellConfig::name
  std::string key;         ///< canonical_key of the cell
  CellResult result;
  bool from_cache = false; ///< true: served by cache or in-flight dedup
};

struct ExecutorStats {
  std::uint64_t cells = 0;      ///< outcomes produced
  std::uint64_t executed = 0;   ///< cells actually simulated
  std::uint64_t cache_hits = 0; ///< cells + in-flight waits served cached
  /// Tasks a worker popped from another worker's deque. Scheduling noise —
  /// reporting only, never part of a determinism-checked artifact.
  std::uint64_t steals = 0;
};

/// Reference PFS + burst-buffer model every campaign cell is timed against
/// (one definition, which the staging, codec and restart extension studies
/// call too, so campaign CSVs stay cross-comparable with them).
pfs::SimFsConfig reference_fs_config(int ranks, bool burst_buffer);

/// Execute one cell end to end: run the MACSio proxy on the cell's engine,
/// replay its requests through `reference_fs_config`, attribute the critical
/// path, optionally read the last dump back. Pure function of the cell —
/// this is what the executor runs under a cache miss.
CellResult run_cell(const CellConfig& cell);

class CampaignExecutor {
 public:
  explicit CampaignExecutor(ExecutorOptions opts = {});

  /// Run every cell (deduplicating by canonical key) and return one outcome
  /// per input cell, in input order. Callable repeatedly; the cache and
  /// stats accumulate across calls.
  std::vector<CellOutcome> run(const std::vector<CellConfig>& cells);

  const ExecutorStats& stats() const { return stats_; }
  ResultCache& cache() { return cache_; }
  const ResultCache& cache() const { return cache_; }
  const ExecutorOptions& options() const { return opts_; }

 private:
  ExecutorOptions opts_;
  ResultCache cache_;
  ExecutorStats stats_;
};

}  // namespace amrio::campaign
