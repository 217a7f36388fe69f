#pragma once
/// \file campaign.hpp
/// Parameterized run campaign: execute a Castro-Sedov case end-to-end (AMR
/// simulation → N-to-N plotfiles → scan), producing the per-(step, level,
/// task) byte tables and Eq. (1) series the paper's §IV-A derives from its 47
/// Summit runs.

#include <memory>
#include <vector>

#include "amr/core.hpp"
#include "core/case_def.hpp"
#include "exec/engine.hpp"
#include "iostats/aggregate.hpp"
#include "model/translate.hpp"
#include "pfs/backend.hpp"

namespace amrio::core {

struct RunRecord {
  CaseConfig config;
  amr::AmrInputs inputs;
  iostats::SizeTable table;                        ///< (step, level, rank) bytes
  iostats::CumulativeSeries total;                 ///< Eq. (1) series, all output
  std::vector<iostats::CumulativeSeries> per_level;///< per-AMR-level series
  std::vector<amr::StepRecord> steps;              ///< per-step sim history
  std::uint64_t total_bytes = 0;
  std::uint64_t nfiles = 0;
  int nlevels = 1;
  double wall_seconds = 0.0;

  /// Measurements feeding the Listing-1 translation.
  model::RunMeasurements measurements() const;
};

struct CampaignOptions {
  /// Also write checkpoints every check_int steps (0 = disabled).
  std::int64_t check_int = 0;
};

/// Run one case: simulate, write plotfiles into `backend` (a fresh counting
/// MemoryBackend when null), scan, aggregate.
RunRecord run_case(const CaseConfig& config, const CampaignOptions& opts = {},
                   pfs::StorageBackend* backend = nullptr);

/// The plot hook used by run_case, exposed so examples can compose it with a
/// live AmrCore: derives plot variables and writes one plotfile on `engine`,
/// which needs `core.inputs().nprocs` ranks.
void write_plot_for(exec::Engine& engine, const amr::AmrCore& core,
                    std::int64_t step, double time,
                    pfs::StorageBackend& backend);

}  // namespace amrio::core
