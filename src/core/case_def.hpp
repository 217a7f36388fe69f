#pragma once
/// \file case_def.hpp
/// The paper's experiment matrix. Table III ranges (Sedov on Summit):
///
///   amr.max_step   40 – 1000        amr.n_cell  32² – 131072²
///   amr.max_level  2 – 4            amr.plot_int 1 – 20
///   castro.cfl     0.3 – 0.6        nprocs      1 – 1024
///
/// plus the named pivots: case4 (512², 32 tasks, 20 outputs — Figs. 6/7/9/10)
/// and case27 (1024², 64 tasks — Fig. 8). Each factory takes a `scale` in
/// (0, 1] mapping the paper geometry down to laptop size (scale 1 = paper
/// scale); a bench passes its own default unless `--scale` or `--full`
/// overrides it (`pick_scale` in bench/bench_common.hpp). The Fig. 11 bench
/// builds its own large case, and the Table III grid is
/// campaign::table3_grid.

#include <string>

#include "amr/inputs.hpp"

namespace amrio::core {

struct CaseConfig {
  std::string name = "case";
  int ncell = 64;                ///< L0 cells per direction
  int max_level = 2;             ///< finest level index (amr.max_level)
  std::int64_t plot_int = 5;
  double cfl = 0.5;
  int nprocs = 4;
  std::int64_t max_step = 40;
  int max_grid_size = 32;
  int blocking_factor = 8;
  mesh::DistributionStrategy distribution = mesh::DistributionStrategy::kSfc;

  /// Full inputs for this case: the Listing-2 baseline with the sweep
  /// parameters overridden and problem defaults chosen so the blast is
  /// resolvable at every campaign scale.
  amr::AmrInputs to_inputs() const;
};

/// Pivot case4 of Figs. 6/7/9/10: paper = 512² L0, 32 tasks, 2 Summit nodes,
/// 20 output events, cfl 0.4.
CaseConfig case4(double scale = 0.5);
/// Pivot case27 of Fig. 8: paper = 1024² L0, 64 ranks, 5 output steps,
/// 4 mesh levels.
CaseConfig case27(double scale = 0.5);

}  // namespace amrio::core
