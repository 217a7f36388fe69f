#pragma once
/// \file writer.hpp
/// AMReX-native plotfile writer reproducing the exact output tree of the
/// paper's Fig. 2:
///
///   <plot_file>NNNNN/
///     Header                 top-level metadata
///     job_info               run metadata
///     Level_0/
///       Cell_H               per-level mesh metadata
///       Cell_D_00000         per-task FAB data (one file per owning rank)
///       Cell_D_00001
///     Level_1/ ...
///
/// A `Cell_D` file is created **only** for ranks that own at least one grid at
/// that level — the conditional the paper calls out ("a file is only produced
/// if there is data generated on a particular task at the corresponding mesh
/// level").
///
/// All real numbers in metadata are emitted in a fixed-width field so the
/// byte-exact `predict_plotfile` (no data touched) matches `write_plotfile`
/// exactly; the prediction path powers the paper-scale Fig. 11 reproduction.

#include <cstdint>
#include <string>
#include <vector>

#include "exec/engine.hpp"
#include "mesh/distribution.hpp"
#include "mesh/geometry.hpp"
#include "mesh/multifab.hpp"
#include "pfs/backend.hpp"

namespace amrio::plotfile {

/// One level's data to plot (valid regions of `data` are written).
struct LevelPlotData {
  mesh::Geometry geom;
  const mesh::MultiFab* data = nullptr;
};

/// One level's *layout* (no data) for size prediction.
struct LevelLayout {
  mesh::Geometry geom;
  mesh::BoxArray ba;
  mesh::DistributionMapping dm;
};

struct PlotfileSpec {
  std::string dir;  ///< e.g. "sedov_2d_cyl_in_cart_plt00020"
  std::vector<std::string> var_names;
  double time = 0.0;
  std::int64_t step = 0;
  int ref_ratio = 2;
  std::string job_info;  ///< free text stored in the job_info file
};

struct WriteStats {
  std::uint64_t total_bytes = 0;
  std::uint64_t metadata_bytes = 0;  ///< Header + job_info + Cell_H files
  std::uint64_t data_bytes = 0;      ///< Cell_D files
  std::uint64_t nfiles = 0;
  /// bytes per [level][rank] of Cell_D data (size nlevels × nranks).
  std::vector<std::vector<std::uint64_t>> rank_level_bytes;
};

/// Write a multi-level plotfile (the WriteMultiLevelPlotfile path the paper
/// identifies in Castro) on the caller's execution engine: each rank writes
/// its own `Cell_D` files, per-rank byte counts are gathered to rank 0, which
/// writes all metadata. One write body serves every engine, so the engines
/// are byte-identical by construction. The engine needs at least as many
/// ranks as every level's DistributionMapping. `scan_plotfiles` reads the
/// written tree back at (step, level, task) granularity.
WriteStats write_plotfile(exec::Engine& engine, pfs::StorageBackend& backend,
                          const PlotfileSpec& spec,
                          const std::vector<LevelPlotData>& levels);

/// Byte-exact size prediction of write_plotfile for the same spec/layouts —
/// no field data is read or written, so it runs at paper scale (8192² and
/// beyond) in microseconds.
WriteStats predict_plotfile(const PlotfileSpec& spec,
                            const std::vector<LevelLayout>& levels, int ncomp);

/// Checkpoint variant (amr.check_file / amr.check_int): same N-to-N tree with
/// a checkpoint Header carrying restart state description.
WriteStats write_checkpoint(exec::Engine& engine, pfs::StorageBackend& backend,
                            const PlotfileSpec& spec,
                            const std::vector<LevelPlotData>& levels);

/// Fixed-width (26 char) scientific rendering used for all reals in metadata.
std::string fixed_real(double v);

}  // namespace amrio::plotfile
