#pragma once
/// \file core.hpp
/// The Castro-like AMR driver: owns the level hierarchy, advances the Sedov
/// hydrodynamics under CFL timestep control, regrids every `amr.regrid_int`
/// steps, and schedules plotfile output every `amr.plot_int` steps — the
/// workload whose I/O the paper characterizes.
///
/// Deviations from Castro: levels advance non-subcycled with a single global
/// dt (Castro subcycles, so its "step" is a coarse step), and coarse-fine
/// flux refluxing is omitted. Both leave the AMR hierarchy dynamics — and
/// therefore the I/O footprint — intact.

#include <functional>
#include <vector>

#include "amr/cluster.hpp"
#include "amr/inputs.hpp"
#include "amr/tagging.hpp"
#include "hydro/sedov.hpp"
#include "hydro/solver.hpp"
#include "mesh/geometry.hpp"
#include "mesh/multifab.hpp"

namespace amrio::amr {

/// One AMR level: its geometry and conserved-state MultiFab.
struct AmrLevel {
  mesh::Geometry geom;
  mesh::MultiFab state;
};

/// Per-step bookkeeping the campaign layer turns into Figs. 5–8.
struct StepRecord {
  std::int64_t step = 0;
  double time = 0.0;
  double dt = 0.0;
  std::vector<std::int64_t> cells_per_level;
  std::vector<std::int64_t> grids_per_level;
  bool plotted = false;
};

class AmrCore {
 public:
  explicit AmrCore(AmrInputs inputs);
  AmrCore(const AmrCore&) = delete;
  AmrCore& operator=(const AmrCore&) = delete;

  /// Build level 0 and the initial refinement cascade from the analytic IC.
  void init();

  int finest_level() const { return static_cast<int>(levels_.size()) - 1; }
  int num_levels() const { return static_cast<int>(levels_.size()); }
  const AmrLevel& level(int l) const { return levels_.at(static_cast<std::size_t>(l)); }
  const AmrInputs& inputs() const { return inputs_; }
  const hydro::HydroSolver& solver() const { return solver_; }
  std::int64_t step() const { return step_; }
  double time() const { return time_; }
  const std::vector<StepRecord>& history() const { return history_; }

  /// CFL-limited dt over all levels with Castro's init_shrink / change_max
  /// ramp controls applied; clamped so time never overshoots stop_time.
  double compute_dt() const;

  /// Advance every level by dt (coarse to fine, then average down).
  void advance(double dt);

  /// Re-tag and rebuild levels 1..max_level from the current solution.
  void regrid();

  /// Castro writes a plotfile at step 0 and then every plot_int steps.
  bool should_plot(std::int64_t step) const;
  /// Plotfile directory name for a step, e.g. "sedov_2d_cyl_in_cart_plt00020".
  std::string plotfile_name(std::int64_t step) const;

  /// Called whenever a plotfile is due. The hook receives the core so it can
  /// pull derived state; AmrCore itself never touches storage.
  using PlotHook = std::function<void(const AmrCore&, std::int64_t step, double time)>;

  /// Run the full time loop (init() implied if not yet done). `on_plot` fires
  /// at plotfile steps (step 0 and every plot_int); `on_step` fires at every
  /// step including 0 — checkpoint writers and other side channels hang off
  /// it independently of the plot schedule.
  void run(const PlotHook& on_plot = {}, const PlotHook& on_step = {});

  /// Derived plot variables (hydro::plot_var_names()) for one level.
  mesh::MultiFab derive_level(int l) const;

  /// Total valid cells on a level.
  std::int64_t level_cells(int l) const { return level(l).state.num_pts(); }

 private:
  void fill_ghosts(int l);
  /// Piecewise-constant prolongation of level l-1 data into `dest` cells
  /// (valid + in-domain ghosts) of level l structure.
  void interp_from_coarse(int l_fine, mesh::MultiFab& dest) const;
  void average_down();
  mesh::DistributionMapping make_dm(const mesh::BoxArray& ba) const;
  void record_step(double dt, bool plotted);
  ClusterParams cluster_params() const;

  AmrInputs inputs_;
  hydro::HydroSolver solver_;
  hydro::SedovParams sedov_;
  TaggingParams tagging_;
  std::vector<AmrLevel> levels_;
  std::int64_t step_ = 0;
  double time_ = 0.0;
  double last_dt_ = -1.0;
  bool initialized_ = false;
  std::vector<StepRecord> history_;
};

}  // namespace amrio::amr
