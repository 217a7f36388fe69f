#pragma once
/// \file inputs.hpp
/// Typed view of a Castro/AMReX inputs file. Parses the exact key set of the
/// paper's Listing 2 (`inputs.2d.cyl_in_cartcoords`) plus the paper's Table I
/// sweep parameters, and a small `amrio.*` extension namespace for the things
/// Summit's job launcher provided externally (virtual rank count, etc.).

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "mesh/distribution.hpp"
#include "util/inputs.hpp"

namespace amrio::amr {

struct AmrInputs {
  // -- INPUTS TO MAIN PROGRAM
  std::int64_t max_step = 500;
  double stop_time = 0.1;

  // -- PROBLEM SIZE & GEOMETRY
  std::array<double, 2> prob_lo{0.0, 0.0};
  std::array<double, 2> prob_hi{1.0, 1.0};
  std::array<int, 2> n_cell{32, 32};

  // -- REFINEMENT / REGRIDDING (Table I: amr.max_level)
  int max_level = 3;              ///< finest allowed level index
  int ref_ratio = 2;
  int regrid_int = 2;
  int blocking_factor = 8;
  int max_grid_size = 256;
  double grid_eff = 0.7;          ///< amr.grid_eff clustering efficiency
  int n_error_buf = 1;            ///< tag buffer cells

  // -- TIME STEP CONTROL (Table I: castro.cfl)
  double cfl = 0.5;
  double init_shrink = 0.01;
  double change_max = 1.1;

  // -- WHICH PHYSICS
  bool do_hydro = true;

  // -- PLOTFILES (Table I: amr.plot_int)
  std::string plot_file = "sedov_2d_cyl_in_cart_plt";
  std::int64_t plot_int = 20;
  std::string derive_plot_vars = "ALL";

  // -- CHECKPOINT FILES
  std::string check_file = "sedov_2d_cyl_in_cart_chk";
  std::int64_t check_int = -1;   ///< <=0 disables checkpoints

  // -- tagging thresholds (Castro keeps these in the probin file; we keep
  //    them in the same inputs file under `tagging.*`)
  double tag_dens_grad_rel = 0.25;
  double tag_pres_grad_rel = 0.25;

  // -- Sedov problem setup (Castro's probin equivalent, `sedov.*`)
  double sedov_rho_ambient = 1.0;
  double sedov_p_ambient = 1.0e-5;
  double sedov_blast_energy = 1.0;
  double sedov_r_init = 0.01;
  std::array<double, 2> sedov_center{0.5, 0.5};
  double gamma = 1.4;

  // -- amrio extensions: what `jsrun -n nprocs` provided on Summit
  int nprocs = 1;                 ///< virtual MPI ranks (amrio.nprocs)
  mesh::DistributionStrategy distribution =
      mesh::DistributionStrategy::kSfc;  ///< amrio.distribution

  /// Parse from inputs-file text/path. Unknown keys are ignored (AMReX
  /// semantics: codes read only the keys they know).
  static AmrInputs from_inputs(const util::InputsFile& in);
  static AmrInputs from_file(const std::string& path);

  /// The paper's Listing 2 baseline configuration.
  static AmrInputs sedov_baseline();

  /// Serialize to inputs-file form (round-trips through from_inputs).
  util::InputsFile to_inputs() const;

  /// Throw ContractViolation on inconsistent values (negative sizes, cfl out
  /// of (0,1], blocking factor not dividing n_cell, ...).
  void validate() const;

  /// Total level-0 cells (the `ncells` of the paper's Eq. (1)).
  std::int64_t ncells0() const {
    return static_cast<std::int64_t>(n_cell[0]) * n_cell[1];
  }
};

}  // namespace amrio::amr
