#include "amr/inputs.hpp"

#include "util/assert.hpp"

namespace amrio::amr {

AmrInputs AmrInputs::from_inputs(const util::InputsFile& in) {
  AmrInputs a;
  a.max_step = in.get_int_or("max_step", a.max_step);
  a.stop_time = in.get_double_or("stop_time", a.stop_time);

  if (in.contains("geometry.prob_lo")) {
    const auto v = in.get_double_list("geometry.prob_lo");
    AMRIO_EXPECTS(v.size() >= 2);
    a.prob_lo = {v[0], v[1]};
  }
  if (in.contains("geometry.prob_hi")) {
    const auto v = in.get_double_list("geometry.prob_hi");
    AMRIO_EXPECTS(v.size() >= 2);
    a.prob_hi = {v[0], v[1]};
  }
  if (in.contains("amr.n_cell")) {
    const auto v = in.get_int_list("amr.n_cell");
    AMRIO_EXPECTS(v.size() >= 2);
    a.n_cell = {static_cast<int>(v[0]), static_cast<int>(v[1])};
  }

  a.max_level = static_cast<int>(in.get_int_or("amr.max_level", a.max_level));
  if (in.contains("amr.ref_ratio")) {
    const auto v = in.get_int_list("amr.ref_ratio");
    if (!v.empty()) a.ref_ratio = static_cast<int>(v[0]);
  }
  a.regrid_int = static_cast<int>(in.get_int_or("amr.regrid_int", a.regrid_int));
  a.blocking_factor =
      static_cast<int>(in.get_int_or("amr.blocking_factor", a.blocking_factor));
  a.max_grid_size =
      static_cast<int>(in.get_int_or("amr.max_grid_size", a.max_grid_size));
  a.grid_eff = in.get_double_or("amr.grid_eff", a.grid_eff);
  a.n_error_buf =
      static_cast<int>(in.get_int_or("amr.n_error_buf", a.n_error_buf));

  a.cfl = in.get_double_or("castro.cfl", a.cfl);
  a.init_shrink = in.get_double_or("castro.init_shrink", a.init_shrink);
  a.change_max = in.get_double_or("castro.change_max", a.change_max);
  a.do_hydro = in.get_int_or("castro.do_hydro", a.do_hydro ? 1 : 0) != 0;

  a.plot_file = in.get_string_or("amr.plot_file", a.plot_file);
  a.plot_int = in.get_int_or("amr.plot_int", a.plot_int);
  a.derive_plot_vars =
      in.get_string_or("amr.derive_plot_vars", a.derive_plot_vars);

  a.check_file = in.get_string_or("amr.check_file", a.check_file);
  a.check_int = in.get_int_or("amr.check_int", a.check_int);

  a.tag_dens_grad_rel =
      in.get_double_or("tagging.dens_grad_rel", a.tag_dens_grad_rel);
  a.tag_pres_grad_rel =
      in.get_double_or("tagging.pres_grad_rel", a.tag_pres_grad_rel);

  a.sedov_rho_ambient = in.get_double_or("sedov.rho_ambient", a.sedov_rho_ambient);
  a.sedov_p_ambient = in.get_double_or("sedov.p_ambient", a.sedov_p_ambient);
  a.sedov_blast_energy =
      in.get_double_or("sedov.blast_energy", a.sedov_blast_energy);
  a.sedov_r_init = in.get_double_or("sedov.r_init", a.sedov_r_init);
  if (in.contains("sedov.center")) {
    const auto v = in.get_double_list("sedov.center");
    AMRIO_EXPECTS(v.size() >= 2);
    a.sedov_center = {v[0], v[1]};
  }
  a.gamma = in.get_double_or("castro.gamma", a.gamma);

  a.nprocs = static_cast<int>(in.get_int_or("amrio.nprocs", a.nprocs));
  if (in.contains("amrio.distribution")) {
    a.distribution = mesh::distribution_strategy_from_string(
        in.get_string("amrio.distribution"));
  }
  return a;
}

AmrInputs AmrInputs::from_file(const std::string& path) {
  return from_inputs(util::InputsFile::from_file(path));
}

AmrInputs AmrInputs::sedov_baseline() {
  // Values of the paper's Listing 2.
  AmrInputs a;
  a.max_step = 500;
  a.stop_time = 0.1;
  a.prob_lo = {0.0, 0.0};
  a.prob_hi = {1.0, 1.0};
  a.n_cell = {32, 32};
  a.max_level = 3;
  a.ref_ratio = 2;
  a.regrid_int = 2;
  a.blocking_factor = 8;
  a.max_grid_size = 256;
  a.cfl = 0.5;
  a.init_shrink = 0.01;
  a.change_max = 1.1;
  a.plot_file = "sedov_2d_cyl_in_cart_plt";
  a.plot_int = 20;
  a.check_file = "sedov_2d_cyl_in_cart_chk";
  a.check_int = -1;  // the study measures plotfiles only (paper §III-A)
  return a;
}

util::InputsFile AmrInputs::to_inputs() const {
  util::InputsFile f;
  f.set("max_step", max_step);
  f.set("stop_time", stop_time);
  f.set("geometry.prob_lo",
        std::to_string(prob_lo[0]) + " " + std::to_string(prob_lo[1]));
  f.set("geometry.prob_hi",
        std::to_string(prob_hi[0]) + " " + std::to_string(prob_hi[1]));
  f.set_list("amr.n_cell", {n_cell[0], n_cell[1]});
  f.set("amr.max_level", static_cast<std::int64_t>(max_level));
  f.set_list("amr.ref_ratio", {ref_ratio, ref_ratio, ref_ratio, ref_ratio});
  f.set("amr.regrid_int", static_cast<std::int64_t>(regrid_int));
  f.set("amr.blocking_factor", static_cast<std::int64_t>(blocking_factor));
  f.set("amr.max_grid_size", static_cast<std::int64_t>(max_grid_size));
  f.set("amr.grid_eff", grid_eff);
  f.set("amr.n_error_buf", static_cast<std::int64_t>(n_error_buf));
  f.set("castro.cfl", cfl);
  f.set("castro.init_shrink", init_shrink);
  f.set("castro.change_max", change_max);
  f.set("castro.do_hydro", static_cast<std::int64_t>(do_hydro ? 1 : 0));
  f.set("amr.plot_file", plot_file);
  f.set("amr.plot_int", plot_int);
  f.set("amr.derive_plot_vars", derive_plot_vars);
  f.set("amr.check_file", check_file);
  f.set("amr.check_int", check_int);
  f.set("tagging.dens_grad_rel", tag_dens_grad_rel);
  f.set("tagging.pres_grad_rel", tag_pres_grad_rel);
  f.set("sedov.rho_ambient", sedov_rho_ambient);
  f.set("sedov.p_ambient", sedov_p_ambient);
  f.set("sedov.blast_energy", sedov_blast_energy);
  f.set("sedov.r_init", sedov_r_init);
  f.set("sedov.center",
        std::to_string(sedov_center[0]) + " " + std::to_string(sedov_center[1]));
  f.set("castro.gamma", gamma);
  f.set("amrio.nprocs", static_cast<std::int64_t>(nprocs));
  f.set("amrio.distribution", std::string(mesh::to_string(distribution)));
  return f;
}

void AmrInputs::validate() const {
  AMRIO_EXPECTS_MSG(n_cell[0] >= 8 && n_cell[1] >= 8,
                    "amr.n_cell must be at least 8x8");
  AMRIO_EXPECTS_MSG(prob_hi[0] > prob_lo[0] && prob_hi[1] > prob_lo[1],
                    "geometry.prob_hi must exceed prob_lo");
  AMRIO_EXPECTS_MSG(max_level >= 0 && max_level <= 8,
                    "amr.max_level out of range [0,8]");
  AMRIO_EXPECTS_MSG(ref_ratio == 2 || ref_ratio == 4,
                    "amr.ref_ratio must be 2 or 4");
  AMRIO_EXPECTS_MSG(regrid_int >= 1, "amr.regrid_int must be >= 1");
  AMRIO_EXPECTS_MSG(blocking_factor >= 1 &&
                        (blocking_factor & (blocking_factor - 1)) == 0,
                    "amr.blocking_factor must be a power of two");
  AMRIO_EXPECTS_MSG(max_grid_size >= blocking_factor,
                    "amr.max_grid_size must be >= blocking_factor");
  AMRIO_EXPECTS_MSG(n_cell[0] % blocking_factor == 0 &&
                        n_cell[1] % blocking_factor == 0,
                    "amr.n_cell must be a multiple of blocking_factor");
  AMRIO_EXPECTS_MSG(cfl > 0.0 && cfl <= 1.0, "castro.cfl must be in (0,1]");
  AMRIO_EXPECTS_MSG(init_shrink > 0.0 && init_shrink <= 1.0,
                    "castro.init_shrink must be in (0,1]");
  AMRIO_EXPECTS_MSG(change_max >= 1.0, "castro.change_max must be >= 1");
  AMRIO_EXPECTS_MSG(max_step >= 0, "max_step must be >= 0");
  AMRIO_EXPECTS_MSG(stop_time > 0.0, "stop_time must be positive");
  AMRIO_EXPECTS_MSG(nprocs >= 1, "amrio.nprocs must be >= 1");
  AMRIO_EXPECTS_MSG(sedov_r_init > 0.0, "sedov.r_init must be positive");
  AMRIO_EXPECTS_MSG(gamma > 1.0, "castro.gamma must exceed 1");
}

}  // namespace amrio::amr
