#include "core/case_def.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace amrio::core {

namespace {
/// Round `v` to the nearest power of two in [lo, hi].
int pow2_clamp(double v, int lo, int hi) {
  int best = lo;
  for (int p = lo; p <= hi; p *= 2) {
    if (std::abs(static_cast<double>(p) - v) <
        std::abs(static_cast<double>(best) - v))
      best = p;
  }
  return best;
}
}  // namespace

amr::AmrInputs CaseConfig::to_inputs() const {
  amr::AmrInputs in = amr::AmrInputs::sedov_baseline();
  in.n_cell = {ncell, ncell};
  in.max_level = max_level;
  in.plot_int = plot_int;
  in.cfl = cfl;
  in.nprocs = nprocs;
  in.max_step = max_step;
  in.max_grid_size = max_grid_size;
  in.blocking_factor = blocking_factor;
  in.distribution = distribution;
  // Let max_step bind (the paper's sweeps fix step counts, and a fixed output
  // count keeps the Eq. (1) series comparable across cases).
  in.stop_time = 1.0e3;
  // A blast radius of 5% of the domain is ≥3 cells at every campaign scale,
  // so the initial deposit (and hence refinement) is resolution-robust.
  in.sedov_r_init = 0.05;
  in.plot_file = name + "_plt";
  in.check_file = name + "_chk";
  in.validate();
  return in;
}

CaseConfig case4(double scale) {
  AMRIO_EXPECTS(scale > 0 && scale <= 1.0);
  CaseConfig c;
  c.name = "case4";
  c.ncell = pow2_clamp(512.0 * scale, 64, 512);
  c.max_level = 3;  // "4 levels" (L0..L3) in the paper's Fig. 9 description
  c.max_step = 200;
  c.plot_int = 10;  // 20 output events after step 0
  c.cfl = 0.4;
  c.nprocs = 32;
  c.max_grid_size = std::max(16, c.ncell / 8);
  return c;
}

CaseConfig case27(double scale) {
  AMRIO_EXPECTS(scale > 0 && scale <= 1.0);
  CaseConfig c;
  c.name = "case27";
  c.ncell = pow2_clamp(1024.0 * scale, 128, 1024);
  c.max_level = 3;  // 4 mesh levels, as in Fig. 8
  c.max_step = 50;
  c.plot_int = 10;  // 5 output steps after plt00000
  c.cfl = 0.5;
  c.nprocs = 64;
  c.max_grid_size = std::max(16, c.ncell / 16);
  return c;
}

}  // namespace amrio::core
