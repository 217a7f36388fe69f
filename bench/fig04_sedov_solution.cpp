/// Fig. 4 reproduction: the Sedov 2D pivot case — (a) the AMR mesh with
/// moving refined levels, (b) the Mach number solution after 20 timesteps.
/// Rendered as ASCII heatmaps plus hierarchy statistics.

#include <cstdio>

#include "amr/core.hpp"
#include "bench_common.hpp"
#include "core/case_def.hpp"
#include "hydro/derive.hpp"
#include "util/ascii_plot.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace amrio;
  const auto ctx = bench::parse_bench_args(
      argc, argv, "fig04_sedov_solution", "Fig. 4: Sedov AMR mesh + Mach");
  bench::banner("Fig. 4 — Sedov 2D: AMR mesh and Mach number after 20 steps",
                "paper Fig. 4 (a) mesh levels, (b) Mach number");

  // Castro's "after 20 timesteps" is 20 subcycled coarse steps; our driver is
  // non-subcycled with init_shrink ramping, so the same evolution takes more
  // (much cheaper) steps.
  core::CaseConfig config;
  config.name = "fig4";
  config.ncell = ctx.full ? 256 : 96;
  config.max_level = 2;
  config.max_step = ctx.full ? 300 : 150;
  config.plot_int = 0;  // no I/O; this figure is about the solution
  config.nprocs = 1;
  config.max_grid_size = 32;
  auto inputs = config.to_inputs();
  inputs.plot_int = -1;
  inputs.cfl = 0.5;

  amr::AmrCore core(inputs);
  core.init();
  core.run({});
  std::printf("ran %lld steps to t=%.4e with %d levels\n\n",
              static_cast<long long>(core.step()), core.time(),
              core.num_levels());

  // (a) mesh: render refinement level per L0 cell
  const int n = config.ncell;
  std::vector<double> level_map(static_cast<std::size_t>(n) * n, 0.0);
  for (int l = 1; l < core.num_levels(); ++l) {
    const auto& ba = core.level(l).state.box_array();
    const int ratio = 1 << l;
    for (const auto& b : ba.boxes()) {
      const auto cb = b.coarsen(ratio);
      for (int j = cb.lo(1); j <= cb.hi(1); ++j)
        for (int i = cb.lo(0); i <= cb.hi(0); ++i)
          if (i >= 0 && i < n && j >= 0 && j < n)
            level_map[static_cast<std::size_t>(j) * n + i] =
                std::max(level_map[static_cast<std::size_t>(j) * n + i],
                         static_cast<double>(l));
    }
  }
  std::printf("%s\n",
              util::heatmap(level_map, n, n,
                            "(a) AMR mesh: refinement level (darker = finer)")
                  .c_str());

  // (b) Mach number on the L0 grid (averaged down, so the ring shows even
  // where fine levels carry the solution)
  const auto derived = core.derive_level(0);
  std::vector<double> mach(static_cast<std::size_t>(n) * n, 0.0);
  const int mach_comp = hydro::plot_var_index("MachNumber");
  for (std::size_t b = 0; b < derived.nfabs(); ++b) {
    const auto& fab = derived.fab(b);
    const auto box = derived.valid_box(b);
    for (int j = box.lo(1); j <= box.hi(1); ++j)
      for (int i = box.lo(0); i <= box.hi(0); ++i)
        mach[static_cast<std::size_t>(j) * n + i] = fab({i, j}, mach_comp);
  }
  std::printf("%s\n",
              util::heatmap(mach, n, n, "(b) Mach number (darker = faster)")
                  .c_str());

  // hierarchy statistics: the refined levels hug the blast front
  util::TextTable table({"level", "grids", "cells", "fraction of domain"});
  util::CsvWriter csv(bench::csv_path(ctx, "fig04_sedov_solution.csv"));
  csv.header({"level", "grids", "cells", "domain_fraction"});
  for (int l = 0; l < core.num_levels(); ++l) {
    const auto& lev = core.level(l);
    const double frac = static_cast<double>(lev.state.num_pts()) /
                        static_cast<double>(lev.geom.domain().num_pts());
    std::string level_name = "L";
    level_name += std::to_string(l);
    table.add_row({level_name, std::to_string(lev.state.nfabs()),
                   std::to_string(lev.state.num_pts()),
                   util::format_g(frac, 4)});
    csv.field(static_cast<std::int64_t>(l))
        .field(static_cast<std::uint64_t>(lev.state.nfabs()))
        .field(static_cast<std::int64_t>(lev.state.num_pts()))
        .field(frac);
    csv.endrow();
  }
  std::printf("%s", table.to_string().c_str());

  // shape checks: Mach peaks off-center (expanding shock ring) and refined
  // levels cover a small fraction of the domain
  double mach_max = 0.0;
  int at_i = 0;
  int at_j = 0;
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i)
      if (mach[static_cast<std::size_t>(j) * n + i] > mach_max) {
        mach_max = mach[static_cast<std::size_t>(j) * n + i];
        at_i = i;
        at_j = j;
      }
  const double r = std::hypot(at_i - n / 2.0, at_j - n / 2.0) / n;
  std::printf("\nMach peak %.2f at radius %.2f of the domain (shock ring)\n",
              mach_max, r);
  std::printf("csv: %s\n", csv.path().c_str());
  return (mach_max > 0.5 && r > 0.02) ? 0 : 1;
}
