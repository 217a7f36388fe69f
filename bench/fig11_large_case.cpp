/// Fig. 11 reproduction: the large-mesh Sedov case (paper: 8192² L0 on 64
/// Summit nodes) where refined-level output is a vanishing fraction of the
/// total — per-step output is nearly constant with occasional discrete jumps
/// at regrids, and a first-order MACSio kernel still lands in the right
/// vicinity.
///
/// Method: simulate the AMR dynamics at a tractable mesh, then *analytically
/// upscale* every level layout to the paper's 8192² geometry and price the
/// plotfiles byte-exactly with predict_plotfile (no data allocated), in place
/// of simulating the 8192² mesh itself.

#include <cstdio>

#include "bench_common.hpp"
#include "core/amrio.hpp"
#include "hydro/derive.hpp"
#include "plotfile/writer.hpp"
#include "util/ascii_plot.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace amrio;
  const auto ctx = bench::parse_bench_args(
      argc, argv, "fig11_large_case",
      "Fig. 11: large-mesh near-constant output with regrid jumps");
  bench::banner("Fig. 11 — 8192^2 L0 Sedov output vs MACSio kernel",
                "paper Fig. 11 (large case, 64 Summit nodes)");

  // 1. Simulate the hierarchy dynamics at a tractable scale. A small blast
  //    in a large domain keeps the refined share tiny, as at paper scale.
  const int sim_cells = ctx.full ? 1024 : 512;
  const int target_cells = 8192;
  const int upscale = target_cells / sim_cells;
  core::CaseConfig config;
  config.name = "large";
  config.ncell = sim_cells;
  config.max_level = 2;
  config.max_step = 40;
  config.plot_int = 1;
  config.cfl = 0.5;
  config.nprocs = 256;
  config.max_grid_size = sim_cells / 8;
  auto inputs = config.to_inputs();
  inputs.sedov_r_init = 0.02;  // small blast: refined fraction stays tiny
  inputs.plot_int = -1;        // we price plotfiles analytically below

  std::printf("simulating %d^2 mesh dynamics, upscaling layouts x%d to %d^2...\n\n",
              sim_cells, upscale, target_cells);
  amr::AmrCore core(inputs);
  core.init();

  // 2. At every step, upscale the live level layouts to 8192² and price the
  //    plotfile exactly.
  std::vector<double> steps;
  std::vector<double> bytes_per_step;
  auto price_step = [&](std::int64_t step) {
    std::vector<plotfile::LevelLayout> layouts;
    for (int l = 0; l < core.num_levels(); ++l) {
      const auto& lev = core.level(l);
      mesh::BoxArray ba = lev.state.box_array().refine(upscale);
      // keep max_grid_size at the paper's scale by re-chopping
      ba = ba.max_size(256, inputs.blocking_factor);
      const mesh::Geometry geom(lev.geom.domain().refine(upscale),
                                lev.geom.prob_lo(), lev.geom.prob_hi());
      auto dm = mesh::DistributionMapping::make(ba, config.nprocs,
                                                inputs.distribution);
      layouts.push_back({geom, std::move(ba), std::move(dm)});
    }
    plotfile::PlotfileSpec spec;
    spec.dir = "large_plt" + util::zero_pad(static_cast<std::uint64_t>(step), 5);
    spec.var_names = hydro::plot_var_names();
    spec.time = core.time();
    spec.step = step;
    spec.job_info = "fig11 large case\n";
    const auto stats =
        plotfile::predict_plotfile(spec, layouts, hydro::num_plot_vars());
    steps.push_back(static_cast<double>(step));
    bytes_per_step.push_back(static_cast<double>(stats.total_bytes));
  };

  price_step(0);
  while (core.step() < inputs.max_step) {
    core.advance(core.compute_dt());
    if (core.step() % inputs.regrid_int == 0) core.regrid();
    price_step(core.step());
  }

  // 3. MACSio first-order kernel: constant part size from the first output,
  //    growth from the observed series.
  macsio::Params base = model::static_translation(inputs);
  base.nprocs = config.nprocs;
  base.num_dumps = static_cast<int>(bytes_per_step.size());
  const auto psfit = model::fit_part_size(base, bytes_per_step.front(),
                                          static_cast<std::int64_t>(target_cells) *
                                              target_cells);
  base.part_size = psfit.part_size;
  const auto calib = model::calibrate_growth(base, bytes_per_step, 1.0, 1.001);
  const auto proxy = model::macsio_per_dump_bytes(calib.params);

  std::vector<util::Series> series(2);
  series[0].label = "simulation (8192^2 layouts, exact pricing)";
  series[0].x = steps;
  series[0].y = bytes_per_step;
  series[1].label = "MACSio kernel (growth " +
                    util::format_g(calib.best_growth, 8) + ")";
  series[1].x = steps;
  series[1].y = proxy;
  util::PlotOptions opts;
  opts.height = 20;
  opts.title = "per-step output bytes at 8192^2 (near-constant, regrid jumps)";
  opts.x_label = "timestep";
  opts.y_label = "bytes/step";
  std::printf("%s\n", util::plot_xy(series, opts).c_str());

  util::CsvWriter csv(bench::csv_path(ctx, "fig11_large_case.csv"));
  csv.header({"step", "sim_bytes", "proxy_bytes"});
  for (std::size_t i = 0; i < steps.size(); ++i) {
    csv.field(steps[i]).field(bytes_per_step[i]).field(proxy[i]);
    csv.endrow();
  }

  // analysis: variation is tiny, jumps are discrete
  double lo = bytes_per_step[0];
  double hi = bytes_per_step[0];
  int jumps = 0;
  for (std::size_t i = 1; i < bytes_per_step.size(); ++i) {
    lo = std::min(lo, bytes_per_step[i]);
    hi = std::max(hi, bytes_per_step[i]);
    if (bytes_per_step[i] != bytes_per_step[i - 1]) ++jumps;
  }
  const double variation = (hi - lo) / lo;
  double max_err = 0.0;
  for (std::size_t i = 0; i < proxy.size(); ++i)
    max_err = std::max(max_err,
                       std::abs(proxy[i] - bytes_per_step[i]) / bytes_per_step[i]);

  util::TextTable table({"quantity", "value"});
  table.add_row({"L0 bytes/step (8 vars)",
                 util::format_g(8.0 * 8 * target_cells * target_cells, 5)});
  table.add_row({"per-step total range", util::format_g(lo, 6) + " - " +
                                            util::format_g(hi, 6)});
  table.add_row({"relative variation", util::format_g(variation, 4)});
  table.add_row({"discrete regrid jumps", std::to_string(jumps)});
  table.add_row({"Eq.3 correction factor f", util::format_g(psfit.f, 5)});
  table.add_row({"kernel max relative error", util::format_g(max_err, 4)});
  std::printf("%s", table.to_string().c_str());
  std::printf("\n(paper Fig. 11: total ≈ 1.841e10 bytes varying by ~3e-5 with a\n"
              " jump near convergence; here the same near-constant + jump shape\n"
              " at the same 8192^2 geometry)\n");

  const bool ok = variation < 0.05 && jumps >= 1 && max_err < 0.05;
  std::printf("shape check (near-constant, jumps, kernel in vicinity): %s\n",
              ok ? "OK" : "MISMATCH");
  std::printf("csv: %s\n", csv.path().c_str());
  return ok ? 0 : 1;
}
