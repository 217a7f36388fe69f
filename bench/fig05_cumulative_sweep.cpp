/// Fig. 5 reproduction: cumulative output size per output step as a function
/// of the cumulative number of output cells (Eqs. 1–2), across a sweep of
/// Sedov cases — near-linear cases plus super-linear deviations from the
/// AMR levels, spanning decades on both (log) axes.

#include <cstdio>

#include "bench_common.hpp"
#include "core/amrio.hpp"
#include "model/regression.hpp"
#include "util/ascii_plot.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace amrio;
  const auto ctx = bench::parse_bench_args(
      argc, argv, "fig05_cumulative_sweep",
      "Fig. 5: cumulative output vs cumulative cells (log-log)");
  bench::banner(
      "Fig. 5 — cumulative output size vs x = output_counter * ncells",
      "paper Fig. 5 (Eqs. 1-2), log-log multi-case sweep");

  // A spread of cases: mesh sizes over decades, with and without deep AMR.
  std::vector<core::CaseConfig> cases;
  const int big = ctx.full ? 256 : 128;
  for (int ncell : {32, 64, big}) {
    for (int max_level : {0, 2, 3}) {
      core::CaseConfig c;
      c.name = "n" + std::to_string(ncell) + "_l" + std::to_string(max_level);
      c.ncell = ncell;
      c.max_level = max_level;
      c.max_step = 40;
      c.plot_int = 4;
      c.cfl = 0.5;
      c.nprocs = std::max(1, ncell * ncell / 4096);
      c.max_grid_size = std::max(16, ncell / 4);
      cases.push_back(c);
    }
  }
  std::printf("running %zu cases...\n\n", cases.size());
  std::vector<core::RunRecord> runs;
  for (const auto& c : cases) runs.push_back(core::run_case(c));

  std::vector<util::Series> series;
  util::TextTable table({"case", "levels", "x range", "cumulative bytes",
                         "log-log slope", "R² vs linear"});
  util::CsvWriter csv(bench::csv_path(ctx, "fig05_cumulative_sweep.csv"));
  csv.header({"case", "x", "cumulative_bytes", "per_step_bytes"});
  for (const auto& run : runs) {
    series.push_back(util::Series{run.config.name, run.total.x, run.total.y});
    for (std::size_t i = 0; i < run.total.x.size(); ++i) {
      csv.field(run.config.name)
          .field(run.total.x[i])
          .field(run.total.y[i])
          .field(run.total.per_step[i]);
      csv.endrow();
    }
    // classify linear vs super-linear as the paper's regression step does
    const auto power = model::fit_power(run.total.x, run.total.y);
    const auto lin = model::fit_linear(run.total.x, run.total.y);
    table.add_row({run.config.name, std::to_string(run.nlevels),
                   util::format_g(run.total.x.front(), 3) + " - " +
                       util::format_g(run.total.x.back(), 3),
                   util::format_g(run.total.y.back(), 4),
                   util::format_g(power.b, 4), util::format_g(lin.r2, 5)});
  }

  util::PlotOptions opts;
  opts.log_x = true;
  opts.log_y = true;
  opts.height = 24;
  opts.title = "cumulative output size [bytes] vs x (log-log)";
  opts.x_label = "output_counter * ncells";
  opts.y_label = "bytes";
  std::printf("%s\n", util::plot_xy(series, opts).c_str());
  std::printf("%s", table.to_string().c_str());

  // shape targets: single-level cases are linear in the output counter
  // (slope ~1, R²~1); deep-AMR cases deviate super-linearly (slope > 1)
  bool ok = true;
  for (const auto& run : runs) {
    const auto power = model::fit_power(run.total.x, run.total.y);
    if (run.config.max_level == 0 && std::abs(power.b - 1.0) > 0.05) ok = false;
    if (run.config.max_level >= 2 && power.b < 1.02) ok = false;
  }
  std::printf("\nshape check (L0-only slope≈1; AMR cases slope>1): %s\n",
              ok ? "OK" : "MISMATCH");
  std::printf("csv: %s\n", csv.path().c_str());
  return ok ? 0 : 1;
}
