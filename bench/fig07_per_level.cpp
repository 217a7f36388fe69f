/// Fig. 7 reproduction: cumulative output size split per AMR level (L0, L1,
/// L2) as a function of the cumulative number of output cells, for the pivot
/// case4 at two CFL numbers. Shape targets: L0 grows exactly linearly (its
/// grid never changes), refined levels grow smoothly and super-linearly.

#include <cstdio>

#include "bench_common.hpp"
#include "core/amrio.hpp"
#include "model/regression.hpp"
#include "util/ascii_plot.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace amrio;
  const auto ctx = bench::parse_bench_args(
      argc, argv, "fig07_per_level",
      "Fig. 7: per-AMR-level cumulative output size");
  bench::banner("Fig. 7 — cumulative output per AMR level (L0, L1, L2)",
                "paper Fig. 7 (pivot case4, cfl varied)");

  const double scale = ctx.pick_scale(0.25, 0.5);
  std::vector<util::Series> series;
  util::TextTable table({"cfl", "level", "log-log slope", "final bytes"});
  util::CsvWriter csv(bench::csv_path(ctx, "fig07_per_level.csv"));
  csv.header({"cfl", "level", "x", "cumulative_bytes", "per_step_bytes"});

  bool ok = true;
  for (double cfl : {0.4, 0.6}) {
    auto config = core::case4(scale);
    config.name = "case4_cfl" + util::format_g(cfl, 2);
    config.cfl = cfl;
    config.max_level = 2;  // the figure shows L0..L2
    if (!ctx.full) {
      config.max_step = 120;
      config.plot_int = 6;
    }
    const auto run = core::run_case(config);
    for (std::size_t l = 0; l < run.per_level.size(); ++l) {
      const auto& s = run.per_level[l];
      series.push_back(util::Series{
          "cfl" + util::format_g(cfl, 2) + "_L" + std::to_string(l), s.x, s.y});
      const auto power = model::fit_power(s.x, s.y);
      std::string level_name = "L";
      level_name += std::to_string(l);
      table.add_row({util::format_g(cfl, 2), level_name,
                     util::format_g(power.b, 4), util::format_g(s.y.back(), 5)});
      for (std::size_t i = 0; i < s.x.size(); ++i) {
        csv.field(cfl)
            .field(static_cast<std::int64_t>(l))
            .field(s.x[i])
            .field(s.y[i])
            .field(s.per_step[i]);
        csv.endrow();
      }
      // shape targets: L0 cumulative growth is exactly linear in the output
      // counter (slope 1); refined levels are super-linear
      if (l == 0 && std::abs(power.b - 1.0) > 0.02) ok = false;
      if (l >= 1 && power.b < 1.01) ok = false;
    }
  }

  util::PlotOptions opts;
  opts.height = 22;
  opts.title = "per-level cumulative output vs x";
  opts.x_label = "output_counter * ncells";
  opts.y_label = "bytes";
  std::printf("%s\n", util::plot_xy(series, opts).c_str());
  std::printf("%s", table.to_string().c_str());
  std::printf("\nshape check (L0 linear; L1+/L2 super-linear, smooth): %s\n",
              ok ? "OK" : "MISMATCH");
  std::printf("csv: %s\n", csv.path().c_str());
  return ok ? 0 : 1;
}
