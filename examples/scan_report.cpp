/// \file scan_report.cpp
/// Offline plotfile characterization — the role of the paper's post-processing
/// stack (JupyterHub notebook + the `jexio` Julia package, Appendix A): point
/// it at a directory of plotfiles and get the full §IV-A analysis: per-step /
/// per-level / per-task byte tables, Eq. (1) cumulative series, linearity
/// classification, and load-imbalance metrics.
///
///   scan_report sedov_out --prefix sedov_2d_plt
///
/// Works on the trees written by examples/sedov_blast (and on any tree that
/// follows the AMReX plotfile layout of paper Fig. 2).

#include <cstdio>

#include "iostats/aggregate.hpp"
#include "model/regression.hpp"
#include "pfs/backend.hpp"
#include "plotfile/reader.hpp"
#include "plotfile/scanner.hpp"
#include "util/ascii_plot.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace amrio;
  util::ArgParser cli("scan_report",
                      "characterize AMReX-style plotfile output (jexio-like)");
  cli.add_option("prefix", "plotfile directory name prefix", 1,
                 std::string("sedov_2d_plt"));
  cli.add_option("ncells", "L0 cells for Eq. (1) x-axis (0 = from Header)", 1,
                 std::string("0"));
  cli.add_flag("help", "show usage");
  std::int64_t ncells = 0;
  try {
    cli.parse(argc, argv);
    if (cli.flag("help") || cli.positional().empty()) {
      std::printf("%susage: scan_report <directory> [--prefix P]\n",
                  cli.usage().c_str());
      return cli.flag("help") ? 0 : 2;
    }
    ncells = cli.get_int("ncells");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scan_report: %s\n", e.what());
    return 2;
  }

  const std::string root = cli.positional().front();
  const std::string prefix = cli.get("prefix");
  pfs::PosixBackend backend(root);
  const auto scan = plotfile::scan_plotfiles(backend, prefix);
  if (scan.plotfile_dirs.empty()) {
    std::fprintf(stderr, "no plotfiles matching '%s*' under %s\n",
                 prefix.c_str(), root.c_str());
    return 1;
  }
  std::printf("%zu plotfiles, %llu files, %s total under %s\n\n",
              scan.plotfile_dirs.size(),
              static_cast<unsigned long long>(scan.nfiles),
              util::human_bytes(scan.total_bytes).c_str(), root.c_str());

  // L0 cell count: CLI override or read from the first Header.
  int nranks = 0;
  if (ncells <= 0) {
    const auto pf0 =
        plotfile::read_plotfile(backend, scan.plotfile_dirs.front(), false);
    ncells = pf0.levels.front().geom.domain().num_pts();
    std::printf("L0 domain from Header: %s (%lld cells), %d levels, vars:",
                pf0.levels.front().geom.domain().to_string().c_str(),
                static_cast<long long>(ncells), pf0.finest_level + 1);
    for (const auto& v : pf0.var_names) std::printf(" %s", v.c_str());
    std::printf("\n\n");
  }
  for (const auto& [key, bytes] : scan.table)
    nranks = std::max(nranks, std::get<2>(key) + 1);

  // Eq. (1) series + per level.
  const auto total = iostats::cumulative_series(scan.table, ncells);
  const auto levels = iostats::levels_present(scan.table);
  util::TextTable table({"output step", "x (Eq.1)", "bytes", "cumulative",
                         "metadata share", "finest imbalance"});
  for (std::size_t i = 0; i < total.steps.size(); ++i) {
    const auto step = total.steps[i];
    const std::uint64_t meta =
        iostats::step_level_bytes(scan.table, step, -1);
    table.add_row(
        {std::to_string(step), util::format_g(total.x[i], 5),
         util::human_bytes(static_cast<std::uint64_t>(total.per_step[i])),
         util::human_bytes(static_cast<std::uint64_t>(total.y[i])),
         util::format_g(static_cast<double>(meta) / total.per_step[i], 3),
         util::format_g(iostats::task_imbalance(scan.table, step,
                                                levels.back(), nranks),
                        4)});
  }
  std::printf("%s\n", table.to_string().c_str());

  // Per-level split and linearity classification (the paper's regression step).
  util::TextTable lvl({"level", "cumulative bytes", "share", "log-log slope",
                       "verdict"});
  std::vector<util::Series> series;
  for (int l : levels) {
    const auto s = iostats::cumulative_series_level(scan.table, ncells, l);
    if (s.y.empty()) continue;
    std::string level_name = "L";
    level_name += std::to_string(l);
    series.push_back(util::Series{level_name, s.x, s.y});
    std::string slope = "-";
    std::string verdict = "single point";
    if (s.x.size() >= 2) {
      const auto power = model::fit_power(s.x, s.y);
      slope = util::format_g(power.b, 4);
      verdict = power.b > 1.02 ? "super-linear (AMR growth)" : "linear";
    }
    lvl.add_row({level_name, util::format_g(s.y.back(), 5),
                 util::format_g(s.y.back() / total.y.back(), 3), slope,
                 verdict});
  }
  std::printf("%s\n", lvl.to_string().c_str());

  util::PlotOptions opts;
  opts.title = "cumulative bytes per level vs x = output_counter * ncells";
  opts.x_label = "x";
  opts.y_label = "bytes";
  std::printf("%s", util::plot_xy(series, opts).c_str());
  return 0;
}
