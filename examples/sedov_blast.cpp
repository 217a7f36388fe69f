/// \file sedov_blast.cpp
/// The Castro-like application: reads an AMReX-style inputs file (the format
/// of the paper's Listing 2), runs the Sedov AMR simulation, writes N-to-N
/// plotfiles to a real directory tree, and prints the per-(step, level, task)
/// output characterization the paper derives from its Summit runs.
///
///   usage: sedov_blast [inputs-file] [--out dir] [--memory]
///
/// With --memory the plotfiles go to the in-memory counting backend instead
/// of disk (useful for large meshes).

#include <cstdio>

#include "core/amrio.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace amrio;
  util::ArgParser cli("sedov_blast",
                      "mini-Castro: Sedov blast with AMR and N-to-N plotfiles");
  cli.add_option("out", "output directory for plotfiles", 1,
                 std::string("sedov_out"));
  cli.add_flag("memory", "write to the in-memory counting backend");
  cli.add_flag("help", "show usage");
  amr::AmrInputs inputs;
  try {
    cli.parse(argc, argv);
    if (cli.flag("help")) {
      std::printf("%s", cli.usage().c_str());
      return 0;
    }
    if (!cli.positional().empty()) {
      std::printf("reading inputs from %s\n",
                  cli.positional().front().c_str());
      inputs = amr::AmrInputs::from_file(cli.positional().front());
    } else {
      std::printf(
          "no inputs file given; using the Listing-2 baseline at 64^2\n");
      inputs = amr::AmrInputs::sedov_baseline();
      inputs.n_cell = {64, 64};
      inputs.max_step = 60;
      inputs.plot_int = 10;
      inputs.max_grid_size = 32;
      inputs.sedov_r_init = 0.05;
      inputs.stop_time = 100.0;
      inputs.nprocs = 8;
    }
    inputs.validate();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sedov_blast: %s\n", e.what());
    return 2;
  }

  std::unique_ptr<pfs::StorageBackend> backend;
  if (cli.flag("memory")) {
    backend = std::make_unique<pfs::MemoryBackend>(false);
    std::printf("backend: in-memory (counting)\n");
  } else {
    backend = std::make_unique<pfs::PosixBackend>(cli.get("out"));
    std::printf("backend: POSIX at %s/\n", cli.get("out").c_str());
  }

  const auto engine =
      exec::make_engine(exec::EngineKind::kEvent, inputs.nprocs);
  util::WallTimer timer;
  amr::AmrCore core(inputs);
  core.run([&](const amr::AmrCore& c, std::int64_t step, double time) {
    core::write_plot_for(*engine, c, step, time, *backend);
    std::printf("  wrote %s at t=%.5e\n", c.plotfile_name(step).c_str(), time);
  });
  std::printf("\nran %lld steps to t=%.5e in %.2fs; hierarchy: ",
              static_cast<long long>(core.step()), core.time(),
              timer.elapsed());
  for (int l = 0; l < core.num_levels(); ++l)
    std::printf("L%d=%lld cells ", l,
                static_cast<long long>(core.level(l).state.num_pts()));
  std::printf("\n\n");

  // Characterize what was written, exactly as the paper's §IV-A tables do.
  const auto scan = plotfile::scan_plotfiles(*backend, inputs.plot_file);
  const auto series = iostats::cumulative_series(scan.table, inputs.ncells0());
  util::TextTable table({"output step", "bytes this step", "cumulative",
                         "finest-level imbalance"});
  const auto levels = iostats::levels_present(scan.table);
  const int finest = levels.empty() ? 0 : levels.back();
  for (std::size_t i = 0; i < series.steps.size(); ++i) {
    table.add_row(
        {std::to_string(series.steps[i]),
         util::human_bytes(static_cast<std::uint64_t>(series.per_step[i])),
         util::human_bytes(static_cast<std::uint64_t>(series.y[i])),
         util::format_g(iostats::task_imbalance(scan.table, series.steps[i],
                                                finest, inputs.nprocs),
                        4)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("total: %s in %llu files across %zu plotfiles\n",
              util::human_bytes(scan.total_bytes).c_str(),
              static_cast<unsigned long long>(scan.nfiles),
              scan.plotfile_dirs.size());
  return 0;
}
