#include "core/campaign.hpp"

#include <numeric>

#include "hydro/derive.hpp"
#include "plotfile/scanner.hpp"
#include "plotfile/writer.hpp"
#include "util/assert.hpp"
#include "util/format.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace amrio::core {

model::RunMeasurements RunRecord::measurements() const {
  model::RunMeasurements m;
  AMRIO_EXPECTS_MSG(!total.per_step.empty(),
                    "run produced no output events; cannot build measurements");
  m.first_output_bytes = total.per_step.front();
  m.per_step_bytes = total.per_step;
  const double nsteps = static_cast<double>(std::max<std::size_t>(steps.size(), 1));
  m.mean_step_seconds = wall_seconds / nsteps;
  // Top-level metadata (Header + job_info) of the first plotfile, per task.
  const auto it = table.find({total.steps.front(), -1, -1});
  if (it != table.end() && inputs.nprocs > 0)
    m.metadata_bytes_per_task =
        static_cast<double>(it->second) / inputs.nprocs;
  return m;
}

void write_plot_for(exec::Engine& engine, const amr::AmrCore& core,
                    std::int64_t step, double time,
                    pfs::StorageBackend& backend) {
  plotfile::PlotfileSpec spec;
  spec.dir = core.plotfile_name(step);
  spec.var_names = hydro::plot_var_names();
  spec.time = time;
  spec.step = step;
  spec.ref_ratio = core.inputs().ref_ratio;
  spec.job_info = "AMReX-style job_info (amrio mini-Castro)\n" +
                  core.inputs().to_inputs().to_string();

  std::vector<mesh::MultiFab> derived;
  derived.reserve(static_cast<std::size_t>(core.num_levels()));
  std::vector<plotfile::LevelPlotData> levels;
  for (int l = 0; l < core.num_levels(); ++l) {
    derived.push_back(core.derive_level(l));
    levels.push_back(plotfile::LevelPlotData{core.level(l).geom, &derived.back()});
  }
  plotfile::write_plotfile(engine, backend, spec, levels);
}

RunRecord run_case(const CaseConfig& config, const CampaignOptions& opts,
                   pfs::StorageBackend* backend) {
  RunRecord rec;
  rec.config = config;
  rec.inputs = config.to_inputs();

  std::unique_ptr<pfs::MemoryBackend> owned;
  if (backend == nullptr) {
    owned = std::make_unique<pfs::MemoryBackend>(/*store_contents=*/false);
    backend = owned.get();
  }

  // Every level's DistributionMapping spans inputs.nprocs ranks, so one
  // engine serves every plot and checkpoint write of the run.
  const auto engine =
      exec::make_engine(exec::EngineKind::kEvent, rec.inputs.nprocs);
  util::WallTimer timer;
  amr::AmrCore core(rec.inputs);
  core.init();
  core.run(
      [&](const amr::AmrCore& c, std::int64_t step, double time) {
        write_plot_for(*engine, c, step, time, *backend);
      },
      [&](const amr::AmrCore& c, std::int64_t step, double time) {
        if (opts.check_int <= 0 || step % opts.check_int != 0 || step == 0)
          return;
        // Checkpoint study extension: conserved state, same N-to-N tree.
        plotfile::PlotfileSpec spec;
        spec.dir = c.inputs().check_file +
                   util::zero_pad(static_cast<std::uint64_t>(step), 5);
        spec.var_names = {"density", "xmom", "ymom", "rho_E"};
        spec.time = time;
        spec.step = step;
        spec.ref_ratio = c.inputs().ref_ratio;
        spec.job_info = "checkpoint\n";
        std::vector<plotfile::LevelPlotData> levels;
        for (int l = 0; l < c.num_levels(); ++l)
          levels.push_back(
              plotfile::LevelPlotData{c.level(l).geom, &c.level(l).state});
        plotfile::write_checkpoint(*engine, *backend, spec, levels);
      });
  rec.wall_seconds = timer.elapsed();
  rec.steps = core.history();
  rec.nlevels = core.num_levels();

  const auto scan = plotfile::scan_plotfiles(*backend, rec.inputs.plot_file);
  rec.table = scan.table;
  rec.total_bytes = scan.total_bytes;
  rec.nfiles = scan.nfiles;
  rec.total = iostats::cumulative_series(rec.table, rec.inputs.ncells0());
  const auto levels = iostats::levels_present(rec.table);
  for (int l : levels)
    rec.per_level.push_back(
        iostats::cumulative_series_level(rec.table, rec.inputs.ncells0(), l));

  AMRIO_LOG_INFO("case " << config.name << ": " << rec.total.steps.size()
                         << " outputs, " << rec.total_bytes << " bytes, "
                         << rec.wall_seconds << "s");
  return rec;
}

}  // namespace amrio::core
