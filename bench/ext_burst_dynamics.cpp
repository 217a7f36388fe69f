/// Extension: "dynamic" system studies — the use the paper positions the
/// calibrated proxy for ("bandwidth, file system variability, and
/// scalability, prior to running full AMReX-based simulations"). Sweeps the
/// compute/dump duty cycle and the PFS configuration with a calibrated
/// workload and reports burst metrics.

#include <cstdio>

#include "exec/engine.hpp"
#include "bench_common.hpp"
#include "core/amrio.hpp"
#include "pfs/timeline.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace amrio;
  const auto ctx = bench::parse_bench_args(
      argc, argv, "ext_burst_dynamics",
      "extension: dynamic burst/bandwidth studies with the calibrated proxy");
  bench::banner("Extension — dynamic I/O studies on the PFS model",
                "paper §IV-B closing discussion (dynamic/random characteristics)");

  // calibrate once from a small AMR run
  core::CaseConfig config;
  config.name = "dyn";
  config.ncell = ctx.full ? 192 : 96;
  config.max_level = 2;
  config.max_step = 50;
  config.plot_int = 5;
  config.nprocs = 32;
  config.max_grid_size = 32;
  const auto run = core::run_case(config);
  auto v = core::calibrate_and_validate(run, 1.0, 1.2);
  auto params = v.translation.params;
  params.part_size *= 500;  // emulate a paper-scale machine (proxy knob)

  util::TextTable table({"compute_time", "OSTs", "sigma", "duty cycle",
                         "peak BW", "p99 dump stretch"});
  util::CsvWriter csv(bench::csv_path(ctx, "ext_burst_dynamics.csv"));
  csv.header({"compute_time", "osts", "sigma", "duty_cycle", "peak_bw",
              "p99_stretch"});

  std::map<double, double> duty_by_compute;
  for (double compute : {1.0, 5.0, 20.0}) {
    for (int osts : {8, 32}) {
      for (double sigma : {0.0, 0.4}) {
        params.compute_time = compute;
        pfs::MemoryBackend be(false);
        const auto engine = ctx.make_engine(params.nprocs);
        const auto stats = macsio::run_macsio(*engine, params, be);
        pfs::SimFsConfig cfg;
        cfg.n_ost = osts;
        cfg.ost_bandwidth = 0.5e9;
        cfg.client_bandwidth = 1e9;
        cfg.variability_sigma = sigma;
        cfg.seed = 99;
        pfs::SimFs fs(cfg);
        const auto results = fs.run(stats.requests);
        const auto burst = pfs::burst_stats(results);
        // stretch: slowest request time / ideal (bytes over min bandwidth)
        std::vector<double> stretch;
        for (const auto& r : results) {
          if (r.bytes == 0) continue;
          const double ideal = static_cast<double>(r.bytes) / 0.5e9;
          stretch.push_back(r.duration() / ideal);
        }
        const double p99 = util::percentile(stretch, 0.99);
        table.add_row({util::format_g(compute, 3) + "s", std::to_string(osts),
                       util::format_g(sigma, 3),
                       util::format_g(100 * burst.duty_cycle, 3) + "%",
                       util::format_g(burst.peak_bandwidth / 1e9, 3) + " GB/s",
                       util::format_g(p99, 4) + "x"});
        csv.field(compute)
            .field(static_cast<std::int64_t>(osts))
            .field(sigma)
            .field(burst.duty_cycle)
            .field(burst.peak_bandwidth)
            .field(p99);
        csv.endrow();
        if (osts == 32 && sigma == 0.0) duty_by_compute[compute] = burst.duty_cycle;
      }
    }
  }
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "\nreading: longer compute windows push the workload toward the classic\n"
      "bursty pattern (duty cycle falls); fewer OSTs raise contention stretch;\n"
      "variability fattens the p99 tail — all knobs a co-design study can now\n"
      "turn without queueing on Summit.\n");
  const bool ok = duty_by_compute[20.0] < duty_by_compute[1.0];
  std::printf("shape check (duty cycle falls as compute_time grows): %s\n",
              ok ? "OK" : "MISMATCH");
  std::printf("csv: %s\n", csv.path().c_str());
  return ok ? 0 : 1;
}
