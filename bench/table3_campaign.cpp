/// Table III reproduction, campaign edition: the paper ran 47 configurations
/// on Summit by hand; this bench runs the sharded sweep service over the
/// Table III axes {interface × file mode × staging × codec × engine × ranks}
/// through campaign::CampaignExecutor — work-stealing across --jobs threads,
/// results deduplicated through the cache (persist it with --cache and a
/// re-run resolves without simulating a single cell), per-cell critical-path
/// attribution carried into the canonical CSV.
///
/// With --predict the bench fits campaign::PredictService on the executed
/// cells and answers a what-if query for a rank count the campaign never
/// ran, printing the Eq. 3-style fit's calibration error next to the answer.
///
/// Determinism contract: stdout and the CSV contain configuration and
/// virtual-clock data only. Wall time goes to stderr, where artifact diffs
/// never look.

#include <cstdio>
#include <map>

#include "bench_common.hpp"
#include "campaign/grid.hpp"
#include "campaign/predict.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace amrio;
  const auto ctx = bench::parse_bench_args(
      argc, argv, "table3_campaign",
      "Table III: sharded campaign over the sweep axes");
  bench::banner("Table III — sharded proxy campaign",
                "paper Table III (47 Summit runs; full cross product here)");

  campaign::GridSpec spec = campaign::table3_grid();
  if (!ctx.full) {
    // bench-scale default: one engine, two rank points (144 cells); --full
    // runs the whole 576-cell product the test suite pins
    spec.engines = {ctx.engine};
    spec.rank_counts = {8, 16};
  }
  const std::vector<campaign::CellConfig> cells = campaign::make_grid(spec);
  std::printf("campaign: %zu cells, %d worker(s)%s\n", cells.size(), ctx.jobs,
              ctx.cache_path.empty() ? "" : ", persistent cache");

  util::WallTimer timer;
  campaign::ExecutorOptions opts;
  opts.jobs = ctx.jobs;
  opts.cache_path = ctx.cache_path;
  std::vector<campaign::CellOutcome> outcomes;
  campaign::ExecutorStats stats;
  try {
    campaign::CampaignExecutor executor(opts);
    outcomes = executor.run(cells);
    stats = executor.stats();
  } catch (const std::exception& e) {
    // a corrupt --cache file: one line, like any other bad input
    std::fprintf(stderr, "table3_campaign: %s\n", e.what());
    return 2;
  }
  // wall time is scheduling noise: stderr only, never stdout or the CSV
  std::fprintf(stderr, "campaign wall time: %.1fs\n", timer.elapsed());

  std::printf("cells: %llu  executed: %llu  cache hits: %llu\n",
              static_cast<unsigned long long>(stats.cells),
              static_cast<unsigned long long>(stats.executed),
              static_cast<unsigned long long>(stats.cache_hits));

  // headline rows: the slowest cell per staging mode (the Table III story —
  // which staging path binds at which scale)
  util::TextTable table({"staging", "slowest cell", "dump s", "encoded",
                         "critical stage", "binding"});
  std::map<std::string, std::size_t> worst;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const macsio::Params& p = cells[i].params;
    std::string staging = p.aggregators > 0 ? "agg" : "direct";
    if (p.stage_to_bb) staging = p.aggregators > 0 ? "agg+bb" : "bb";
    staging = std::string(macsio::to_string(p.file_mode)) + "/" + staging;
    const auto it = worst.find(staging);
    if (it == worst.end() ||
        outcomes[i].result.dump_seconds > outcomes[it->second].result.dump_seconds)
      worst[staging] = i;
  }
  for (const auto& [staging, i] : worst) {
    const campaign::CellResult& r = outcomes[i].result;
    table.add_row({staging, outcomes[i].name, util::format_g(r.dump_seconds, 4),
                   util::human_bytes(r.encoded_bytes), r.critical_stage,
                   r.binding_resource});
  }
  std::printf("%s", table.to_string().c_str());

  const std::string csv =
      bench::campaign_csv(ctx, "table3_campaign.csv", cells, outcomes);
  std::printf("csv: %s\n", csv.c_str());

  if (ctx.predict) {
    campaign::PredictService predict;
    predict.fit(cells, outcomes);
    // what-if: a rank count the campaign never executed
    campaign::CellConfig query = cells.front();
    query.name = "whatif/r23";
    query.params.nprocs = 23;
    const auto answer = predict.predict(query);
    std::printf("%s\n", predict.report().c_str());
    std::printf(
        "what-if %s (never simulated): dump %.6fs, %llu encoded bytes "
        "(stratum %s)\n",
        query.name.c_str(), answer.dump_seconds,
        static_cast<unsigned long long>(answer.encoded_bytes),
        answer.exact_stratum ? answer.stratum.c_str() : "global");
  }
  return 0;
}
