/// End-to-end integration tests: the paper's full pipeline (parameterized AMR
/// run → plotfile scan → Eq. 1 series → Listing-1 translation → calibrated
/// MACSio proxy → validation), plus the campaign layer and the behaviours the
/// figures depend on (level-growth nonlinearity, per-task imbalance,
/// CFL/max_level ordering).

#include <gtest/gtest.h>

#include <cmath>

#include "core/amrio.hpp"
#include "pfs/timeline.hpp"

using namespace amrio;

namespace {
core::CaseConfig tiny_case(const std::string& name) {
  core::CaseConfig c;
  c.name = name;
  c.ncell = 64;
  c.max_level = 2;
  c.plot_int = 5;
  c.max_step = 25;
  c.cfl = 0.5;
  c.nprocs = 8;
  c.max_grid_size = 16;
  return c;
}
}  // namespace

TEST(Pipeline, RunCaseProducesConsistentRecord) {
  const auto run = core::run_case(tiny_case("itest"));
  // 6 output events: steps 0,5,10,15,20,25
  ASSERT_EQ(run.total.steps.size(), 6u);
  EXPECT_EQ(run.total.steps.front(), 0);
  EXPECT_EQ(run.total.steps.back(), 25);
  // Eq. (1): x strictly increasing multiples of ncells
  for (std::size_t i = 0; i < run.total.x.size(); ++i)
    EXPECT_DOUBLE_EQ(run.total.x[i], (i + 1) * 64.0 * 64.0);
  // cumulative y strictly increasing; per-step positive
  for (std::size_t i = 1; i < run.total.y.size(); ++i)
    EXPECT_GT(run.total.y[i], run.total.y[i - 1]);
  // total bytes across the table equals the scan total
  std::uint64_t table_total = 0;
  for (const auto& [k, v] : run.table) table_total += v;
  EXPECT_EQ(table_total, run.total_bytes);
  // per-level series sum (plus metadata) equals the total series
  double level_sum = 0.0;
  for (const auto& s : run.per_level) level_sum += s.y.back();
  EXPECT_LE(level_sum, run.total.y.back());
  EXPECT_GT(level_sum, 0.8 * run.total.y.back());  // metadata is small
}

TEST(Pipeline, RefinedLevelsGrowFasterThanL0) {
  // Fig. 7's core behaviour: L0 per-step output constant, refined levels grow.
  auto cfg = tiny_case("fig7ish");
  cfg.max_step = 40;
  cfg.plot_int = 8;
  const auto run = core::run_case(cfg);
  ASSERT_GE(run.per_level.size(), 2u);
  const auto& l0 = run.per_level[0];
  // L0 per-step bytes identical at every output event
  for (std::size_t i = 1; i < l0.per_step.size(); ++i)
    EXPECT_NEAR(l0.per_step[i] / l0.per_step[0], 1.0, 0.01);
  // the finest level's last per-step output exceeds its first
  const auto& lf = run.per_level.back();
  EXPECT_GT(lf.per_step.back(), lf.per_step.front());
}

TEST(Pipeline, MoreLevelsMoreBytes) {
  // Fig. 6's dominant effect: max_level drives cumulative output size.
  auto lo = tiny_case("lev1");
  lo.max_level = 1;
  auto hi = tiny_case("lev3");
  hi.max_level = 3;
  const auto run_lo = core::run_case(lo);
  const auto run_hi = core::run_case(hi);
  EXPECT_GT(run_hi.total_bytes, run_lo.total_bytes);
}

TEST(Pipeline, PerTaskImbalanceOnRefinedLevels) {
  // Fig. 8: refined-level output is unevenly distributed across tasks.
  auto cfg = tiny_case("fig8ish");
  cfg.nprocs = 16;
  cfg.max_step = 30;
  const auto run = core::run_case(cfg);
  const auto last_step = run.total.steps.back();
  const auto levels = iostats::levels_present(run.table);
  ASSERT_FALSE(levels.empty());
  const int finest = levels.back();
  const double imb =
      iostats::task_imbalance(run.table, last_step, finest, cfg.nprocs);
  EXPECT_GT(imb, 1.05);  // visibly unbalanced
}

TEST(Pipeline, TranslationValidatesWithinTolerance) {
  // The headline claim: the calibrated MACSio proxy reproduces the AMR
  // output workload per step "to a certain degree of confidence".
  const auto run = core::run_case(tiny_case("validate"));
  const auto v = core::calibrate_and_validate(run, 1.0, 1.10);
  EXPECT_EQ(v.proxy_per_step.size(), v.sim_per_step.size());
  EXPECT_LT(v.mean_abs_rel_err, 0.15);
  EXPECT_LT(v.max_abs_rel_err, 0.40);
  // first-dump match is what Eq. (3) pins down
  EXPECT_NEAR(v.proxy_per_step.front() / v.sim_per_step.front(), 1.0, 0.05);
  // params round-trip through the CLI (the artifact the paper publishes)
  const auto parsed = macsio::Params::from_cli(v.translation.params.to_cli());
  EXPECT_DOUBLE_EQ(parsed.dataset_growth,
                   v.translation.params.dataset_growth);
}

TEST(Pipeline, HigherCflCalibratesToHigherGrowth) {
  // Appendix step 4: "the greater the cfl and number of levels, the greater
  // the data_growth".
  auto slow = tiny_case("cfl3");
  slow.cfl = 0.3;
  auto fast = tiny_case("cfl6");
  fast.cfl = 0.6;
  const auto run_slow = core::run_case(slow);
  const auto run_fast = core::run_case(fast);
  const auto v_slow = core::calibrate_and_validate(run_slow, 1.0, 1.2);
  const auto v_fast = core::calibrate_and_validate(run_fast, 1.0, 1.2);
  EXPECT_GE(v_fast.translation.calibration.best_growth,
            v_slow.translation.calibration.best_growth - 5e-3);
}

TEST(Pipeline, CampaignRunsMultipleCases) {
  std::vector<core::CaseConfig> cases;
  for (int i = 0; i < 3; ++i) {
    auto c = tiny_case("camp" + std::to_string(i));
    c.ncell = 32 << i;  // 32, 64, 128
    c.max_step = 10;
    c.plot_int = 5;
    c.max_level = 1;
    cases.push_back(c);
  }
  std::vector<core::RunRecord> runs;
  for (const auto& c : cases) runs.push_back(core::run_case(c));
  ASSERT_EQ(runs.size(), 3u);
  // larger meshes produce more bytes (Fig. 5's spread over decades)
  EXPECT_GT(runs[1].total_bytes, runs[0].total_bytes);
  EXPECT_GT(runs[2].total_bytes, runs[1].total_bytes);
}

TEST(Pipeline, CheckpointExtensionWritesChkTrees) {
  auto cfg = tiny_case("chk");
  cfg.max_step = 10;
  core::CampaignOptions opts;
  opts.check_int = 5;
  pfs::MemoryBackend backend(false);
  const auto run = core::run_case(cfg, opts, &backend);
  const auto chk = plotfile::scan_plotfiles(backend, "chk_chk");
  EXPECT_EQ(chk.plotfile_dirs.size(), 2u);  // steps 5 and 10
  EXPECT_GT(chk.total_bytes, 0u);
  // checkpoints carry 4 conserved components vs 8 plot variables: a chk tree
  // at a given step is smaller than the plt tree at the same step
  const auto plt = plotfile::scan_plotfiles(backend, "chk_plt");
  EXPECT_GT(plt.total_bytes, chk.total_bytes);
}

TEST(Pipeline, ProxyRequestsReplayThroughSimFs) {
  // "dynamic" study path: feed the calibrated proxy's I/O requests into the
  // PFS simulator and get a bursty timeline.
  const auto run = core::run_case(tiny_case("dyn"));
  auto v = core::calibrate_and_validate(run);
  auto params = v.translation.params;
  params.compute_time = 1.0;
  pfs::MemoryBackend be(false);
  const auto stats = macsio::run_macsio(
      *exec::make_engine(exec::EngineKind::kSerial, params.nprocs), params, be);

  pfs::SimFsConfig fscfg;
  fscfg.n_ost = 8;
  fscfg.ost_bandwidth = 1e9;
  fscfg.client_bandwidth = 1e9;
  pfs::SimFs fs(fscfg);
  const auto results = fs.run(stats.requests);
  const auto burst = pfs::burst_stats(results);
  EXPECT_GT(burst.makespan, 0.0);
  // dumps every 1s of compute; I/O itself is far faster → low duty cycle
  EXPECT_LT(burst.duty_cycle, 0.5);
  EXPECT_EQ(burst.total_bytes, stats.total_bytes);
}

TEST(Pipeline, DeterministicAcrossRuns) {
  // identical configs → identical byte tables (the whole stack is seeded)
  const auto a = core::run_case(tiny_case("det"));
  const auto b = core::run_case(tiny_case("det"));
  EXPECT_EQ(a.table, b.table);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
}

TEST(Pipeline, ScaledCasesPreserveStructure) {
  // case factories produce valid, runnable configs at every scale knob
  for (double scale : {0.125, 0.25}) {
    const auto c4 = core::case4(scale);
    EXPECT_NO_THROW(c4.to_inputs().validate());
    const auto c27 = core::case27(scale);
    EXPECT_NO_THROW(c27.to_inputs().validate());
  }
}
