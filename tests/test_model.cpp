/// Tests for the analytical model layer: regression, Eq. (3) part_size fit,
/// growth calibration recovery of known ground truth, translation (Listing 1),
/// the growth-guess interpolation table, and iostats aggregation (Eqs. 1–2).

#include <gtest/gtest.h>

#include <cmath>

#include "exec/engine.hpp"
#include "iostats/aggregate.hpp"
#include "macsio/driver.hpp"
#include "model/calibrate.hpp"
#include "model/partsize.hpp"
#include "model/regression.hpp"
#include "model/translate.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace ex = amrio::exec;
namespace md = amrio::model;
namespace io = amrio::iostats;

// ------------------------------------------------------------ regression

TEST(Regression, ExactLineRecovered) {
  std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y;
  for (double v : x) y.push_back(3.0 + 2.0 * v);
  const auto fit = md::fit_linear(x, y);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-12);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
  EXPECT_NEAR(fit.rmse, 0.0, 1e-10);
}

TEST(Regression, NoisyDataReasonableR2) {
  amrio::util::Xoshiro256 rng(11);
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    x.push_back(i);
    y.push_back(5.0 * i + 10.0 + rng.normal() * 20.0);
  }
  const auto fit = md::fit_linear(x, y);
  EXPECT_NEAR(fit.slope, 5.0, 0.2);
  EXPECT_GT(fit.r2, 0.98);
}

TEST(Regression, DegenerateInputsRejected) {
  std::vector<double> x{1.0};
  std::vector<double> y{2.0};
  EXPECT_THROW(md::fit_linear(x, y), amrio::ContractViolation);
  std::vector<double> same_x{2.0, 2.0, 2.0};
  std::vector<double> ys{1.0, 2.0, 3.0};
  EXPECT_THROW(md::fit_linear(same_x, ys), amrio::ContractViolation);
}

TEST(Regression, PowerLawRecovered) {
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 1; i <= 40; ++i) {
    x.push_back(i);
    y.push_back(2.5 * std::pow(static_cast<double>(i), 1.3));
  }
  const auto fit = md::fit_power(x, y);
  EXPECT_NEAR(fit.a, 2.5, 1e-9);
  EXPECT_NEAR(fit.b, 1.3, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

// --------------------------------------------------------------- Eq. (3)

TEST(PartSize, ForwardModelEq3) {
  // part_size = f * 8 * Nx*Ny / nprocs, the paper's example:
  // 23.65 * 512² * 8 / 32 ≈ 1550000
  const auto ps = md::part_size_model(23.65, 512 * 512, 32);
  EXPECT_NEAR(static_cast<double>(ps), 1550000.0, 2000.0);
}

TEST(PartSize, Dump0BytesMonotoneInPartSize) {
  amrio::macsio::Params base;
  base.nprocs = 4;
  std::uint64_t prev = 0;
  for (std::uint64_t ps : {1000ull, 10000ull, 100000ull, 1000000ull}) {
    const auto bytes = md::macsio_dump0_bytes(base, ps);
    EXPECT_GT(bytes, prev);
    prev = bytes;
  }
}

TEST(PartSize, FitHitsTarget) {
  amrio::macsio::Params base;
  base.nprocs = 8;
  const double target = 5.0e7;
  const auto fit = md::fit_part_size(base, target, 256 * 256);
  EXPECT_LT(fit.rel_error, 0.01);
  // forward-check the fitted part size
  const auto achieved = md::macsio_dump0_bytes(base, fit.part_size);
  EXPECT_NEAR(static_cast<double>(achieved), target, 0.01 * target);
  // implied f consistent with Eq. (3)
  EXPECT_NEAR(fit.f, static_cast<double>(fit.part_size) * 8 / (8.0 * 256 * 256),
              1e-9);
}

TEST(PartSize, JsonInterfaceImpliesInflatedF) {
  // target equals what a binary writer would produce for ncells doubles:
  // because miftmpl writes 24 text bytes per value, the fitted f must be
  // well below the naive 1.0 — the part_size request shrinks to compensate.
  amrio::macsio::Params base;
  base.nprocs = 1;
  const std::int64_t ncells = 128 * 128;
  const double target = 8.0 * ncells;  // pure binary equivalent
  const auto fit = md::fit_part_size(base, target, ncells);
  EXPECT_LT(fit.f, 0.5);
  EXPECT_GT(fit.f, 0.2);
}

// ------------------------------------------------------------ calibration

TEST(Calibrate, ObjectiveZeroForIdenticalSeries) {
  std::vector<double> s{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(md::series_objective(s, s), 0.0);
}

TEST(Calibrate, ObjectiveIsRmsRelative) {
  std::vector<double> proxy{110.0, 90.0};
  std::vector<double> target{100.0, 100.0};
  EXPECT_NEAR(md::series_objective(proxy, target), 0.1, 1e-12);
}

TEST(Calibrate, RecoversKnownGrowth) {
  // generate a target series from MACSio itself at a known growth, then ask
  // the calibrator to find it
  amrio::macsio::Params truth;
  truth.nprocs = 4;
  truth.part_size = 200000;
  truth.num_dumps = 15;
  truth.dataset_growth = 1.0131;
  const auto target = md::macsio_per_dump_bytes(truth);

  amrio::macsio::Params base = truth;
  base.dataset_growth = 1.0;
  const auto result = md::calibrate_growth(base, target, 1.0, 1.05, 20);
  EXPECT_NEAR(result.best_growth, 1.0131, 5e-4);
  EXPECT_LT(result.best_objective, 0.01);
  EXPECT_GE(result.iterates.size(), 10u);
}

TEST(Calibrate, IteratesConverge) {
  amrio::macsio::Params truth;
  truth.nprocs = 2;
  truth.part_size = 50000;
  truth.num_dumps = 10;
  truth.dataset_growth = 1.02;
  const auto target = md::macsio_per_dump_bytes(truth);
  amrio::macsio::Params base = truth;
  base.dataset_growth = 1.0;
  const auto result = md::calibrate_growth(base, target, 1.0, 1.05, 16);
  // Fig. 9 behaviour: the best objective among the first 4 iterates is worse
  // than (or equal to) the final
  double early_best = 1e300;
  for (std::size_t i = 0; i < 4 && i < result.iterates.size(); ++i)
    early_best = std::min(early_best, result.iterates[i].objective);
  EXPECT_LE(result.best_objective, early_best + 1e-15);
  // every iterate carries a full proxy series
  for (const auto& it : result.iterates)
    EXPECT_EQ(it.per_dump.size(), target.size());
}

TEST(Calibrate, PerDumpBytesMatchDriverExactly) {
  // the closed-form sizing used by the calibrator must equal what the actual
  // driver writes (minus nothing: root file included via constant)
  amrio::macsio::Params p;
  p.nprocs = 3;
  p.part_size = 12345;
  p.num_dumps = 4;
  p.dataset_growth = 1.07;
  p.meta_size = 17;
  const auto predicted = md::macsio_per_dump_bytes(p);
  amrio::pfs::MemoryBackend be(false);
  const auto stats = amrio::macsio::run_macsio(
      *ex::make_engine(ex::EngineKind::kSerial, p.nprocs), p, be);
  ASSERT_EQ(predicted.size(), stats.bytes_per_dump.size());
  for (std::size_t d = 0; d < predicted.size(); ++d) {
    EXPECT_DOUBLE_EQ(predicted[d], static_cast<double>(stats.bytes_per_dump[d]))
        << "dump " << d;
  }
}

TEST(Calibrate, RejectsNonPositiveTargets) {
  amrio::macsio::Params base;
  std::vector<double> bad{100.0, 0.0};
  EXPECT_THROW(md::calibrate_growth(base, bad), amrio::ContractViolation);
}

// ------------------------------------------------------------ translation

TEST(Translate, StaticMappingFollowsListing1) {
  auto inputs = amrio::amr::AmrInputs::sedov_baseline();
  inputs.nprocs = 16;
  inputs.max_step = 200;
  inputs.plot_int = 10;
  const auto params = md::static_translation(inputs);
  EXPECT_EQ(params.interface, amrio::macsio::Interface::kMiftmpl);
  EXPECT_EQ(params.file_mode, amrio::macsio::FileMode::kMif);
  EXPECT_EQ(params.nprocs, 16);
  // --num_dumps max_step/plot_int (+ the step-0 dump)
  EXPECT_EQ(params.num_dumps, 21);
  EXPECT_DOUBLE_EQ(params.avg_num_parts, 1.0);
  EXPECT_EQ(params.vars_per_part, 1);
}

TEST(Translate, FullTranslationProducesRunnableParams) {
  auto inputs = amrio::amr::AmrInputs::sedov_baseline();
  inputs.n_cell = {64, 64};
  inputs.nprocs = 4;
  md::RunMeasurements meas;
  meas.first_output_bytes = 1.0e6;
  meas.per_step_bytes = {1.0e6, 1.1e6, 1.2e6, 1.35e6, 1.5e6};
  meas.mean_step_seconds = 0.25;
  meas.metadata_bytes_per_task = 512;
  const auto result = md::translate(inputs, meas);
  EXPECT_NO_THROW(result.params.validate());
  EXPECT_EQ(result.params.num_dumps, 5);
  EXPECT_GT(result.params.dataset_growth, 1.0);
  EXPECT_GT(result.params.part_size, 0u);
  EXPECT_NE(result.command_line.find("--dataset_growth"), std::string::npos);
  EXPECT_LT(result.part_size_fit.rel_error, 0.02);
}

TEST(GrowthGuess, ExactHitAndInterpolation) {
  md::GrowthGuess table;
  table.add(0.3, 2, 1.005);
  table.add(0.6, 2, 1.010);
  table.add(0.3, 4, 1.015);
  table.add(0.6, 4, 1.022);
  EXPECT_DOUBLE_EQ(table.interpolate(0.3, 2), 1.005);
  // interior point between all four: inside the convex range
  const double mid = table.interpolate(0.45, 3);
  EXPECT_GT(mid, 1.005);
  EXPECT_LT(mid, 1.022);
  // the paper's rule: greater cfl and more levels → greater growth
  EXPECT_GT(table.interpolate(0.6, 4), table.interpolate(0.3, 2));
}

TEST(GrowthGuess, EmptyTableThrows) {
  md::GrowthGuess table;
  EXPECT_THROW(table.interpolate(0.5, 3), amrio::ContractViolation);
}

// ----------------------------------------------------------- iostats Eq.1

TEST(Aggregate, CumulativeSeriesEq1) {
  io::SizeTable table;
  table[{0, 0, 0}] = 1000;
  table[{0, -1, -1}] = 10;  // metadata included in totals
  table[{20, 0, 0}] = 2000;
  table[{40, 0, 0}] = 4000;
  const auto s = io::cumulative_series(table, 1024);
  ASSERT_EQ(s.steps.size(), 3u);
  // Eq. (1): x = output_counter * ncells with counter = 1,2,3
  EXPECT_DOUBLE_EQ(s.x[0], 1.0 * 1024);
  EXPECT_DOUBLE_EQ(s.x[2], 3.0 * 1024);
  EXPECT_DOUBLE_EQ(s.per_step[0], 1010.0);
  EXPECT_DOUBLE_EQ(s.y[2], 1010.0 + 2000.0 + 4000.0);
}

TEST(Aggregate, PerLevelSeriesFilters) {
  io::SizeTable table;
  table[{0, 0, 0}] = 100;
  table[{0, 1, 0}] = 50;
  table[{10, 0, 0}] = 100;
  table[{10, 1, 0}] = 75;
  const auto l1 = io::cumulative_series_level(table, 64, 1);
  ASSERT_EQ(l1.per_step.size(), 2u);
  EXPECT_DOUBLE_EQ(l1.per_step[0], 50.0);
  EXPECT_DOUBLE_EQ(l1.per_step[1], 75.0);
  EXPECT_DOUBLE_EQ(l1.y[1], 125.0);
}

TEST(Aggregate, PerTaskBytesAndImbalance) {
  io::SizeTable table;
  table[{5, 2, 0}] = 100;
  table[{5, 2, 1}] = 300;
  table[{5, 2, 3}] = 0;
  const auto per_task = io::per_task_bytes(table, 5, 2, 4);
  EXPECT_EQ(per_task, (std::vector<std::uint64_t>{100, 300, 0, 0}));
  EXPECT_DOUBLE_EQ(io::task_imbalance(table, 5, 2, 4), 3.0);
}

TEST(Aggregate, StepAndLevelQueries) {
  io::SizeTable table;
  table[{0, -1, -1}] = 5;
  table[{0, 0, 0}] = 10;
  table[{0, 1, 0}] = 20;
  EXPECT_DOUBLE_EQ(io::cumulative_series(table, 64).per_step[0], 35.0);
  EXPECT_EQ(io::step_level_bytes(table, 0, 1), 20u);
  EXPECT_EQ(io::levels_present(table), (std::vector<int>{0, 1}));
  EXPECT_EQ(io::output_steps(table), (std::vector<std::int64_t>{0}));
}
