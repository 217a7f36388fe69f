/// Tests for the AMR driver substrate: inputs parsing (paper Listing 2),
/// tagging, Berger–Rigoutsos clustering invariants, and AmrCore dynamics.

#include <gtest/gtest.h>

#include <set>

#include "amr/cluster.hpp"
#include "amr/core.hpp"
#include "amr/inputs.hpp"
#include "amr/tagging.hpp"
#include "hydro/derive.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace a = amrio::amr;
namespace m = amrio::mesh;
namespace h = amrio::hydro;

namespace {
a::AmrInputs parse_inputs(const std::string& text) {
  return a::AmrInputs::from_inputs(amrio::util::InputsFile::from_string(text));
}
}  // namespace

// ---------------------------------------------------------------- inputs

TEST(AmrInputs, BaselineMatchesListing2) {
  const auto in = a::AmrInputs::sedov_baseline();
  EXPECT_EQ(in.max_step, 500);
  EXPECT_DOUBLE_EQ(in.stop_time, 0.1);
  EXPECT_EQ(in.n_cell[0], 32);
  EXPECT_EQ(in.max_level, 3);
  EXPECT_EQ(in.ref_ratio, 2);
  EXPECT_EQ(in.regrid_int, 2);
  EXPECT_EQ(in.blocking_factor, 8);
  EXPECT_EQ(in.max_grid_size, 256);
  EXPECT_DOUBLE_EQ(in.cfl, 0.5);
  EXPECT_DOUBLE_EQ(in.init_shrink, 0.01);
  EXPECT_DOUBLE_EQ(in.change_max, 1.1);
  EXPECT_EQ(in.plot_int, 20);
  EXPECT_EQ(in.plot_file, "sedov_2d_cyl_in_cart_plt");
  EXPECT_NO_THROW(in.validate());
}

TEST(AmrInputs, ParsesTableIKeys) {
  // The five Table I parameters that drive the study.
  const auto in = parse_inputs(R"(
max_step = 40
amr.n_cell = 128 128
amr.max_level = 2
amr.plot_int = 5
castro.cfl = 0.3
)");
  EXPECT_EQ(in.max_step, 40);
  EXPECT_EQ(in.n_cell[0], 128);
  EXPECT_EQ(in.max_level, 2);
  EXPECT_EQ(in.plot_int, 5);
  EXPECT_DOUBLE_EQ(in.cfl, 0.3);
}

TEST(AmrInputs, RoundTripsThroughInputsFile) {
  auto in = a::AmrInputs::sedov_baseline();
  in.cfl = 0.37;
  in.nprocs = 12;
  in.n_cell = {64, 64};
  const auto again = a::AmrInputs::from_inputs(in.to_inputs());
  EXPECT_DOUBLE_EQ(again.cfl, 0.37);
  EXPECT_EQ(again.nprocs, 12);
  EXPECT_EQ(again.n_cell[0], 64);
  EXPECT_EQ(again.plot_file, in.plot_file);
  EXPECT_EQ(again.distribution, in.distribution);
}

TEST(AmrInputs, ValidationCatchesBadValues) {
  auto in = a::AmrInputs::sedov_baseline();
  in.cfl = 1.5;
  EXPECT_THROW(in.validate(), amrio::ContractViolation);
  in = a::AmrInputs::sedov_baseline();
  in.blocking_factor = 6;  // not a power of two
  EXPECT_THROW(in.validate(), amrio::ContractViolation);
  in = a::AmrInputs::sedov_baseline();
  in.n_cell = {30, 32};  // not a multiple of blocking factor
  EXPECT_THROW(in.validate(), amrio::ContractViolation);
  in = a::AmrInputs::sedov_baseline();
  in.max_grid_size = 4;  // below blocking factor
  EXPECT_THROW(in.validate(), amrio::ContractViolation);
}

TEST(AmrInputs, UnknownKeysIgnored) {
  EXPECT_NO_THROW(parse_inputs("weird.key = 3\n"));
}

// --------------------------------------------------------------- tagging

namespace {
/// MultiFab with a sharp density step at x = split.
m::MultiFab step_state(int n, int split) {
  m::BoxArray ba(m::Box(0, 0, n - 1, n - 1));
  auto dm = m::DistributionMapping::make(ba, 1, m::DistributionStrategy::kSfc);
  m::MultiFab mf(ba, dm, h::kNCons, 1);
  const h::GammaLawEos eos(1.4);
  for (int j = -1; j <= n; ++j) {
    for (int i = -1; i <= n; ++i) {
      h::Prim q{i < split ? 1.0 : 4.0, 0.0, 0.0, 1.0};
      const h::Cons c = eos.to_cons(q);
      if (mf.fab(0).box().contains({i, j}))
        for (int comp = 0; comp < h::kNCons; ++comp)
          mf.fab(0)({i, j}, comp) = c[comp];
    }
  }
  return mf;
}
}  // namespace

TEST(Tagging, FindsTheDiscontinuity) {
  const int n = 16;
  const int split = 8;
  const auto mf = step_state(n, split);
  a::TaggingParams params;
  const auto tags = a::tag_cells(mf, h::GammaLawEos(1.4), params);
  ASSERT_FALSE(tags.empty());
  for (const auto& t : tags) {
    EXPECT_GE(t.x, split - 1);
    EXPECT_LE(t.x, split);
  }
  // every row near the step should be tagged (2 columns × n rows)
  EXPECT_EQ(tags.size(), static_cast<std::size_t>(2 * n));
}

TEST(Tagging, UniformStateProducesNoTags) {
  m::BoxArray ba(m::Box(0, 0, 15, 15));
  auto dm = m::DistributionMapping::make(ba, 1, m::DistributionStrategy::kSfc);
  m::MultiFab mf(ba, dm, h::kNCons, 1);
  for (std::size_t b = 0; b < mf.nfabs(); ++b) {
    auto& fab = mf.fab(b);
    for (int j = fab.box().lo(1); j <= fab.box().hi(1); ++j)
      for (int i = fab.box().lo(0); i <= fab.box().hi(0); ++i) {
        fab(i, j, h::kURho) = 1.0;
        fab(i, j, h::kUEden) = 2.5;
      }
  }
  const auto tags = a::tag_cells(mf, h::GammaLawEos(1.4), a::TaggingParams{});
  EXPECT_TRUE(tags.empty());
}

TEST(Tagging, ThresholdControlsSensitivity) {
  const auto mf = step_state(16, 8);
  a::TaggingParams loose;
  loose.dens_grad_rel = 100.0;
  loose.pres_grad_rel = 100.0;
  EXPECT_TRUE(a::tag_cells(mf, h::GammaLawEos(1.4), loose).empty());
}

// ------------------------------------------------------------ clustering

TEST(Cluster, SingleBlobOneBox) {
  std::vector<m::IntVect> tags;
  for (int j = 4; j < 8; ++j)
    for (int i = 4; i < 8; ++i) tags.push_back({i, j});
  const auto boxes = a::berger_rigoutsos(tags, 0.7, 1);
  ASSERT_EQ(boxes.size(), 1u);
  EXPECT_EQ(boxes[0], m::Box(4, 4, 7, 7));
}

TEST(Cluster, TwoSeparatedBlobsSplitAtHole) {
  std::vector<m::IntVect> tags;
  for (int j = 0; j < 4; ++j)
    for (int i = 0; i < 4; ++i) {
      tags.push_back({i, j});
      tags.push_back({i + 20, j});
    }
  const auto boxes = a::berger_rigoutsos(tags, 0.7, 1);
  ASSERT_EQ(boxes.size(), 2u);
  std::int64_t covered = 0;
  for (const auto& b : boxes) covered += b.num_pts();
  EXPECT_EQ(covered, 32);  // tight boxes, no waste
}

TEST(Cluster, AllTagsCovered) {
  // random scatter: every tag must be inside some box
  amrio::util::Xoshiro256 rng(5);
  std::vector<m::IntVect> tags;
  for (int k = 0; k < 300; ++k)
    tags.push_back({static_cast<int>(rng.uniform_int(64)),
                    static_cast<int>(rng.uniform_int(64))});
  const auto boxes = a::berger_rigoutsos(tags, 0.5, 2);
  for (const auto& t : tags) {
    bool covered = false;
    for (const auto& b : boxes)
      if (b.contains(t)) covered = true;
    EXPECT_TRUE(covered) << "tag " << t.x << "," << t.y << " uncovered";
  }
}

TEST(Cluster, EfficiencyRespected) {
  // ring of tags: boxes must achieve the efficiency target (or be minimal)
  std::vector<m::IntVect> tags;
  for (int k = 0; k < 360; k += 2) {
    const double a_rad = k * M_PI / 180.0;
    tags.push_back({32 + static_cast<int>(24 * std::cos(a_rad)),
                    32 + static_cast<int>(24 * std::sin(a_rad))});
  }
  std::sort(tags.begin(), tags.end());
  tags.erase(std::unique(tags.begin(), tags.end()), tags.end());
  const double eff = 0.6;
  const auto boxes = a::berger_rigoutsos(tags, eff, 2);
  for (const auto& b : boxes) {
    int count = 0;
    for (const auto& t : tags)
      if (b.contains(t)) ++count;
    const double box_eff = static_cast<double>(count) / b.num_pts();
    const bool minimal = b.length(0) <= 4 && b.length(1) <= 4;
    EXPECT_TRUE(box_eff >= eff * 0.5 || minimal)
        << "inefficient box " << b.to_string() << " eff=" << box_eff;
  }
}

TEST(MakeFineGrids, RespectsAllConstraints) {
  const m::Box domain(0, 0, 63, 63);
  const m::BoxArray parents(domain);
  a::ClusterParams params;
  params.blocking_factor = 8;
  params.max_grid_size = 32;
  params.ref_ratio = 2;
  params.error_buf = 1;
  std::vector<m::IntVect> tags;
  for (int j = 20; j < 28; ++j)
    for (int i = 12; i < 44; ++i) tags.push_back({i, j});
  const auto fine = a::make_fine_grids(tags, domain, parents, params);
  ASSERT_FALSE(fine.empty());
  EXPECT_TRUE(fine.is_disjoint());
  const m::Box fine_domain = domain.refine(2);
  for (const auto& b : fine.boxes()) {
    EXPECT_TRUE(fine_domain.contains(b));
    EXPECT_LE(b.length(0), params.max_grid_size);
    EXPECT_LE(b.length(1), params.max_grid_size);
  }
  // every tag (refined) is covered
  for (const auto& t : tags) {
    const m::Box cell(t, t);
    EXPECT_TRUE(fine.covers(cell.refine(2)));
  }
}

TEST(MakeFineGrids, NestsInsideParents) {
  const m::Box domain(0, 0, 63, 63);
  // parent level covers only the left half
  const m::BoxArray parents(m::Box(0, 0, 31, 63));
  a::ClusterParams params;
  std::vector<m::IntVect> tags;
  for (int j = 10; j < 20; ++j)
    for (int i = 24; i < 40; ++i) tags.push_back({i, j});  // straddles the edge
  const auto fine = a::make_fine_grids(tags, domain, parents, params);
  const m::Box allowed = m::Box(0, 0, 31, 63).refine(2);
  for (const auto& b : fine.boxes()) EXPECT_TRUE(allowed.contains(b));
}

TEST(MakeFineGrids, EmptyTagsEmptyGrids) {
  EXPECT_TRUE(a::make_fine_grids({}, m::Box(0, 0, 31, 31),
                                 m::BoxArray(m::Box(0, 0, 31, 31)),
                                 a::ClusterParams{})
                  .empty());
}

// ----------------------------------------------------------------- core

namespace {
a::AmrInputs small_inputs() {
  auto in = a::AmrInputs::sedov_baseline();
  in.n_cell = {32, 32};
  in.max_level = 2;
  in.max_step = 12;
  in.plot_int = 4;
  in.max_grid_size = 16;
  in.stop_time = 100.0;
  in.sedov_r_init = 0.1;
  in.nprocs = 4;
  return in;
}
}  // namespace

TEST(AmrCore, InitBuildsNestedHierarchy) {
  a::AmrCore core(small_inputs());
  core.init();
  EXPECT_GE(core.finest_level(), 1);
  for (int l = 1; l <= core.finest_level(); ++l) {
    const auto& fine = core.level(l).state.box_array();
    const auto& coarse = core.level(l - 1).state.box_array();
    EXPECT_TRUE(fine.is_disjoint());
    // proper nesting: each fine box coarsened is covered by the coarse level
    for (const auto& b : fine.boxes())
      EXPECT_TRUE(coarse.covers(b.coarsen(2)));
    // geometry consistency
    EXPECT_EQ(core.level(l).geom.domain(),
              core.level(l - 1).geom.domain().refine(2));
  }
}

TEST(AmrCore, DtControlsFollowCastro) {
  a::AmrCore core(small_inputs());
  core.init();
  const double dt0 = core.compute_dt();
  core.advance(dt0);
  const double dt1 = core.compute_dt();
  // init_shrink makes the first dt tiny; change_max limits growth to 1.1x
  EXPECT_LE(dt1, 1.1 * dt0 * (1.0 + 1e-12));
  EXPECT_GT(dt1, dt0 * 0.5);
}

TEST(AmrCore, RunProducesHistoryAndPlots) {
  a::AmrCore core(small_inputs());
  int plots = 0;
  std::vector<std::int64_t> plot_steps;
  core.run([&](const a::AmrCore&, std::int64_t step, double) {
    ++plots;
    plot_steps.push_back(step);
  });
  EXPECT_EQ(core.step(), 12);
  // plt at steps 0, 4, 8, 12
  EXPECT_EQ(plots, 4);
  EXPECT_EQ(plot_steps, (std::vector<std::int64_t>{0, 4, 8, 12}));
  EXPECT_EQ(core.history().size(), 13u);  // step 0 record + 12 advances
  // time strictly increases
  for (std::size_t i = 1; i < core.history().size(); ++i)
    EXPECT_GT(core.history()[i].time, core.history()[i - 1].time);
}

TEST(AmrCore, PlotfileNamesCastroStyle) {
  a::AmrCore core(small_inputs());
  EXPECT_EQ(core.plotfile_name(0), "sedov_2d_cyl_in_cart_plt00000");
  EXPECT_EQ(core.plotfile_name(20), "sedov_2d_cyl_in_cart_plt00020");
  EXPECT_TRUE(core.should_plot(0));
  EXPECT_TRUE(core.should_plot(4));
  EXPECT_FALSE(core.should_plot(3));
}

TEST(AmrCore, RegridKeepsInvariants) {
  a::AmrCore core(small_inputs());
  core.init();
  for (int i = 0; i < 4; ++i) {
    core.advance(core.compute_dt());
    core.regrid();
    for (int l = 1; l <= core.finest_level(); ++l) {
      const auto& fine = core.level(l).state.box_array();
      EXPECT_TRUE(fine.is_disjoint());
      for (const auto& b : fine.boxes())
        EXPECT_TRUE(core.level(l - 1).state.box_array().covers(b.coarsen(2)));
    }
  }
}

TEST(AmrCore, MassApproximatelyConserved) {
  // outflow BCs lose a little at the boundary, but over a short run total
  // mass should stay within a fraction of a percent
  a::AmrCore core(small_inputs());
  core.init();
  const double mass0 = core.level(0).state.sum(h::kURho);
  for (int i = 0; i < 8; ++i) core.advance(core.compute_dt());
  const double mass1 = core.level(0).state.sum(h::kURho);
  EXPECT_NEAR(mass1 / mass0, 1.0, 5e-3);
}

TEST(AmrCore, DeriveLevelShapesMatch) {
  a::AmrCore core(small_inputs());
  core.init();
  const auto derived = core.derive_level(0);
  EXPECT_EQ(derived.ncomp(), h::num_plot_vars());
  EXPECT_EQ(derived.box_array().num_pts(),
            core.level(0).state.box_array().num_pts());
  EXPECT_EQ(derived.nghost(), 0);
  // density component equals the state's density
  EXPECT_NEAR(derived.fab(0)(derived.valid_box(0).lo(), 0),
              core.level(0).state.fab(0)(core.level(0).state.valid_box(0).lo(),
                                         h::kURho),
              1e-14);
}

TEST(AmrCore, MaxLevelZeroIsUniformGrid) {
  auto in = small_inputs();
  in.max_level = 0;
  a::AmrCore core(in);
  core.init();
  EXPECT_EQ(core.finest_level(), 0);
  EXPECT_EQ(core.level(0).state.num_pts(), 32 * 32);
}

TEST(AmrCore, FinerLevelsTrackTheBlastOverTime) {
  // the refined region (ring) must grow as the blast expands
  auto in = small_inputs();
  in.max_step = 30;
  a::AmrCore core(in);
  core.init();
  const std::int64_t fine_cells_start =
      core.finest_level() >= 1 ? core.level(1).state.num_pts() : 0;
  core.run({});
  ASSERT_GE(core.finest_level(), 1);
  const std::int64_t fine_cells_end = core.level(1).state.num_pts();
  EXPECT_GT(fine_cells_end, fine_cells_start);
}
