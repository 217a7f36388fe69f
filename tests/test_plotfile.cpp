/// Tests for the AMReX-native plotfile layer: FAB serialization round-trip,
/// the Fig. 2 directory layout, the per-task-file conditional, byte-exact
/// size prediction, reader round-trips, and the scanner's (step, level, task)
/// classification.

#include <gtest/gtest.h>

#include "amr/core.hpp"
#include "core/campaign.hpp"
#include "exec/engine.hpp"
#include "hydro/derive.hpp"
#include "plotfile/fab_io.hpp"
#include "plotfile/reader.hpp"
#include "plotfile/scanner.hpp"
#include "plotfile/writer.hpp"
#include "util/assert.hpp"

namespace pf = amrio::plotfile;
namespace m = amrio::mesh;
namespace p = amrio::pfs;
namespace h = amrio::hydro;

namespace {

/// A two-level layout with a known distribution for writer tests.
struct Fixture {
  std::vector<pf::LevelPlotData> levels;
  std::vector<pf::LevelLayout> layouts;
  std::vector<m::MultiFab> storage;
  pf::PlotfileSpec spec;
  std::unique_ptr<amrio::exec::Engine> engine;

  explicit Fixture(int nranks = 3, int ncomp = 2)
      : engine(amrio::exec::make_engine(amrio::exec::EngineKind::kEvent,
                                        nranks)) {
    // level 0: 2x2 boxes of 8x8; level 1: one refined box
    std::vector<m::Box> l0;
    for (int j = 0; j < 2; ++j)
      for (int i = 0; i < 2; ++i)
        l0.emplace_back(i * 8, j * 8, i * 8 + 7, j * 8 + 7);
    m::BoxArray ba0(l0);
    m::BoxArray ba1(m::Box(8, 8, 23, 23));
    const m::Geometry g0(m::Box(0, 0, 15, 15), {0.0, 0.0}, {1.0, 1.0});
    const m::Geometry g1 = g0.refine(2);
    auto dm0 = m::DistributionMapping::make(ba0, nranks,
                                            m::DistributionStrategy::kRoundRobin);
    auto dm1 = m::DistributionMapping::make(ba1, nranks,
                                            m::DistributionStrategy::kRoundRobin);
    storage.emplace_back(ba0, dm0, ncomp, 0);
    storage.emplace_back(ba1, dm1, ncomp, 0);
    for (std::size_t i = 0; i < storage[0].nfabs(); ++i)
      storage[0].fab(i).set_val(1.5);
    for (std::size_t i = 0; i < storage[1].nfabs(); ++i)
      storage[1].fab(i).set_val(2.5);
    levels.push_back({g0, &storage[0]});
    levels.push_back({g1, &storage[1]});
    layouts.push_back({g0, ba0, dm0});
    layouts.push_back({g1, ba1, dm1});
    spec.dir = "test_plt00000";
    spec.var_names = {"density", "pressure"};
    spec.time = 0.125;
    spec.step = 0;
    spec.job_info = "job info text\n";
  }
};

}  // namespace

// --------------------------------------------------------------- fab io

TEST(FabIo, HeaderFormatMatchesAmrex) {
  const std::string h = pf::fab_header(m::Box(0, 0, 31, 15), 4);
  EXPECT_EQ(h,
            "FAB ((8, (64 11 52 0 1 12 0 1023)),(8, (8 7 6 5 4 3 2 1)))"
            "((0,0) (31,15) (0,0)) 4\n");
}

TEST(FabIo, DiskSizeIsHeaderPlusPayload) {
  const m::Box b(0, 0, 7, 7);
  EXPECT_EQ(pf::fab_disk_size(b, 3),
            pf::fab_header(b, 3).size() + 64u * 3 * 8);
}

TEST(FabIo, WriteReadRoundTrip) {
  p::MemoryBackend be(true);
  m::Fab fab(m::Box(2, 3, 9, 12), 2);
  for (int j = 3; j <= 12; ++j)
    for (int i = 2; i <= 9; ++i) {
      fab({i, j}, 0) = i * 100.0 + j;
      fab({i, j}, 1) = -(i * 100.0 + j);
    }
  {
    p::OutFile out(be, "fab.bin");
    const auto written = pf::write_fab(out, fab, fab.box());
    EXPECT_EQ(written, pf::fab_disk_size(fab.box(), 2));
  }
  const auto bytes = be.read("fab.bin");
  std::size_t offset = 0;
  const m::Fab back = pf::read_fab(bytes, offset);
  EXPECT_EQ(offset, bytes.size());
  EXPECT_EQ(back.box(), fab.box());
  EXPECT_EQ(back.ncomp(), 2);
  EXPECT_DOUBLE_EQ(back({5, 7}, 0), 507.0);
  EXPECT_DOUBLE_EQ(back({5, 7}, 1), -507.0);
}

TEST(FabIo, WritesValidSubsetOfGhostedFab) {
  p::MemoryBackend be(true);
  const m::Box valid(0, 0, 3, 3);
  m::Fab fab(valid.grow(2), 1);
  fab.set_val(-1.0);
  for (int j = 0; j <= 3; ++j)
    for (int i = 0; i <= 3; ++i) fab({i, j}, 0) = 7.0;
  {
    p::OutFile out(be, "f");
    pf::write_fab(out, fab, valid);
  }
  const auto bytes = be.read("f");
  std::size_t offset = 0;
  const m::Fab back = pf::read_fab(bytes, offset);
  EXPECT_EQ(back.box(), valid);
  // no ghost contamination
  for (int j = 0; j <= 3; ++j)
    for (int i = 0; i <= 3; ++i) EXPECT_DOUBLE_EQ(back({i, j}, 0), 7.0);
}

TEST(FabIo, TruncatedPayloadThrows) {
  p::MemoryBackend be(true);
  m::Fab fab(m::Box(0, 0, 3, 3), 1);
  {
    p::OutFile out(be, "f");
    pf::write_fab(out, fab, fab.box());
  }
  auto bytes = be.read("f");
  bytes.resize(bytes.size() - 10);
  std::size_t offset = 0;
  EXPECT_THROW(pf::read_fab(bytes, offset), std::runtime_error);
}

TEST(FabIo, MalformedHeaderThrows) {
  const std::string junk = "NOT A FAB HEADER\nxxxx";
  std::size_t offset = 0;
  EXPECT_THROW(pf::parse_fab_header(
                   std::as_bytes(std::span<const char>(junk.data(), junk.size())),
                   offset),
               std::runtime_error);
}

// ---------------------------------------------------------------- writer

TEST(Writer, ProducesFig2Layout) {
  Fixture fx;
  p::MemoryBackend be(true);
  pf::write_plotfile(*fx.engine, be, fx.spec, fx.levels);
  EXPECT_TRUE(be.exists("test_plt00000/Header"));
  EXPECT_TRUE(be.exists("test_plt00000/job_info"));
  EXPECT_TRUE(be.exists("test_plt00000/Level_0/Cell_H"));
  EXPECT_TRUE(be.exists("test_plt00000/Level_1/Cell_H"));
  // round-robin of 4 boxes over 3 ranks: ranks 0,1,2 own level-0 data
  EXPECT_TRUE(be.exists("test_plt00000/Level_0/Cell_D_00000"));
  EXPECT_TRUE(be.exists("test_plt00000/Level_0/Cell_D_00001"));
  EXPECT_TRUE(be.exists("test_plt00000/Level_0/Cell_D_00002"));
}

TEST(Writer, NoFileForTaskWithoutData) {
  // level 1 has exactly one box → only rank 0 writes there (the paper's
  // "file only produced if there is data on that task at that level")
  Fixture fx;
  p::MemoryBackend be(true);
  pf::write_plotfile(*fx.engine, be, fx.spec, fx.levels);
  EXPECT_TRUE(be.exists("test_plt00000/Level_1/Cell_D_00000"));
  EXPECT_FALSE(be.exists("test_plt00000/Level_1/Cell_D_00001"));
  EXPECT_FALSE(be.exists("test_plt00000/Level_1/Cell_D_00002"));
}

TEST(Writer, StatsMatchBackendTotals) {
  Fixture fx;
  p::MemoryBackend be(true);
  const auto stats = pf::write_plotfile(*fx.engine, be, fx.spec, fx.levels);
  EXPECT_EQ(stats.total_bytes, be.total_bytes());
  EXPECT_EQ(stats.nfiles, be.file_count());
  EXPECT_EQ(stats.total_bytes, stats.metadata_bytes + stats.data_bytes);
  // per rank-level bytes add up to data bytes
  std::uint64_t rank_total = 0;
  for (const auto& level : stats.rank_level_bytes)
    for (auto b : level) rank_total += b;
  EXPECT_EQ(rank_total, stats.data_bytes);
}

TEST(Writer, PredictMatchesActualByteForByte) {
  Fixture fx;
  p::MemoryBackend be(true);
  const auto actual = pf::write_plotfile(*fx.engine, be, fx.spec, fx.levels);
  const auto predicted = pf::predict_plotfile(fx.spec, fx.layouts, 2);
  EXPECT_EQ(predicted.total_bytes, actual.total_bytes);
  EXPECT_EQ(predicted.metadata_bytes, actual.metadata_bytes);
  EXPECT_EQ(predicted.data_bytes, actual.data_bytes);
  EXPECT_EQ(predicted.nfiles, actual.nfiles);
  EXPECT_EQ(predicted.rank_level_bytes, actual.rank_level_bytes);
}

TEST(Writer, FixedRealWidthIsStable) {
  EXPECT_EQ(pf::fixed_real(0.0).size(), 26u);
  EXPECT_EQ(pf::fixed_real(-1.23456789e-300).size(), 26u);
  EXPECT_EQ(pf::fixed_real(9.87654321e+250).size(), 26u);
  EXPECT_EQ(pf::fixed_real(3.14).size(), 26u);
}

TEST(Writer, VarNameCountEnforced) {
  Fixture fx;
  fx.spec.var_names = {"only_one"};
  p::MemoryBackend be(true);
  EXPECT_THROW(pf::write_plotfile(*fx.engine, be, fx.spec, fx.levels),
               amrio::ContractViolation);
}

TEST(Writer, EngineSmallerThanDistributionRejected) {
  Fixture fx;  // level 0 spreads over 3 ranks
  p::MemoryBackend be(true);
  const auto engine =
      amrio::exec::make_engine(amrio::exec::EngineKind::kEvent, 2);
  EXPECT_THROW(pf::write_plotfile(*engine, be, fx.spec, fx.levels),
               amrio::ContractViolation);
}

TEST(Writer, CheckpointHasDifferentMagic) {
  Fixture fx;
  p::MemoryBackend be(true);
  pf::write_checkpoint(*fx.engine, be, fx.spec, fx.levels);
  const auto bytes = be.read("test_plt00000/Header");
  const std::string text(reinterpret_cast<const char*>(bytes.data()),
                         bytes.size());
  EXPECT_EQ(text.substr(0, 21), "CheckPointVersion_1.0");
}

// ---------------------------------------------------------------- reader

TEST(Reader, RoundTripsWrittenPlotfile) {
  Fixture fx;
  p::MemoryBackend be(true);
  pf::write_plotfile(*fx.engine, be, fx.spec, fx.levels);
  const auto pf_in = pf::read_plotfile(be, "test_plt00000");
  EXPECT_EQ(pf_in.var_names, fx.spec.var_names);
  EXPECT_DOUBLE_EQ(pf_in.time, 0.125);
  EXPECT_EQ(pf_in.finest_level, 1);
  ASSERT_EQ(pf_in.levels.size(), 2u);
  EXPECT_EQ(pf_in.levels[0].ba.size(), 4u);
  EXPECT_EQ(pf_in.levels[1].ba.size(), 1u);
  // data values survived
  ASSERT_EQ(pf_in.levels[0].fabs.size(), 4u);
  EXPECT_DOUBLE_EQ(pf_in.levels[0].fabs[0]({1, 1}, 0), 1.5);
  EXPECT_DOUBLE_EQ(pf_in.levels[1].fabs[0]({9, 9}, 1), 2.5);
}

TEST(Reader, MetadataOnlyMode) {
  Fixture fx;
  p::MemoryBackend be(true);
  pf::write_plotfile(*fx.engine, be, fx.spec, fx.levels);
  const auto pf_in = pf::read_plotfile(be, "test_plt00000", /*load_data=*/false);
  EXPECT_EQ(pf_in.levels[0].fab_files.size(), 4u);
  EXPECT_TRUE(pf_in.levels[0].fabs.empty());
}

TEST(Reader, ParseBoxFormat) {
  const m::Box b = pf::parse_box("((0,0)-(31,15))");
  EXPECT_EQ(b, m::Box(0, 0, 31, 15));
  EXPECT_THROW(pf::parse_box("garbage"), std::runtime_error);
}

TEST(Reader, MissingFileThrows) {
  p::MemoryBackend be(true);
  EXPECT_THROW(pf::read_plotfile(be, "nonexistent_plt"), std::runtime_error);
}

TEST(Reader, CorruptHeaderThrows) {
  p::MemoryBackend be(true);
  {
    p::OutFile f(be, "bad_plt/Header");
    f.write("NOT-HYPERCLAW\n");
  }
  EXPECT_THROW(pf::read_plotfile(be, "bad_plt"), std::runtime_error);
}

// --------------------------------------------------------------- scanner

TEST(Scanner, ClassifiesPerStepLevelTask) {
  Fixture fx;
  p::MemoryBackend be(true);
  pf::write_plotfile(*fx.engine, be, fx.spec, fx.levels);
  // second plotfile at step 20
  Fixture fx2;
  fx2.spec.dir = "test_plt00020";
  fx2.spec.step = 20;
  pf::write_plotfile(*fx2.engine, be, fx2.spec, fx2.levels);

  const auto scan = pf::scan_plotfiles(be, "test_plt");
  EXPECT_EQ(scan.plotfile_dirs.size(), 2u);
  EXPECT_EQ(scan.total_bytes, be.total_bytes());
  EXPECT_EQ(scan.nfiles, be.file_count());

  // top-level metadata row exists for both steps
  EXPECT_TRUE(scan.table.count({0, -1, -1}) == 1);
  EXPECT_TRUE(scan.table.count({20, -1, -1}) == 1);
  // per-level metadata rows
  EXPECT_TRUE(scan.table.count({0, 0, -1}) == 1);
  EXPECT_TRUE(scan.table.count({0, 1, -1}) == 1);
  // task data rows: level 0 ranks 0..2, level 1 rank 0 only
  EXPECT_TRUE(scan.table.count({0, 0, 0}) == 1);
  EXPECT_TRUE(scan.table.count({0, 0, 2}) == 1);
  EXPECT_TRUE(scan.table.count({0, 1, 0}) == 1);
  EXPECT_FALSE(scan.table.count({0, 1, 1}) == 1);
}

TEST(Scanner, AgreesWithWriterStats) {
  Fixture fx;
  p::MemoryBackend be(true);
  const auto stats = pf::write_plotfile(*fx.engine, be, fx.spec, fx.levels);
  const auto scan = pf::scan_plotfiles(be, "test_plt");
  // scanner's per-(level,rank) data equals writer's accounting
  for (std::size_t l = 0; l < stats.rank_level_bytes.size(); ++l) {
    for (std::size_t r = 0; r < stats.rank_level_bytes[l].size(); ++r) {
      const auto it = scan.table.find({0, static_cast<int>(l), static_cast<int>(r)});
      const std::uint64_t scanned = it != scan.table.end() ? it->second : 0;
      EXPECT_EQ(scanned, stats.rank_level_bytes[l][r]) << "level " << l << " rank " << r;
    }
  }
}

TEST(Scanner, IgnoresForeignFiles) {
  p::MemoryBackend be(true);
  { p::OutFile f(be, "unrelated.txt"); f.write("hi"); }
  { p::OutFile f(be, "test_pltabc/Header"); f.write("not a step dir"); }
  const auto scan = pf::scan_plotfiles(be, "test_plt");
  EXPECT_TRUE(scan.table.empty());
  EXPECT_EQ(scan.nfiles, 0u);
}

// ------------------------------------------------- end-to-end with AmrCore

TEST(PlotfileIntegration, AmrCoreWriteScanReadAgree) {
  auto in = amrio::amr::AmrInputs::sedov_baseline();
  in.n_cell = {32, 32};
  in.max_level = 1;
  in.max_step = 4;
  in.plot_int = 4;
  in.max_grid_size = 16;
  in.stop_time = 100.0;
  in.sedov_r_init = 0.1;
  in.nprocs = 4;
  amrio::amr::AmrCore core(in);
  p::MemoryBackend be(true);
  const auto engine =
      amrio::exec::make_engine(amrio::exec::EngineKind::kEvent, in.nprocs);
  core.run([&](const amrio::amr::AmrCore& c, std::int64_t step, double time) {
    amrio::core::write_plot_for(*engine, c, step, time, be);
  });
  const auto scan = pf::scan_plotfiles(be, in.plot_file);
  EXPECT_EQ(scan.plotfile_dirs.size(), 2u);  // steps 0 and 4
  // read back the first plotfile and verify the density field is physical
  const auto pf_in = pf::read_plotfile(be, in.plot_file + "00000");
  EXPECT_EQ(pf_in.var_names.size(),
            static_cast<std::size_t>(h::num_plot_vars()));
  double rho_max = 0.0;
  for (const auto& fab : pf_in.levels[0].fabs) {
    rho_max = std::max(rho_max, fab.max(fab.box(), 0));
  }
  EXPECT_GT(rho_max, 0.5);
}
