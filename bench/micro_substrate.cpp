/// Google-benchmark microbenchmarks for the substrates: box algebra, Fab
/// copies, clustering, FAB serialization, MACSio sizing, PFS event simulation,
/// and the calibration objective — the hot paths of the reproduction.

#include <benchmark/benchmark.h>

#include "amr/cluster.hpp"
#include "macsio/interfaces.hpp"
#include "mesh/distribution.hpp"
#include "mesh/fab.hpp"
#include "model/calibrate.hpp"
#include "pfs/backend.hpp"
#include "pfs/simfs.hpp"
#include "plotfile/fab_io.hpp"
#include "util/rng.hpp"

namespace m = amrio::mesh;

static void BM_BoxIntersect(benchmark::State& state) {
  const m::Box a(0, 0, 255, 255);
  const m::Box b(128, 128, 383, 383);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a & b);
  }
}
BENCHMARK(BM_BoxIntersect);

static void BM_BoxArrayMaxSize(benchmark::State& state) {
  const m::BoxArray ba(m::Box(0, 0, 1023, 1023));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ba.max_size(static_cast<int>(state.range(0)), 8));
  }
}
BENCHMARK(BM_BoxArrayMaxSize)->Arg(32)->Arg(128);

static void BM_FabCopyIntersection(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  m::Fab src(m::Box(0, 0, n - 1, n - 1), 4);
  m::Fab dst(m::Box(n / 2, n / 2, n + n / 2 - 1, n + n / 2 - 1), 4);
  src.set_val(1.0);
  for (auto _ : state) {
    dst.copy_from(src, 0, 0, 4);
    benchmark::DoNotOptimize(dst);
  }
  state.SetBytesProcessed(state.iterations() * (n / 2) * (n / 2) * 4 * 8);
}
BENCHMARK(BM_FabCopyIntersection)->Arg(64)->Arg(256);

static void BM_DistributionKnapsack(benchmark::State& state) {
  std::vector<m::Box> boxes;
  amrio::util::Xoshiro256 rng(1);
  for (int i = 0; i < 256; ++i) {
    const int s = 8 + static_cast<int>(rng.uniform_int(56));
    const int x = static_cast<int>(rng.uniform_int(2048));
    const int y = static_cast<int>(rng.uniform_int(2048));
    boxes.emplace_back(x, y, x + s, y + s);
  }
  const m::BoxArray ba(boxes);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m::DistributionMapping::make(
        ba, 64, m::DistributionStrategy::kKnapsack));
  }
}
BENCHMARK(BM_DistributionKnapsack);

static void BM_BergerRigoutsos(benchmark::State& state) {
  // annulus of tags like a Sedov front
  std::vector<m::IntVect> tags;
  for (int j = 0; j < 256; ++j) {
    for (int i = 0; i < 256; ++i) {
      const double r = std::hypot(i - 128.0, j - 128.0);
      if (r > 80 && r < 90) tags.push_back({i, j});
    }
  }
  for (auto _ : state) {
    auto copy = tags;
    benchmark::DoNotOptimize(amrio::amr::berger_rigoutsos(std::move(copy), 0.7, 4));
  }
}
BENCHMARK(BM_BergerRigoutsos);

static void BM_FabSerialize(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  m::Fab fab(m::Box(0, 0, n - 1, n - 1), 8);
  amrio::pfs::MemoryBackend be(false);
  for (auto _ : state) {
    amrio::pfs::OutFile out(be, "fab");
    benchmark::DoNotOptimize(amrio::plotfile::write_fab(out, fab, fab.box()));
  }
  state.SetBytesProcessed(state.iterations() * fab.byte_size());
}
BENCHMARK(BM_FabSerialize)->Arg(64)->Arg(256);

static void BM_MacsioTaskDocBytes(benchmark::State& state) {
  const auto iface = amrio::macsio::make_interface(
      amrio::macsio::Interface::kMiftmpl);
  const auto spec = amrio::macsio::make_part_spec(
      static_cast<std::uint64_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(iface->task_doc_bytes(spec, 0, 0, 1, 0));
  }
}
BENCHMARK(BM_MacsioTaskDocBytes)->Arg(100000)->Arg(10000000);

static void BM_SimFsEventLoop(benchmark::State& state) {
  amrio::pfs::SimFsConfig cfg;
  cfg.n_ost = 32;
  cfg.variability_sigma = 0.2;
  amrio::pfs::IoBatch reqs;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    std::string file = "f";
    file += std::to_string(i);
    reqs.requests.push_back(
        {i % 64, reqs.add_file(std::move(file)), 0.01 * i, 16 << 20});
  }
  for (auto _ : state) {
    amrio::pfs::SimFs fs(cfg);
    benchmark::DoNotOptimize(fs.run(reqs));
  }
}
BENCHMARK(BM_SimFsEventLoop)->Arg(256)->Arg(1024);

static void BM_CalibrationObjective(benchmark::State& state) {
  amrio::macsio::Params p;
  p.nprocs = 32;
  p.part_size = 1550000;
  p.num_dumps = 20;
  p.dataset_growth = 1.013;
  for (auto _ : state) {
    benchmark::DoNotOptimize(amrio::model::macsio_per_dump_bytes(p));
  }
}
BENCHMARK(BM_CalibrationObjective);

BENCHMARK_MAIN();
