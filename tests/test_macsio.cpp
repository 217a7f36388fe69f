/// Tests for the MACSio-compatible proxy: CLI round-trip (Table II args),
/// part sizing, interface byte-exactness, growth series, the Fig. 3 output
/// pattern, MIF/SIF modes, and serial-vs-SPMD equivalence.

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "exec/engine.hpp"
#include "macsio/driver.hpp"
#include "macsio/interfaces.hpp"
#include "macsio/params.hpp"
#include "macsio/part.hpp"
#include "util/assert.hpp"

namespace ex = amrio::exec;
namespace mc = amrio::macsio;
namespace p = amrio::pfs;

// ---------------------------------------------------------------- params

TEST(Params, ParsesListing1StyleCommandLine) {
  const auto params = mc::Params::from_cli(
      {"--interface", "miftmpl", "--parallel_file_mode", "MIF", "8",
       "--num_dumps", "20", "--part_size", "1550000", "--avg_num_parts", "1",
       "--vars_per_part", "1", "--compute_time", "0.5", "--meta_size", "4K",
       "--dataset_growth", "1.013075", "--nprocs", "8"});
  EXPECT_EQ(params.interface, mc::Interface::kMiftmpl);
  EXPECT_EQ(params.file_mode, mc::FileMode::kMif);
  EXPECT_EQ(params.mif_files, 8);
  EXPECT_EQ(params.num_dumps, 20);
  EXPECT_EQ(params.part_size, 1550000u);
  EXPECT_EQ(params.meta_size, 4096u);
  EXPECT_DOUBLE_EQ(params.dataset_growth, 1.013075);
  EXPECT_EQ(params.nprocs, 8);
}

TEST(Params, Hdf5MapsToH5Lite) {
  const auto params = mc::Params::from_cli({"--interface", "hdf5"});
  EXPECT_EQ(params.interface, mc::Interface::kH5Lite);
}

TEST(Params, SifMode) {
  const auto params =
      mc::Params::from_cli({"--parallel_file_mode", "SIF", "1"});
  EXPECT_EQ(params.file_mode, mc::FileMode::kSif);
}

TEST(Params, CliRoundTrip) {
  mc::Params a;
  a.interface = mc::Interface::kH5Lite;
  a.num_dumps = 7;
  a.part_size = 123456;
  a.avg_num_parts = 2.5;
  a.vars_per_part = 3;
  a.dataset_growth = 1.0173;
  a.nprocs = 5;
  a.meta_size = 99;
  const auto b = mc::Params::from_cli(a.to_cli());
  EXPECT_EQ(b.interface, a.interface);
  EXPECT_EQ(b.num_dumps, a.num_dumps);
  EXPECT_EQ(b.part_size, a.part_size);
  EXPECT_DOUBLE_EQ(b.avg_num_parts, a.avg_num_parts);
  EXPECT_EQ(b.vars_per_part, a.vars_per_part);
  EXPECT_DOUBLE_EQ(b.dataset_growth, a.dataset_growth);
  EXPECT_EQ(b.nprocs, a.nprocs);
  EXPECT_EQ(b.meta_size, a.meta_size);
}

TEST(Params, ValidationRejectsBadValues) {
  mc::Params p;
  p.num_dumps = 0;
  EXPECT_THROW(p.validate(), amrio::ContractViolation);
  p = {};
  p.dataset_growth = 0.0;
  EXPECT_THROW(p.validate(), amrio::ContractViolation);
  p = {};
  p.mif_files = 9;
  p.nprocs = 4;
  EXPECT_THROW(p.validate(), amrio::ContractViolation);
}

TEST(Params, GrowthSeriesIsGeometric) {
  mc::Params p;
  p.part_size = 100000;
  p.dataset_growth = 1.02;
  EXPECT_EQ(p.part_bytes_at_dump(0), 100000u);
  EXPECT_NEAR(static_cast<double>(p.part_bytes_at_dump(10)),
              100000.0 * std::pow(1.02, 10), 1.0);
}

TEST(Params, AvgNumPartsDistribution) {
  mc::Params p;
  p.nprocs = 4;
  p.avg_num_parts = 2.5;  // total 10 parts over 4 tasks: 3,3,2,2
  int total = 0;
  for (int r = 0; r < 4; ++r) total += p.parts_of_rank(r);
  EXPECT_EQ(total, 10);
  EXPECT_EQ(p.parts_of_rank(0), 3);
  EXPECT_EQ(p.parts_of_rank(3), 2);
}

// ------------------------------------------------------------------ part

TEST(Part, SpecMeetsRequestedBytes) {
  for (std::uint64_t target : {8ull, 100ull, 8000ull, 1550000ull, 50000000ull}) {
    for (int vars : {1, 3, 8}) {
      const auto spec = mc::make_part_spec(target, vars);
      EXPECT_GE(spec.raw_bytes(), target);
      // never more than one row over
      EXPECT_LE(spec.raw_bytes(),
                target + static_cast<std::uint64_t>(spec.nx) * 8 * vars + 8ull * vars);
      // square-ish
      EXPECT_LE(std::abs(spec.nx - spec.ny), spec.nx);
    }
  }
}

// ------------------------------------------------------------ interfaces

class InterfaceTest : public ::testing::TestWithParam<mc::Interface> {};

TEST_P(InterfaceTest, CountingSinkMatchesFileSink) {
  const auto iface = mc::make_interface(GetParam());
  const mc::PartSpec spec = mc::make_part_spec(40000, 2);
  for (auto fill : {mc::FillMode::kSized, mc::FillMode::kReal}) {
    p::MemoryBackend be(true);
    std::uint64_t file_bytes = 0;
    {
      p::OutFile out(be, "part");
      mc::FileSink fsink(out);
      amrio::util::Xoshiro256 rng(3);
      iface->begin_task_doc(fsink, 0, 0);
      iface->write_part(fsink, spec, 0, fill, rng);
      iface->end_task_doc(fsink, 100);
      file_bytes = out.bytes_written();
    }
    EXPECT_EQ(file_bytes, be.size("part"));
    EXPECT_EQ(file_bytes, iface->task_doc_bytes(spec, 0, 0, 1, 100))
        << "interface " << mc::to_string(GetParam()) << " fill mode mismatch";
  }
}

TEST_P(InterfaceTest, SizedAndRealProduceSameByteCount) {
  const auto iface = mc::make_interface(GetParam());
  const mc::PartSpec spec = mc::make_part_spec(12345, 1);
  mc::CountingSink sized;
  mc::CountingSink real;
  amrio::util::Xoshiro256 rng1(1);
  amrio::util::Xoshiro256 rng2(1);
  iface->write_part(sized, spec, 0, mc::FillMode::kSized, rng1);
  iface->write_part(real, spec, 0, mc::FillMode::kReal, rng2);
  EXPECT_EQ(sized.bytes(), real.bytes());
}

TEST_P(InterfaceTest, MultiPartDocsScaleLinearly) {
  const auto iface = mc::make_interface(GetParam());
  const mc::PartSpec spec = mc::make_part_spec(8000, 1);
  const auto one = iface->task_doc_bytes(spec, 0, 0, 1, 0);
  const auto three = iface->task_doc_bytes(spec, 0, 0, 3, 0);
  // three parts cost ~3x one part (± envelope)
  EXPECT_GT(three, 2 * one);
  EXPECT_LT(three, 4 * one);
}

INSTANTIATE_TEST_SUITE_P(AllInterfaces, InterfaceTest,
                         ::testing::Values(mc::Interface::kMiftmpl,
                                           mc::Interface::kH5Lite,
                                           mc::Interface::kRaw));

TEST(Interfaces, JsonIsParseableEnvelope) {
  // the miftmpl output must at least look like the Fig. 3 json documents
  const auto iface = mc::make_interface(mc::Interface::kMiftmpl);
  p::MemoryBackend be(true);
  {
    p::OutFile out(be, "doc.json");
    mc::FileSink sink(out);
    amrio::util::Xoshiro256 rng(1);
    iface->begin_task_doc(sink, 3, 7);
    iface->write_part(sink, mc::make_part_spec(160, 1), 0, mc::FillMode::kReal,
                      rng);
    iface->end_task_doc(sink, 4);
  }
  const auto bytes = be.read("doc.json");
  const std::string text(reinterpret_cast<const char*>(bytes.data()),
                         bytes.size());
  EXPECT_EQ(text.front(), '{');
  EXPECT_NE(text.find("\"task\":3"), std::string::npos);
  EXPECT_NE(text.find("\"dump\":7"), std::string::npos);
  EXPECT_NE(text.find("\"vars\""), std::string::npos);
  EXPECT_NE(text.find("null]"), std::string::npos);
}

TEST(Interfaces, JsonOverheadFactorNearThree) {
  // fixed-width 23-char values + comma = 24 bytes per 8-byte double → the
  // text-vs-binary inflation the paper's Eq. (3) correction factor absorbs
  const auto iface = mc::make_interface(mc::Interface::kMiftmpl);
  const mc::PartSpec spec = mc::make_part_spec(800000, 1);
  const auto bytes = iface->task_doc_bytes(spec, 0, 0, 1, 0);
  const double factor = static_cast<double>(bytes) / spec.raw_bytes();
  EXPECT_GT(factor, 2.8);
  EXPECT_LT(factor, 3.2);
}

TEST(Interfaces, BinaryOverheadSmall) {
  const auto iface = mc::make_interface(mc::Interface::kH5Lite);
  const mc::PartSpec spec = mc::make_part_spec(800000, 1);
  const auto bytes = iface->task_doc_bytes(spec, 0, 0, 1, 0);
  const double factor = static_cast<double>(bytes) / spec.raw_bytes();
  EXPECT_GT(factor, 0.99);
  EXPECT_LT(factor, 1.01);
}

// ---------------------------------------------------------------- driver

TEST(Driver, ProducesFig3OutputPattern) {
  mc::Params params;
  params.nprocs = 3;
  params.num_dumps = 2;
  params.part_size = 4000;
  params.output_dir = "macsio_out";
  p::MemoryBackend be(false);
  mc::run_macsio(
      *ex::make_engine(ex::EngineKind::kSerial, params.nprocs), params, be);
  // data/macsio_json_{taskID}_{stepID}.json (MIF N-to-N)
  EXPECT_TRUE(be.exists("macsio_out/data/macsio_json_00000_000.json"));
  EXPECT_TRUE(be.exists("macsio_out/data/macsio_json_00002_001.json"));
  // metadata/macsio_json_root_{stepID}.json
  EXPECT_TRUE(be.exists("macsio_out/metadata/macsio_json_root_000.json"));
  EXPECT_TRUE(be.exists("macsio_out/metadata/macsio_json_root_001.json"));
  // N-to-N: 3 task files + 1 root per dump
  EXPECT_EQ(be.file_count(), 2u * (3 + 1));
}

TEST(Driver, StatsMatchBackend) {
  mc::Params params;
  params.nprocs = 4;
  params.num_dumps = 3;
  params.part_size = 10000;
  params.dataset_growth = 1.05;
  p::MemoryBackend be(false);
  const auto stats = mc::run_macsio(
      *ex::make_engine(ex::EngineKind::kSerial, params.nprocs), params, be);
  EXPECT_EQ(stats.total_bytes, be.total_bytes());
  EXPECT_EQ(stats.nfiles, be.file_count());
  ASSERT_EQ(stats.bytes_per_dump.size(), 3u);
  // growth: later dumps strictly larger
  EXPECT_GT(stats.bytes_per_dump[2], stats.bytes_per_dump[0]);
  EXPECT_EQ(stats.bytes_per_dump[0] + stats.bytes_per_dump[1] +
                stats.bytes_per_dump[2],
            stats.total_bytes);
}

TEST(Driver, MifGroupingSharesFiles) {
  mc::Params params;
  params.nprocs = 8;
  params.mif_files = 2;  // 4 tasks per file
  params.num_dumps = 1;
  params.part_size = 2000;
  p::MemoryBackend be(false);
  const auto stats = mc::run_macsio(
      *ex::make_engine(ex::EngineKind::kSerial, params.nprocs), params, be);
  // 2 data files + 1 root
  EXPECT_EQ(stats.nfiles, 3u);
  EXPECT_TRUE(be.exists("macsio_out/data/macsio_json_00000_000.json"));
  EXPECT_TRUE(be.exists("macsio_out/data/macsio_json_00001_000.json"));
}

TEST(Driver, SifSingleSharedFile) {
  mc::Params params;
  params.nprocs = 6;
  params.file_mode = mc::FileMode::kSif;
  params.num_dumps = 2;
  params.part_size = 2000;
  p::MemoryBackend be(false);
  const auto stats = mc::run_macsio(
      *ex::make_engine(ex::EngineKind::kSerial, params.nprocs), params, be);
  EXPECT_TRUE(be.exists("macsio_out/data/macsio_json_shared_000.json"));
  EXPECT_TRUE(be.exists("macsio_out/data/macsio_json_shared_001.json"));
  EXPECT_EQ(stats.nfiles, 4u);  // 2 shared + 2 roots
}

TEST(Driver, ComputeTimeSpacesRequests) {
  mc::Params params;
  params.nprocs = 2;
  params.num_dumps = 3;
  params.compute_time = 1.5;
  params.part_size = 1000;
  p::MemoryBackend be(false);
  const auto stats = mc::run_macsio(
      *ex::make_engine(ex::EngineKind::kSerial, params.nprocs), params, be);
  for (const auto& req : stats.requests) {
    const double phase = std::fmod(req.submit_time, 1.5);
    EXPECT_NEAR(phase, 0.0, 1e-12);
  }
  double max_t = 0.0;
  for (const auto& req : stats.requests) max_t = std::max(max_t, req.submit_time);
  EXPECT_DOUBLE_EQ(max_t, 3.0);
}

TEST(Driver, RequestsCarryPerTaskBytes) {
  mc::Params params;
  params.nprocs = 3;
  params.num_dumps = 2;
  params.part_size = 5000;
  p::MemoryBackend be(false);
  const auto stats = mc::run_macsio(
      *ex::make_engine(ex::EngineKind::kSerial, params.nprocs), params, be);
  // identity codec: the requests carry every written byte, and each rank's
  // data request carries exactly its task document
  std::uint64_t requested = 0;
  for (const auto& req : stats.requests) requested += req.bytes;
  EXPECT_EQ(requested, stats.total_bytes);
  for (int dump = 0; dump < params.num_dumps; ++dump) {
    for (int r = 0; r < params.nprocs; ++r) {
      const std::string path = mc::dump_file_path(params, r, dump);
      int matches = 0;
      for (const auto& req : stats.requests) {
        if (stats.requests.path(req) != path) continue;
        ++matches;
        EXPECT_EQ(req.client, r) << path;
        EXPECT_EQ(req.bytes, stats.task_bytes[static_cast<std::size_t>(dump)]
                                             [static_cast<std::size_t>(r)])
            << path;
        EXPECT_EQ(req.bytes, be.size(path)) << path;
      }
      EXPECT_EQ(matches, 1) << path;
    }
  }
}

TEST(Driver, MetaSizeAddsPerTaskBytes) {
  mc::Params base;
  base.nprocs = 2;
  base.num_dumps = 1;
  base.part_size = 1000;
  p::MemoryBackend be1(false);
  const auto without = mc::run_macsio(
      *ex::make_engine(ex::EngineKind::kSerial, base.nprocs), base, be1);
  base.meta_size = 10000;
  p::MemoryBackend be2(false);
  const auto with = mc::run_macsio(
      *ex::make_engine(ex::EngineKind::kSerial, base.nprocs), base, be2);
  EXPECT_NEAR(static_cast<double>(with.total_bytes - without.total_bytes),
              2 * 10000.0, 64.0);
}

// ------------------------------------------------------- golden documents

namespace {

enum class Layout { kMif, kSif, kAgg };

/// FNV-1a-64 (restart_hash) over every file of a store-mode dump, path and
/// contents, in path order: pins the document bytes, the file names and the
/// metadata (root documents, aggregation index) at once.
std::uint64_t dump_tree_digest(Layout layout, mc::FillMode fill) {
  mc::Params params;
  params.nprocs = 12;
  params.num_dumps = 11;  // two-digit dump numbers in names and headers
  params.part_size = 600;
  params.avg_num_parts = 2.0;
  params.vars_per_part = 3;
  params.meta_size = 5;
  params.fill = fill;
  switch (layout) {
    case Layout::kMif: params.mif_files = 5; break;
    case Layout::kSif: params.file_mode = mc::FileMode::kSif; break;
    case Layout::kAgg: params.aggregators = 3; break;
  }
  params.validate();
  p::MemoryBackend be(true);
  mc::run_macsio(*ex::make_engine(ex::EngineKind::kSerial, params.nprocs),
                 params, be);
  std::vector<std::byte> all;
  for (const std::string& path : be.list("")) {
    const auto name = std::as_bytes(std::span(path.data(), path.size() + 1));
    all.insert(all.end(), name.begin(), name.end());
    const auto bytes = be.read(path);
    all.insert(all.end(), bytes.begin(), bytes.end());
  }
  return mc::restart_hash(all);
}

}  // namespace

TEST(Driver, DumpTreeBytesArePinned) {
  // The document headers, var names, file names and index lines are
  // rendered with std::to_chars into reserved or stack buffers; these
  // digests pin every byte of the tree they produce.
  EXPECT_EQ(dump_tree_digest(Layout::kMif, mc::FillMode::kSized),
            0xf566b67e48b04e8dull);
  EXPECT_EQ(dump_tree_digest(Layout::kMif, mc::FillMode::kReal),
            0xb2ef2d358011f696ull);
  EXPECT_EQ(dump_tree_digest(Layout::kSif, mc::FillMode::kSized),
            0x0c3da2b0a8f4338cull);
  EXPECT_EQ(dump_tree_digest(Layout::kSif, mc::FillMode::kReal),
            0x018fe26efd3b2885ull);
  EXPECT_EQ(dump_tree_digest(Layout::kAgg, mc::FillMode::kSized),
            0xae87a6278c491daeull);
  EXPECT_EQ(dump_tree_digest(Layout::kAgg, mc::FillMode::kReal),
            0x8672e77ad3182057ull);
}

// ------------------------------------------------------------------ SPMD

TEST(DriverSpmd, MatchesSerialByteForByte) {
  mc::Params params;
  params.nprocs = 4;
  params.num_dumps = 2;
  params.part_size = 3000;
  params.dataset_growth = 1.1;
  params.meta_size = 50;

  p::MemoryBackend serial_be(false);
  const auto serial =
      mc::run_macsio(*ex::make_engine(ex::EngineKind::kSerial, params.nprocs),
                     params, serial_be);

  p::MemoryBackend spmd_be(false);
  amrio::exec::SpmdEngine engine(params.nprocs);
  const auto spmd = mc::run_macsio(engine, params, spmd_be);

  EXPECT_EQ(spmd.total_bytes, serial.total_bytes);
  EXPECT_EQ(spmd.nfiles, serial.nfiles);
  ASSERT_EQ(spmd.task_bytes.size(), serial.task_bytes.size());
  for (std::size_t d = 0; d < spmd.task_bytes.size(); ++d)
    EXPECT_EQ(spmd.task_bytes[d], serial.task_bytes[d]) << "dump " << d;
  // identical backend contents (paths + sizes)
  EXPECT_EQ(spmd_be.list(""), serial_be.list(""));
  for (const auto& path : serial_be.list(""))
    EXPECT_EQ(spmd_be.size(path), serial_be.size(path)) << path;
}

TEST(DriverSpmd, MifGroupBatonOrdering) {
  // grouped MIF in SPMD: group members append in rank order; totals must
  // match the serial driver
  mc::Params params;
  params.nprocs = 6;
  params.mif_files = 2;
  params.num_dumps = 1;
  params.part_size = 1000;

  p::MemoryBackend serial_be(true);
  mc::run_macsio(*ex::make_engine(ex::EngineKind::kSerial, params.nprocs),
                 params, serial_be);
  p::MemoryBackend spmd_be(true);
  amrio::exec::SpmdEngine engine(params.nprocs);
  mc::run_macsio(engine, params, spmd_be);
  for (const auto& path : serial_be.list("")) {
    EXPECT_EQ(spmd_be.read(path), serial_be.read(path)) << path;
  }
}

TEST(DriverSpmd, WrongCommSizeRejected) {
  mc::Params params;
  params.nprocs = 3;
  p::MemoryBackend be(false);
  amrio::exec::SpmdEngine engine(2);
  EXPECT_THROW(mc::run_macsio(engine, params, be), amrio::ContractViolation);
}
