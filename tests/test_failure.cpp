/// Failure-injection tests: corrupted plotfiles, partial trees, malformed
/// CLI/inputs, backend misuse, and a fault-injecting storage backend that
/// verifies error propagation through the writers.

#include <gtest/gtest.h>

#include "amr/inputs.hpp"
#include "core/campaign.hpp"
#include "macsio/driver.hpp"
#include "macsio/params.hpp"
#include "plotfile/fab_io.hpp"
#include "plotfile/reader.hpp"
#include "plotfile/scanner.hpp"
#include "plotfile/writer.hpp"
#include "util/assert.hpp"
#include "util/format.hpp"

namespace pf = amrio::plotfile;
namespace p = amrio::pfs;
namespace m = amrio::mesh;

namespace {

/// Backend that fails the N-th write call (simulating ENOSPC/EIO mid-dump).
class FaultyBackend final : public p::StorageBackend {
 public:
  FaultyBackend(p::StorageBackend& inner, int fail_at_write)
      : inner_(inner), fail_at_(fail_at_write) {}

  p::FileHandle create(const std::string& path) override {
    return inner_.create(path);
  }
  p::FileHandle open_append(const std::string& path) override {
    return inner_.open_append(path);
  }
  void write(p::FileHandle handle, std::span<const std::byte> data) override {
    if (++writes_ == fail_at_)
      throw std::runtime_error("injected fault: write failed");
    inner_.write(handle, data);
  }
  void close(p::FileHandle handle) override { inner_.close(handle); }
  bool exists(const std::string& path) const override {
    return inner_.exists(path);
  }
  std::uint64_t size(const std::string& path) const override {
    return inner_.size(path);
  }
  std::vector<std::string> list(const std::string& prefix) const override {
    return inner_.list(prefix);
  }
  std::vector<std::byte> read(const std::string& path) const override {
    return inner_.read(path);
  }
  int writes_seen() const { return writes_; }

 private:
  p::StorageBackend& inner_;
  int fail_at_;
  int writes_ = 0;
};

/// Small valid plotfile to corrupt.
struct WrittenPlotfile {
  p::MemoryBackend backend{true};
  pf::PlotfileSpec spec;
  std::vector<m::MultiFab> storage;

  WrittenPlotfile() {
    m::BoxArray ba(m::Box(0, 0, 15, 15));
    auto dm = m::DistributionMapping::make(ba, 2,
                                           m::DistributionStrategy::kRoundRobin);
    storage.emplace_back(ba, dm, 1, 0);
    storage[0].set_val(1.0);
    spec.dir = "plt00000";
    spec.var_names = {"density"};
    const m::Geometry geom(m::Box(0, 0, 15, 15), {0.0, 0.0}, {1.0, 1.0});
    pf::write_plotfile(backend, spec, {{geom, &storage[0]}});
  }

  void corrupt(const std::string& path, const std::string& new_text) {
    p::OutFile f(backend, path);  // create() truncates
    f.write(new_text);
  }
};

}  // namespace

// ---------------------------------------------------------- reader faults

TEST(FailureReader, TruncatedCellH) {
  WrittenPlotfile wp;
  const auto original = wp.backend.read("plt00000/Level_0/Cell_H");
  std::string truncated(reinterpret_cast<const char*>(original.data()),
                        original.size() / 3);
  wp.corrupt("plt00000/Level_0/Cell_H", truncated);
  EXPECT_THROW(pf::read_plotfile(wp.backend, "plt00000"), std::runtime_error);
}

TEST(FailureReader, GarbageHeader) {
  WrittenPlotfile wp;
  wp.corrupt("plt00000/Header", "not a header at all\n1\n2\n");
  EXPECT_THROW(pf::read_plotfile(wp.backend, "plt00000"), std::runtime_error);
}

TEST(FailureReader, WrongGridCountInCellH) {
  WrittenPlotfile wp;
  // claim 2 grids in a Cell_H that describes 1
  auto bytes = wp.backend.read("plt00000/Level_0/Cell_H");
  std::string text(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  const auto pos = text.find("(1 0");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 4, "(2 0");
  wp.corrupt("plt00000/Level_0/Cell_H", text);
  EXPECT_THROW(pf::read_plotfile(wp.backend, "plt00000"), std::runtime_error);
}

TEST(FailureReader, MissingCellDFile) {
  WrittenPlotfile wp;
  // wipe a data file by pointing the backend entry at empty content
  wp.corrupt("plt00000/Level_0/Cell_D_00000", "");
  EXPECT_THROW(pf::read_plotfile(wp.backend, "plt00000"), std::runtime_error);
}

TEST(FailureReader, FabBoxMismatch) {
  WrittenPlotfile wp;
  // replace the data file with a fab of the wrong box
  m::Fab wrong(m::Box(0, 0, 3, 3), 1);
  {
    p::OutFile out(wp.backend, "plt00000/Level_0/Cell_D_00000");
    pf::write_fab(out, wrong, wrong.box());
  }
  EXPECT_THROW(pf::read_plotfile(wp.backend, "plt00000"), std::runtime_error);
}

// --------------------------------------------------------- scanner faults

TEST(FailureScanner, PartialTreeStillCounted) {
  // scanner is forensic: it reports whatever bytes exist, corrupt or not
  WrittenPlotfile wp;
  wp.corrupt("plt00000/Header", "junk");
  const auto scan = pf::scan_plotfiles(wp.backend, "plt");
  EXPECT_EQ(scan.plotfile_dirs.size(), 1u);
  EXPECT_EQ(scan.total_bytes, wp.backend.total_bytes());
}

TEST(FailureScanner, EmptyBackend) {
  p::MemoryBackend be(false);
  const auto scan = pf::scan_plotfiles(be, "plt");
  EXPECT_TRUE(scan.table.empty());
  EXPECT_TRUE(scan.plotfile_dirs.empty());
  EXPECT_EQ(scan.total_bytes, 0u);
}

// ---------------------------------------------------------- writer faults

TEST(FailureWriter, InjectedWriteFaultPropagates) {
  WrittenPlotfile wp;  // provides storage/spec
  p::MemoryBackend inner(false);
  FaultyBackend faulty(inner, 2);
  const m::Geometry geom(m::Box(0, 0, 15, 15), {0.0, 0.0}, {1.0, 1.0});
  EXPECT_THROW(
      pf::write_plotfile(faulty, wp.spec, {{geom, &wp.storage[0]}}),
      std::runtime_error);
  EXPECT_GE(faulty.writes_seen(), 2);
}

TEST(FailureWriter, MacsioFaultPropagates) {
  amrio::macsio::Params params;
  params.nprocs = 2;
  params.num_dumps = 2;
  params.part_size = 4000;
  p::MemoryBackend inner(false);
  FaultyBackend faulty(inner, 3);
  EXPECT_THROW(amrio::macsio::run_macsio(params, faulty), std::runtime_error);
}

// -------------------------------------------------------------- CLI faults

TEST(FailureCli, MacsioRejectsMalformedInvocations) {
  using amrio::macsio::Params;
  EXPECT_THROW(Params::from_cli({"--interface", "netcdf"}),
               std::invalid_argument);
  EXPECT_THROW(Params::from_cli({"--parallel_file_mode", "BOTH", "1"}),
               std::invalid_argument);
  EXPECT_THROW(Params::from_cli({"--part_size", "tiny"}),
               std::invalid_argument);
  EXPECT_THROW(Params::from_cli({"--num_dumps"}), std::invalid_argument);
  EXPECT_THROW(Params::from_cli({"--bogus_flag", "1"}), std::invalid_argument);
  // strict conversions: trailing garbage, wrap-around, non-finite values,
  // negative seeds and stray positional tokens all fail the parse
  for (const std::vector<std::string>& bad :
       std::vector<std::vector<std::string>>{
           {"--num_dumps", "2x"},
           {"--nprocs", "4294967300"},
           {"--avg_num_parts", "inf"},
           {"--parallel_file_mode", "MIF", "2x"},
           {"--seed", "-3"},
           {"--nprocs", "4", "junk"},
           {"--part_size", "nan"}}) {
    EXPECT_THROW(Params::from_cli(bad), std::invalid_argument)
        << amrio::util::join(bad, " ");
  }
  // semantic failures surface through validate()
  EXPECT_THROW(Params::from_cli({"--num_dumps", "0"}),
               amrio::ContractViolation);
  EXPECT_THROW(Params::from_cli({"--dataset_growth", "3.5"}),
               amrio::ContractViolation);
}

TEST(FailureInputs, AmrInputsRejectBrokenFiles) {
  using amrio::amr::AmrInputs;
  EXPECT_THROW(AmrInputs::from_string("amr.n_cell = 32\n"),
               amrio::ContractViolation);  // needs two values
  EXPECT_THROW(AmrInputs::from_string("castro.cfl = fast\n"),
               std::invalid_argument);
  EXPECT_THROW(AmrInputs::from_file("/nonexistent/inputs"),
               std::runtime_error);
  auto in = AmrInputs::from_string("amr.max_level = 99\n");
  EXPECT_THROW(in.validate(), amrio::ContractViolation);
}

// ---------------------------------------------------------- backend misuse

TEST(FailureBackend, UseAfterClose) {
  p::MemoryBackend be(true);
  const auto h = be.create("f");
  be.close(h);
  std::byte b{1};
  EXPECT_THROW(be.write(h, std::span<const std::byte>(&b, 1)),
               std::runtime_error);
  EXPECT_THROW(be.close(h), std::runtime_error);
}

TEST(FailureBackend, PosixUnwritablePathThrows) {
  EXPECT_THROW(p::PosixBackend("/proc/definitely/not/writable/amrio"),
               std::runtime_error);
}

// ------------------------------------------------------ campaign edge cases

TEST(FailureCampaign, NoOutputEventsRejectedByMeasurements) {
  amrio::core::RunRecord rec;  // empty series
  EXPECT_THROW(rec.measurements(), amrio::ContractViolation);
}

TEST(FailureCampaign, InvalidCaseConfigCaughtAtInputs) {
  amrio::core::CaseConfig c;
  c.ncell = 33;  // not a blocking_factor multiple
  EXPECT_THROW(c.to_inputs(), amrio::ContractViolation);
}
