/// Failure-injection tests: corrupted plotfiles, partial trees, malformed
/// CLI/inputs, backend misuse, and a fault-injecting storage backend that
/// verifies error propagation through the writers.

#include <gtest/gtest.h>

#include <mutex>
#include <set>

#include "amr/inputs.hpp"
#include "core/campaign.hpp"
#include "exec/engine.hpp"
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

/// Backend that fails the first write to one path. Thread-safe, so it can
/// sit under SpmdEngine's concurrent ranks.
class PathFaultBackend final : public p::StorageBackend {
 public:
  PathFaultBackend(p::StorageBackend& inner, std::string path)
      : inner_(inner), path_(std::move(path)) {}

  p::FileHandle create(const std::string& path) override {
    return watch(path, inner_.create(path));
  }
  p::FileHandle open_append(const std::string& path) override {
    return watch(path, inner_.open_append(path));
  }
  void write(p::FileHandle handle, std::span<const std::byte> data) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!fired_ && watched_.count(handle) != 0) {
        fired_ = true;
        throw std::runtime_error("injected fault: write to " + path_);
      }
    }
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

 private:
  p::FileHandle watch(const std::string& path, p::FileHandle handle) {
    if (path == path_) {
      std::lock_guard<std::mutex> lock(mu_);
      watched_.insert(handle);
    }
    return handle;
  }

  p::StorageBackend& inner_;
  const std::string path_;
  std::mutex mu_;
  std::set<p::FileHandle> watched_;
  bool fired_ = false;
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
    for (std::size_t i = 0; i < storage[0].nfabs(); ++i)
      storage[0].fab(i).set_val(1.0);
    spec.dir = "plt00000";
    spec.var_names = {"density"};
    const m::Geometry geom(m::Box(0, 0, 15, 15), {0.0, 0.0}, {1.0, 1.0});
    const auto engine =
        amrio::exec::make_engine(amrio::exec::EngineKind::kEvent, 2);
    pf::write_plotfile(*engine, backend, spec, {{geom, &storage[0]}});
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
  const auto engine =
      amrio::exec::make_engine(amrio::exec::EngineKind::kEvent, 2);
  EXPECT_THROW(
      pf::write_plotfile(*engine, faulty, wp.spec, {{geom, &wp.storage[0]}}),
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
  const auto engine =
      amrio::exec::make_engine(amrio::exec::EngineKind::kSerial, params.nprocs);
  EXPECT_THROW(amrio::macsio::run_macsio(*engine, params, faulty),
               std::runtime_error);
}

TEST(FailureWriter, RootMetadataFaultUnwindsEveryEngine) {
  // Rank 0 writes the root metadata after the end-of-dump gather, while its
  // peers are already in the next dump: blocked on rank 0's MIF baton or in
  // the next gather, with no barrier in between. A fault in that write must
  // still unwind every rank, and run_macsio must rethrow the injected error
  // itself — not the CommAborted its peers observe — on every engine.
  amrio::macsio::Params params;
  params.nprocs = 64;
  params.mif_files = 8;
  params.num_dumps = 3;
  params.part_size = 2000;
  const std::string root = amrio::macsio::root_file_path(params, 0);
  for (const auto kind : {amrio::exec::EngineKind::kSerial,
                          amrio::exec::EngineKind::kEvent,
                          amrio::exec::EngineKind::kSpmd}) {
    SCOPED_TRACE(amrio::exec::engine_kind_name(kind));
    p::MemoryBackend inner(false);
    PathFaultBackend faulty(inner, root);
    const auto engine = amrio::exec::make_engine(kind, params.nprocs);
    try {
      (void)amrio::macsio::run_macsio(*engine, params, faulty);
      ADD_FAILURE() << "expected the injected fault to propagate";
    } catch (const amrio::exec::CommAborted& e) {
      ADD_FAILURE() << "a peer's abort surfaced instead: " << e.what();
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "injected fault: write to " + root);
    }
    // Dump 0's task files landed before the fault; its root file did not.
    EXPECT_TRUE(inner.exists(amrio::macsio::dump_file_path(params, 63, 0)));
  }
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
  const auto parse = [](const std::string& text) {
    return AmrInputs::from_inputs(amrio::util::InputsFile::from_string(text));
  };
  EXPECT_THROW(parse("amr.n_cell = 32\n"),
               amrio::ContractViolation);  // needs two values
  EXPECT_THROW(parse("castro.cfl = fast\n"), std::invalid_argument);
  EXPECT_THROW(AmrInputs::from_file("/nonexistent/inputs"),
               std::runtime_error);
  auto in = parse("amr.max_level = 99\n");
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
