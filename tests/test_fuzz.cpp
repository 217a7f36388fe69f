/// Light deterministic fuzzing: random byte corruption of plotfiles fed to
/// the reader, random token streams fed to the parsers. The invariant under
/// test is "throws or returns, never crashes or hangs" — the property a
/// production reader of foreign files must satisfy.

#include <gtest/gtest.h>

#include "core/run_flags.hpp"
#include "macsio/params.hpp"
#include "plotfile/fab_io.hpp"
#include "plotfile/reader.hpp"
#include "plotfile/writer.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/inputs.hpp"
#include "util/rng.hpp"

namespace pf = amrio::plotfile;
namespace p = amrio::pfs;
namespace m = amrio::mesh;

namespace {

/// A valid two-level plotfile in a content-retaining backend.
std::unique_ptr<p::MemoryBackend> make_valid_plotfile(
    std::vector<m::MultiFab>& storage) {
  auto be = std::make_unique<p::MemoryBackend>(true);
  m::BoxArray ba0(m::Box(0, 0, 15, 15));
  m::BoxArray ba1(m::Box(8, 8, 23, 23));
  auto dm0 = m::DistributionMapping::make(ba0, 2, m::DistributionStrategy::kSfc);
  auto dm1 = m::DistributionMapping::make(ba1, 2, m::DistributionStrategy::kSfc);
  storage.emplace_back(ba0, dm0, 2, 0);
  storage.emplace_back(ba1, dm1, 2, 0);
  storage[0].set_val(1.0);
  storage[1].set_val(2.0);
  const m::Geometry g0(m::Box(0, 0, 15, 15), {0.0, 0.0}, {1.0, 1.0});
  pf::PlotfileSpec spec;
  spec.dir = "fz_plt00000";
  spec.var_names = {"a", "b"};
  pf::write_plotfile(*be, spec,
                     {{g0, &storage[0]}, {g0.refine(2), &storage[1]}});
  return be;
}

}  // namespace

class ReaderFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ReaderFuzz, CorruptedBytesNeverCrash) {
  amrio::util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 4099);
  std::vector<m::MultiFab> storage;
  auto be = make_valid_plotfile(storage);
  const auto files = be->list("fz_plt00000");
  ASSERT_FALSE(files.empty());

  for (int trial = 0; trial < 20; ++trial) {
    // pick a file, corrupt 1-16 random bytes, try to read the plotfile
    const auto& victim = files[rng.uniform_int(files.size())];
    auto bytes = be->read(victim);
    if (bytes.empty()) continue;
    const int nflips = 1 + static_cast<int>(rng.uniform_int(16));
    for (int k = 0; k < nflips; ++k) {
      const std::size_t pos = rng.uniform_int(bytes.size());
      bytes[pos] = static_cast<std::byte>(rng.uniform_int(256));
    }
    {
      p::OutFile out(*be, victim);
      out.write(std::span<const std::byte>(bytes.data(), bytes.size()));
    }
    try {
      const auto pf_in = pf::read_plotfile(*be, "fz_plt00000");
      // a surviving read must at least be self-consistent
      EXPECT_EQ(pf_in.levels.size(),
                static_cast<std::size_t>(pf_in.finest_level + 1));
    } catch (const std::exception&) {
      // rejection is the expected outcome
    }
    // restore for the next trial
    storage.clear();
    be = make_valid_plotfile(storage);
  }
}

TEST_P(ReaderFuzz, TruncationsNeverCrash) {
  amrio::util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  std::vector<m::MultiFab> storage;
  auto be = make_valid_plotfile(storage);
  for (const auto& victim : be->list("fz_plt00000")) {
    const auto bytes = be->read(victim);
    const std::size_t cut = rng.uniform_int(bytes.size() + 1);
    {
      p::OutFile out(*be, victim);
      out.write(std::span<const std::byte>(bytes.data(), cut));
    }
    try {
      (void)pf::read_plotfile(*be, "fz_plt00000");
    } catch (const std::exception&) {
    }
    // restore
    {
      p::OutFile out(*be, victim);
      out.write(std::span<const std::byte>(bytes.data(), bytes.size()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReaderFuzz, ::testing::Range(1, 7));

class ParserFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ParserFuzz, InputsFileNeverCrashes) {
  amrio::util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 31337);
  static constexpr const char kChars[] =
      "abcdefghijklmnop.=# 0123456789\n\t-_+e";
  for (int trial = 0; trial < 50; ++trial) {
    std::string text;
    const std::size_t len = rng.uniform_int(400);
    for (std::size_t i = 0; i < len; ++i)
      text += kChars[rng.uniform_int(sizeof(kChars) - 1)];
    try {
      const auto in = amrio::util::InputsFile::from_string(text);
      // surviving parse: getters must throw cleanly, not crash
      for (const auto& key : in.keys()) {
        try {
          (void)in.get_double(key);
        } catch (const std::exception&) {
        }
      }
    } catch (const std::exception&) {
    }
  }
}

TEST_P(ParserFuzz, MacsioCliNeverCrashes) {
  amrio::util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 65537);
  const std::vector<std::string> vocab{
      "--interface", "miftmpl",  "hdf5",      "--parallel_file_mode",
      "MIF",         "SIF",      "8",         "--num_dumps",
      "20",          "-3",       "--part_size", "1.5M",
      "xyz",         "--dataset_growth", "1.01", "99",
      "--nprocs",    "0",        "--meta_size", "4K"};
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::string> args;
    const std::size_t len = rng.uniform_int(8);
    for (std::size_t i = 0; i < len; ++i)
      args.push_back(vocab[rng.uniform_int(vocab.size())]);
    try {
      (void)amrio::macsio::Params::from_cli(args);
    } catch (const std::exception&) {
    }
  }
}

// The proxy's one flag table: Params' argv plus the shared run flags, fed
// `--k=v` forms, garbage and out-of-range numbers. Every input must either
// parse or throw — never crash, hang or wrap.
TEST_P(ParserFuzz, ProxyFlagTableNeverCrashes) {
  amrio::util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 92821);
  const std::vector<std::string> vocab{
      // Params flags, bare and in --k=v form
      "--nprocs", "--nprocs=4", "--num_dumps", "--num_dumps=2x", "--part_size",
      "--part_size=nan", "--avg_num_parts", "--seed", "--seed=-3",
      "--parallel_file_mode", "--parallel_file_mode=MIF", "MIF", "SIF",
      "--aggregators", "--prefetch", "--restart", "--read_staging=bb",
      "--codec=ebl", "--codec_error_bound",
      // shared run flags
      "--engine", "--engine=event", "--engine=bogus", "event", "--jobs",
      "--jobs=0", "--trace_out", "--explain", "--explain=1",
      "--explain_out=x.json", "--cache",
      // values: plain, garbage, non-finite, out of range, stray
      "4", "0", "-1", "2x", "inf", "nan", "1e400", "4294967300", "1.5M",
      "junk", "=", "--", "--=3"};
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::string> args;
    const std::size_t len = rng.uniform_int(10);
    for (std::size_t i = 0; i < len; ++i)
      args.push_back(vocab[rng.uniform_int(vocab.size())]);
    amrio::util::ArgParser cli("fuzz", "proxy flag table");
    amrio::macsio::Params::declare_cli(cli);
    amrio::core::declare_run_flags(cli);
    try {
      cli.parse(args);
      const auto p = amrio::macsio::Params::from_parsed(cli);
      const auto run = amrio::core::read_run_flags(cli);
      EXPECT_GE(p.nprocs, 1);
      EXPECT_GE(run.jobs, 1);
    } catch (const std::exception&) {
    }
  }
}

TEST_P(ParserFuzz, FabHeaderNeverCrashes) {
  amrio::util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 271828);
  for (int trial = 0; trial < 50; ++trial) {
    std::string junk = "FAB ";
    const std::size_t len = rng.uniform_int(120);
    for (std::size_t i = 0; i < len; ++i)
      junk += static_cast<char>(32 + rng.uniform_int(95));
    junk += "\n";
    std::size_t offset = 0;
    try {
      (void)pf::parse_fab_header(
          std::as_bytes(std::span<const char>(junk.data(), junk.size())),
          offset);
    } catch (const std::exception&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Range(1, 7));
