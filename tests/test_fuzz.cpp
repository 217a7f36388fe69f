/// Light deterministic fuzzing: random byte corruption of plotfiles fed to
/// the reader, random token streams fed to the parsers. The invariant under
/// test is "throws or returns, never crashes or hangs" — the property a
/// production reader of foreign files must satisfy.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "campaign/cache.hpp"
#include "core/run_flags.hpp"
#include "exec/engine.hpp"
#include "macsio/params.hpp"
#include "plotfile/fab_io.hpp"
#include "plotfile/reader.hpp"
#include "plotfile/writer.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/inputs.hpp"
#include "util/rng.hpp"

namespace ex = amrio::exec;
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
  for (std::size_t i = 0; i < storage[0].nfabs(); ++i)
    storage[0].fab(i).set_val(1.0);
  for (std::size_t i = 0; i < storage[1].nfabs(); ++i)
    storage[1].fab(i).set_val(2.0);
  const m::Geometry g0(m::Box(0, 0, 15, 15), {0.0, 0.0}, {1.0, 1.0});
  pf::PlotfileSpec spec;
  spec.dir = "fz_plt00000";
  spec.var_names = {"a", "b"};
  const auto engine = ex::make_engine(ex::EngineKind::kEvent, 2);
  pf::write_plotfile(*engine, *be, spec,
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
      // surviving parse: getters must throw cleanly, not crash, on every
      // key the text may have defined
      for (const auto& line : amrio::util::split(text, '\n')) {
        const std::string key = amrio::util::trim(line.substr(0, line.find('=')));
        if (!in.contains(key)) continue;
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

// The proxy-only extras are declared in macsio_proxy's own main, so they
// are driven through the built binary (next to this test executable): every
// malformed value — garbage, negative, out of range, empty, missing, in
// bare and `--k=v` form — must exit 2 with one stderr line, never run,
// hang or abort.
TEST(ProxyExtrasCli, MalformedValuesExitTwoWithOneLine) {
  const std::filesystem::path proxy =
      std::filesystem::read_symlink("/proc/self/exe").parent_path() /
      "macsio_proxy";
  if (!std::filesystem::exists(proxy))
    GTEST_SKIP() << proxy << " is not built";
  const std::vector<std::string> cases{
      "--trace_sample abc",    "--trace_sample=2x",
      "--trace_sample -1",     "--trace_sample=-5",
      "--trace_sample=1e400",  "--trace_sample=4294967300",
      "--trace_sample=nan",    "--trace_sample=",
      "--trace_sample",        "--predict 0",
      "--predict=-3",          "--predict -3",
      "--predict nan",         "--predict=12junk",
      "--predict=99999999999", "--predict=0x10",
      "--predict=",            "--predict"};
  for (const std::string& bad : cases) {
    // stderr into the pipe, stdout discarded; `timeout` turns a hang into
    // exit 124.
    const std::string cmd = "timeout 10 '" + proxy.string() +
                            "' --nprocs 2 --num_dumps 1 " + bad +
                            " 2>&1 >/dev/null";
    FILE* pipe = popen(cmd.c_str(), "r");
    ASSERT_NE(pipe, nullptr) << cmd;
    std::string err;
    char buf[256];
    while (std::fgets(buf, sizeof(buf), pipe) != nullptr) err += buf;
    const int status = pclose(pipe);
    ASSERT_TRUE(WIFEXITED(status)) << bad << ": killed by a signal";
    EXPECT_EQ(WEXITSTATUS(status), 2) << bad << ": " << err;
    EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1)
        << bad << ": " << err;
    EXPECT_EQ(err.rfind("macsio_proxy: ", 0), 0u) << bad << ": " << err;
    const std::string flag = bad.substr(0, bad.find_first_of(" ="));
    EXPECT_NE(err.find(flag), std::string::npos) << bad << ": " << err;
  }
}

TEST(ProxyExtrasCli, NoApproxCriticalPathRefusesOnlyWhatWasAsked) {
  // Under --trace_sample, --no_approx_critical_path turns --critical_path
  // and --explain into exit 3; a run asking for neither still writes its
  // sampled trace.
  const std::filesystem::path proxy =
      std::filesystem::read_symlink("/proc/self/exe").parent_path() /
      "macsio_proxy";
  if (!std::filesystem::exists(proxy))
    GTEST_SKIP() << proxy << " is not built";
  const std::string trace = testing::TempDir() + "no_approx_trace.json";
  auto run = [&](const std::string& extra) {
    std::remove(trace.c_str());
    const std::string cmd =
        "timeout 20 '" + proxy.string() +
        "' --nprocs 16 --aggregators 4 --num_dumps 1 --trace_sample 4 "
        "--trace_out '" + trace + "' --no_approx_critical_path " + extra +
        " >/dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    EXPECT_TRUE(WIFEXITED(status)) << extra << ": killed by a signal";
    return WEXITSTATUS(status);
  };
  EXPECT_EQ(run(""), 0);
  std::ifstream in(trace);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes.rfind("{\"displayTimeUnit\"", 0), 0u) << "no trace written";
  EXPECT_EQ(run("--critical_path"), 3);
  EXPECT_EQ(run("--explain"), 3);
  std::remove(trace.c_str());
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

// The campaign cache loader (--cache) reads a file the user controls:
// truncations, byte flips, hostile nesting and out-of-range numbers must
// load or throw — never crash, overflow the stack or hit undefined casts.
TEST_P(ParserFuzz, CampaignCacheNeverCrashes) {
  namespace cg = amrio::campaign;
  amrio::util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 40503);
  const std::string path =
      "fuzz_campaign_cache_" + std::to_string(GetParam()) + ".json";
  std::string valid;
  {
    cg::ResultCache cache;
    for (int i = 0; i < 3; ++i) {
      cg::CellResult r;
      r.raw_bytes = 1000u + static_cast<std::uint64_t>(i);
      r.dump_seconds = 0.25 * i;
      r.critical_stage = "pfs_write";
      cache.insert("key" + std::to_string(i), r);
    }
    cache.save(path);
    std::ifstream in(path, std::ios::binary);
    valid.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_FALSE(valid.empty());

  const auto try_load = [&](const std::string& text) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
    cg::ResultCache cache;
    try {
      EXPECT_LE(cache.load(path), 3u);
    } catch (const std::exception& e) {
      EXPECT_EQ(std::string(e.what()).rfind("campaign cache: ", 0), 0u)
          << e.what();
    }
  };
  for (int trial = 0; trial < 40; ++trial) {
    try_load(valid.substr(0, rng.uniform_int(valid.size())));
    std::string flipped = valid;
    const int nflips = 1 + static_cast<int>(rng.uniform_int(8));
    for (int k = 0; k < nflips; ++k)
      flipped[rng.uniform_int(flipped.size())] =
          static_cast<char>(rng.uniform_int(256));
    try_load(flipped);
  }
  // deep nesting, bare and inside the entries array
  try_load(std::string(200000, '['));
  std::string nested = valid;
  nested.insert(nested.find("\"entries\": [") + 12, std::string(50000, '['));
  try_load(nested);
  std::string objects;
  for (int i = 0; i < 50000; ++i) objects += "{\"a\":";
  try_load(objects);

  // counts past 2^64 take the default instead of an undefined cast
  std::string huge = valid;
  const std::size_t at = huge.find("\"raw_bytes\": 1000");
  ASSERT_NE(at, std::string::npos);
  huge.replace(at, 17, "\"raw_bytes\": 1e30");
  std::ofstream(path, std::ios::binary | std::ios::trunc) << huge;
  cg::ResultCache cache;
  ASSERT_EQ(cache.load(path), 3u);
  cg::CellResult r;
  ASSERT_TRUE(cache.lookup("key0", &r));
  EXPECT_EQ(r.raw_bytes, 0u);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Range(1, 7));
