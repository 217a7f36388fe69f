/// Tests for the codec subsystem: the three registered compression models
/// (identity / lossless / ebl), their container round-trip and in-place
/// `payload` read (same checks and errors as `decode`), smoothness
/// estimation from real field data, CodecStats accounting, the MACSio knob
/// validation, and the integration across every byte path — identity stays
/// byte-identical to the PR-2 staging output, raw accounting conserves
/// task_doc_bytes() while the wire/tier carries encoded bytes, and the
/// plotfile per-Cell_D hook keeps predict parity. Engine-facing cases run on
/// both SerialEngine and SpmdEngine.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <numeric>
#include <span>

#include "codec/codec.hpp"
#include "codec/stats.hpp"
#include "exec/engine.hpp"
#include "macsio/driver.hpp"
#include "macsio/interfaces.hpp"
#include "mesh/distribution.hpp"
#include "mesh/multifab.hpp"
#include "pfs/backend.hpp"
#include "plotfile/writer.hpp"
#include "staging/aggregator.hpp"
#include "util/assert.hpp"

namespace cd = amrio::codec;
namespace ex = amrio::exec;
namespace mc = amrio::macsio;
namespace m = amrio::mesh;
namespace p = amrio::pfs;
namespace pf = amrio::plotfile;
namespace st = amrio::staging;

// ------------------------------------------------------------ codec models

TEST(CodecModel, IdentityIsExactPassthrough) {
  const auto codec = cd::make_codec({});
  EXPECT_EQ(codec->name(), "identity");
  const auto r = codec->plan(12345);
  EXPECT_EQ(r.raw_bytes, 12345u);
  EXPECT_EQ(r.out_bytes, 12345u);
  EXPECT_DOUBLE_EQ(r.cpu_seconds, 0.0);
  const std::string text = "AMRIOCDC-lookalike payload";
  std::vector<std::byte> raw(text.size());
  std::memcpy(raw.data(), text.data(), text.size());
  cd::CompressResult enc;
  const auto blob = codec->encode(raw, &enc);
  EXPECT_EQ(blob, raw);  // no container, no copy semantics change
  EXPECT_EQ(codec->decode(blob), raw);
  EXPECT_EQ(enc.out_bytes, raw.size());
}

TEST(CodecModel, LosslessRatioIsDeterministicAndSizeCalibrated) {
  cd::CodecSpec spec;
  spec.name = "lossless";
  const auto codec = cd::make_codec(spec);
  // Eq. (3) anchors: the default 80 kB part compresses ~2.3x, the 1.55 MB
  // Listing-1 part ~4.5x, monotone in between.
  const auto small = codec->plan(80'000);
  const auto large = codec->plan(1'550'000);
  EXPECT_NEAR(small.ratio(), 2.3, 2.3 * 0.05);
  EXPECT_NEAR(large.ratio(), 4.5, 4.5 * 0.05);
  EXPECT_LT(small.ratio(), large.ratio());
  // pure function of the raw size
  EXPECT_EQ(codec->plan(80'000).out_bytes, small.out_bytes);
  // default throughput charges cpu proportional to raw bytes
  EXPECT_GT(small.cpu_seconds, 0.0);
  EXPECT_NEAR(large.cpu_seconds / small.cpu_seconds, 1'550'000.0 / 80'000.0,
              1e-9);
  // tiny chunks never shrink below the per-chunk floor (or their own size)
  EXPECT_EQ(codec->plan(32).out_bytes, 32u);
  EXPECT_EQ(codec->plan(0).out_bytes, 0u);
}

TEST(CodecModel, EblRatioTracksErrorBoundAndSmoothness) {
  auto at_bound = [](double eb) {
    cd::CodecSpec spec;
    spec.name = "ebl";
    spec.error_bound = eb;
    spec.throughput = 2.0e9;
    return cd::make_codec(spec);
  };
  const std::uint64_t raw = 1 << 20;
  const auto loose = at_bound(1e-2)->plan(raw);
  const auto mid = at_bound(1e-4)->plan(raw);
  const auto tight = at_bound(1e-6)->plan(raw);
  // looser bounds compress harder; everything stays within [floor, raw]
  EXPECT_LT(loose.out_bytes, mid.out_bytes);
  EXPECT_LT(mid.out_bytes, tight.out_bytes);
  EXPECT_LT(tight.out_bytes, raw);
  // the AMRIC band: 2-10x over these bounds at default smoothness
  EXPECT_GE(loose.ratio(), 2.0);
  EXPECT_LE(tight.ratio(), 10.0);
  // smoother fields compress harder at a fixed bound
  const auto codec = at_bound(1e-3);
  EXPECT_LT(codec->plan_with(raw, 0.95).out_bytes,
            codec->plan_with(raw, 0.5).out_bytes);
  // cpu is raw / throughput
  EXPECT_NEAR(loose.cpu_seconds, static_cast<double>(raw) / 2.0e9, 1e-12);
}

TEST(CodecModel, ContainerRoundTripsByteExactly) {
  cd::CodecSpec spec;
  spec.name = "ebl";
  const auto codec = cd::make_codec(spec);
  std::vector<std::byte> raw(100'000);
  for (std::size_t i = 0; i < raw.size(); ++i)
    raw[i] = static_cast<std::byte>(i * 37);
  cd::CompressResult enc;
  const auto blob = codec->encode(raw, &enc);
  EXPECT_EQ(enc.raw_bytes, raw.size());
  EXPECT_LT(enc.out_bytes, raw.size());
  EXPECT_EQ(blob.size(), codec->header_bytes() + raw.size());
  EXPECT_EQ(codec->decode(blob), raw);
  // a blob this codec did not produce is rejected loudly
  EXPECT_THROW(codec->decode(raw), std::runtime_error);
}

TEST(CodecModel, PayloadReadsTheContainerInPlace) {
  // payload(encode(x)) is x, viewed inside the blob: past the 32-byte header
  // for the container codecs, the blob itself for identity.
  std::vector<std::byte> raw(4'096);
  for (std::size_t i = 0; i < raw.size(); ++i)
    raw[i] = static_cast<std::byte>(i * 37);
  cd::CodecSpec lossless;
  lossless.name = "lossless";
  cd::CodecSpec ebl;
  ebl.name = "ebl";
  cd::CodecSpec per_var = ebl;
  per_var.var_error_bounds = {1e-3, 1e-5};
  for (const cd::CodecSpec& spec : {cd::CodecSpec{}, lossless, ebl, per_var}) {
    const auto codec = cd::make_codec(spec);
    const std::vector<std::byte> blob = codec->encode(raw);
    const std::span<const std::byte> view = codec->payload(blob);
    EXPECT_TRUE(std::equal(view.begin(), view.end(), raw.begin(), raw.end()))
        << spec.name;
    EXPECT_EQ(view.data(), blob.data() + (spec.enabled() ? 32 : 0))
        << spec.name;
    EXPECT_EQ(codec->decode(blob), raw) << spec.name;
  }
}

TEST(CodecModel, PayloadRejectsWhatDecodeRejects) {
  cd::CodecSpec spec;
  spec.name = "ebl";
  const auto codec = cd::make_codec(spec);
  const std::vector<std::byte> blob = codec->encode(std::vector<std::byte>(64));
  auto message = [&](std::span<const std::byte> bad, bool in_place) {
    try {
      if (in_place)
        (void)codec->payload(bad);
      else
        (void)codec->decode(bad);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  std::vector<std::byte> bad_magic = blob;
  bad_magic[0] = std::byte{'X'};
  const std::span<const std::byte> whole(blob);
  const std::string not_container =
      "codec 'ebl': blob is not an encoded container";
  const std::string mismatch = "codec 'ebl': container payload size mismatch";
  for (const bool in_place : {true, false}) {
    EXPECT_EQ(message(bad_magic, in_place), not_container);
    EXPECT_EQ(message(whole.first(31), in_place), not_container);
    EXPECT_EQ(message(whole.first(whole.size() - 1), in_place), mismatch);
  }
}

TEST(CodecModel, SmoothnessEstimatorSeparatesSmoothFromRough) {
  std::vector<double> constant(256, 4.2);
  EXPECT_DOUBLE_EQ(cd::estimate_smoothness(constant), 1.0);
  std::vector<double> linear(256);
  std::iota(linear.begin(), linear.end(), 0.0);
  EXPECT_DOUBLE_EQ(cd::estimate_smoothness(linear), 1.0);
  std::vector<double> smooth(256);
  for (std::size_t i = 0; i < smooth.size(); ++i)
    smooth[i] = std::sin(0.05 * static_cast<double>(i));
  std::vector<double> rough(256);
  for (std::size_t i = 0; i < rough.size(); ++i)
    rough[i] = (i % 2 == 0) ? 1.0 : -1.0;
  EXPECT_GT(cd::estimate_smoothness(smooth), 0.95);
  EXPECT_LT(cd::estimate_smoothness(rough), 0.1);
  EXPECT_GT(cd::estimate_smoothness(smooth), cd::estimate_smoothness(rough));
}

TEST(CodecModel, RegistryRejectsBadSpecsWithOneLineErrors) {
  EXPECT_EQ(cd::codec_names().size(), 3u);
  cd::CodecSpec spec;
  spec.name = "zfp";
  try {
    cd::make_codec(spec);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown codec 'zfp'"),
              std::string::npos);
  }
  spec.name = "ebl";
  spec.error_bound = 0.0;
  EXPECT_THROW(cd::make_codec(spec), std::invalid_argument);
  spec.error_bound = 1.5;
  EXPECT_THROW(cd::make_codec(spec), std::invalid_argument);
  spec.error_bound = 1e-3;
  spec.throughput = -1.0;
  EXPECT_THROW(cd::make_codec(spec), std::invalid_argument);
  spec.throughput = 0.0;
  spec.smoothness = 2.0;
  EXPECT_THROW(cd::make_codec(spec), std::invalid_argument);
}

TEST(CodecStatsTest, AccumulatesBreakdowns) {
  cd::CodecStats a;
  a.add(0, -1, {1000, 400, 0.1});
  a.add(0, -1, {500, 200, 0.05});
  a.add(1, -1, {1000, 250, 0.1});
  EXPECT_EQ(a.total.raw_bytes, 2500u);
  EXPECT_EQ(a.total.encoded_bytes, 850u);
  EXPECT_EQ(a.total.chunks, 3u);
  EXPECT_EQ(a.by_dump.at(0).encoded_bytes, 600u);
  EXPECT_EQ(a.by_dump.at(1).encoded_bytes, 250u);
  EXPECT_NEAR(a.total.ratio(), 2500.0 / 850.0, 1e-12);
  EXPECT_EQ(a.total.saved_bytes(), 1650u);
  a.add(1, 2, {100, 50, 0.01});
  EXPECT_EQ(a.total.chunks, 4u);
  EXPECT_EQ(a.by_dump.at(1).raw_bytes, 1100u);
  EXPECT_EQ(a.by_level.at(2).encoded_bytes, 50u);
}

// ----------------------------------------------------------- MACSio knobs

TEST(CodecKnobs, CliParsesRoundTripsAndRejects) {
  const auto p = mc::Params::from_cli({"--nprocs", "8", "--codec", "ebl",
                                       "--codec_error_bound", "1e-4",
                                       "--codec_throughput", "2e9"});
  EXPECT_EQ(p.codec, "ebl");
  EXPECT_DOUBLE_EQ(p.codec_error_bound, 1e-4);
  EXPECT_DOUBLE_EQ(p.codec_throughput, 2e9);
  const auto back = mc::Params::from_cli(p.to_cli());
  EXPECT_EQ(back.codec, "ebl");
  EXPECT_DOUBLE_EQ(back.codec_error_bound, 1e-4);

  // unknown codec names and out-of-range bounds die with one-line errors,
  // same shape as the --aggregators checks
  try {
    mc::Params::from_cli({"--nprocs", "8", "--codec", "zstd"});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown codec 'zstd'"),
              std::string::npos);
  }
  EXPECT_THROW(mc::Params::from_cli({"--nprocs", "8", "--codec", "ebl",
                                     "--codec_error_bound", "0"}),
               std::invalid_argument);
  EXPECT_THROW(mc::Params::from_cli({"--nprocs", "8", "--codec", "ebl",
                                     "--codec_error_bound", "1.5"}),
               std::invalid_argument);
  EXPECT_THROW(mc::Params::from_cli({"--nprocs", "8", "--codec", "lossless",
                                     "--codec_throughput", "-1"}),
               std::invalid_argument);
  // the consolidated path still rejects bad aggregator counts
  EXPECT_THROW(mc::Params::from_cli({"--nprocs", "8", "--aggregators", "0"}),
               std::invalid_argument);
  // programmatic params are validated too
  mc::Params bad;
  bad.codec = "nonsense";
  EXPECT_THROW(bad.validate(), amrio::ContractViolation);
}

// ------------------------------------------------- MACSio codec integration

namespace {

mc::Params codec_params(int nprocs, int aggregators, const std::string& codec) {
  mc::Params params;
  params.nprocs = nprocs;
  params.aggregators = aggregators;
  params.num_dumps = 3;
  params.part_size = 1500;
  params.dataset_growth = 1.05;
  params.meta_size = 16;
  params.avg_num_parts = 1.5;
  params.compute_time = 0.25;
  params.codec = codec;
  params.codec_throughput = 2.0e9;
  return params;
}

}  // namespace

class CodecMacsio : public ::testing::TestWithParam<ex::EngineKind> {};

TEST_P(CodecMacsio, IdentityIsByteIdenticalToUncodedStaging) {
  // The codec-aware dump loop with the identity codec must reproduce the
  // PR-2 staging output exactly: subfiles concatenate the flat run's task
  // documents in rank order, requests carry raw sizes on the raw timeline.
  const auto params = codec_params(16, 4, "identity");
  p::MemoryBackend be(true);
  const auto engine = ex::make_engine(GetParam(), params.nprocs);
  const auto stats = mc::run_macsio(*engine, params, be);

  auto flat = params;
  flat.aggregators = 0;
  p::MemoryBackend flat_be(true);
  mc::run_macsio(
      *ex::make_engine(GetParam(), flat.nprocs), flat, flat_be);

  const auto topo = st::AggTopology::make(params.nprocs, params.aggregators);
  for (int dump = 0; dump < params.num_dumps; ++dump) {
    for (int g = 0; g < topo.ngroups(); ++g) {
      std::vector<std::byte> expected;
      for (int r : topo.members_of(g)) {
        const auto doc = flat_be.read(mc::dump_file_path(flat, r, dump));
        expected.insert(expected.end(), doc.begin(), doc.end());
      }
      EXPECT_EQ(be.read(mc::aggregated_file_path(params, g, dump)), expected)
          << "group " << g << " dump " << dump;
    }
  }
  // identity accounting: encoded == raw, zero cpu, submit on the raw clock
  EXPECT_EQ(stats.codec.total.encoded_bytes, stats.codec.total.raw_bytes);
  EXPECT_DOUBLE_EQ(stats.codec.total.encode_seconds, 0.0);
  EXPECT_DOUBLE_EQ(stats.codec.total.decode_seconds, 0.0);
  const st::AggregationConfig agg_cfg{params.aggregators,
                                      params.agg_link_bandwidth, 1.0e-6};
  for (const auto& req : stats.requests) {
    if (req.file.find("_agg_") == std::string::npos) continue;
    const int g = topo.group_of(req.client);
    std::uint64_t subfile = 0;
    std::uint64_t shipped = 0;
    int nmessages = 0;
    for (int r : topo.members_of(g)) {
      const int dump = static_cast<int>(
          (req.submit_time + 1e-12) / params.compute_time);
      const std::uint64_t b = stats.task_bytes[static_cast<std::size_t>(dump)]
                                              [static_cast<std::size_t>(r)];
      subfile += b;
      if (r != req.client) {
        shipped += b;
        ++nmessages;
      }
    }
    EXPECT_EQ(req.bytes, subfile) << req.file;
    const int dump = static_cast<int>(
        (req.submit_time + 1e-12) / params.compute_time);
    EXPECT_NEAR(req.submit_time,
                dump * params.compute_time +
                    st::ship_cost(agg_cfg, shipped, nmessages),
                1e-12)
        << req.file;
  }
}

TEST_P(CodecMacsio, RawAccountingConservedWhileWireAndTierShrink) {
  const auto params = codec_params(16, 4, "ebl");
  p::MemoryBackend be(true);
  const auto engine = ex::make_engine(GetParam(), params.nprocs);
  const auto stats = mc::run_macsio(*engine, params, be);

  const auto codec = cd::make_codec(params.codec_spec());
  const auto iface = mc::make_interface(params.interface);
  const auto topo = st::AggTopology::make(params.nprocs, params.aggregators);
  std::uint64_t raw_total = 0;
  std::uint64_t encoded_total = 0;
  for (int dump = 0; dump < params.num_dumps; ++dump) {
    const mc::PartSpec spec = mc::make_part_spec(
        params.part_bytes_at_dump(dump), params.vars_per_part);
    std::map<int, std::uint64_t> group_encoded;
    std::uint64_t dump_raw = 0;
    for (int r = 0; r < params.nprocs; ++r) {
      // raw-byte accounting conserves the exact task document sizes
      const std::uint64_t doc = iface->task_doc_bytes(
          spec, r, dump, params.parts_of_rank(r), params.meta_size);
      EXPECT_EQ(stats.task_bytes[static_cast<std::size_t>(dump)]
                                [static_cast<std::size_t>(r)],
                doc);
      dump_raw += doc;
      group_encoded[topo.group_of(r)] += codec->plan(doc).out_bytes;
      raw_total += doc;
    }
    // ... while the subfile requests carry the encoded sizes (strictly
    // smaller) and the subfile contents stay the raw concatenation
    for (int g = 0; g < topo.ngroups(); ++g) {
      const auto path = mc::aggregated_file_path(params, g, dump);
      bool found = false;
      for (const auto& req : stats.requests) {
        if (req.file != path) continue;
        found = true;
        EXPECT_EQ(req.bytes, group_encoded[g]) << path;
        EXPECT_GT(req.submit_time, dump * params.compute_time) << path;
      }
      EXPECT_TRUE(found) << path;
      encoded_total += group_encoded[g];
      std::uint64_t members_raw = 0;
      for (int r : topo.members_of(g))
        members_raw += stats.task_bytes[static_cast<std::size_t>(dump)]
                                       [static_cast<std::size_t>(r)];
      EXPECT_LT(group_encoded[g], members_raw) << path;
      EXPECT_EQ(be.size(path), members_raw) << path;  // decoded on arrival
    }
    EXPECT_EQ(stats.bytes_per_dump[static_cast<std::size_t>(dump)],
              dump_raw + mc::aggregated_index_bytes(params) +
                  be.size(mc::root_file_path(params, dump)));
  }
  EXPECT_EQ(stats.codec.total.raw_bytes, raw_total);
  EXPECT_EQ(stats.codec.total.encoded_bytes, encoded_total);
  EXPECT_LT(stats.codec.total.encoded_bytes, stats.codec.total.raw_bytes);
  EXPECT_GT(stats.codec.total.encode_seconds, 0.0);
  EXPECT_DOUBLE_EQ(stats.codec.total.decode_seconds, 0.0);  // write side only
  EXPECT_EQ(stats.codec.total.chunks,
            static_cast<std::uint64_t>(params.nprocs * params.num_dumps));
}

TEST_P(CodecMacsio, UnaggregatedRequestsCarryEncodedSizesAndCpuDelay) {
  const auto params = codec_params(8, 0, "lossless");
  p::MemoryBackend be(false);
  const auto engine = ex::make_engine(GetParam(), params.nprocs);
  const auto stats = mc::run_macsio(*engine, params, be);
  const auto codec = cd::make_codec(params.codec_spec());
  for (const auto& req : stats.requests) {
    if (req.file.find("/data/") == std::string::npos) continue;
    const int dump = static_cast<int>(
        (req.submit_time + 1e-12) / params.compute_time);
    const std::uint64_t raw =
        stats.task_bytes[static_cast<std::size_t>(dump)]
                        [static_cast<std::size_t>(req.client)];
    const auto enc = codec->plan(raw);
    EXPECT_EQ(req.bytes, enc.out_bytes) << req.file;
    EXPECT_NEAR(req.submit_time, dump * params.compute_time + enc.cpu_seconds,
                1e-12)
        << req.file;
  }
}

TEST(CodecMacsioEngines, EblRunsAreByteIdenticalAcrossEngines) {
  const auto params = codec_params(16, 4, "ebl");
  p::MemoryBackend serial_be(true);
  ex::SerialEngine serial(params.nprocs);
  const auto ref = mc::run_macsio(serial, params, serial_be);

  p::MemoryBackend spmd_be(true);
  ex::SpmdEngine spmd(params.nprocs);
  const auto got = mc::run_macsio(spmd, params, spmd_be);

  EXPECT_EQ(got.total_bytes, ref.total_bytes);
  EXPECT_EQ(got.bytes_per_dump, ref.bytes_per_dump);
  EXPECT_EQ(got.task_bytes, ref.task_bytes);
  EXPECT_EQ(got.codec.total.raw_bytes, ref.codec.total.raw_bytes);
  EXPECT_EQ(got.codec.total.encoded_bytes, ref.codec.total.encoded_bytes);
  const auto paths = serial_be.list("");
  ASSERT_EQ(paths, spmd_be.list(""));
  for (const auto& path : paths)
    EXPECT_EQ(spmd_be.read(path), serial_be.read(path)) << path;
}

INSTANTIATE_TEST_SUITE_P(Kinds, CodecMacsio,
                         ::testing::Values(ex::EngineKind::kSerial,
                                           ex::EngineKind::kSpmd));

// ------------------------------------------------------- plotfile fixtures

namespace {

struct PlotCase {
  m::MultiFab mf;
  m::Geometry geom;
  pf::PlotfileSpec spec;
};

PlotCase make_plot_case(int nranks, const std::string& codec,
                        double smoothness = -1.0) {
  std::vector<m::Box> boxes;
  for (int j = 0; j < 4; ++j)
    for (int i = 0; i < 4; ++i)
      boxes.emplace_back(i * 8, j * 8, i * 8 + 7, j * 8 + 7);
  m::BoxArray ba(boxes);
  const auto dm =
      m::DistributionMapping::make(ba, nranks, m::DistributionStrategy::kSfc);
  PlotCase c{m::MultiFab(ba, dm, 2, 0),
             m::Geometry(m::Box(0, 0, 31, 31), {0.0, 0.0}, {1.0, 1.0}),
             {}};
  // a smooth Sedov-like radial profile: real data for the ebl estimator
  for (std::size_t bi = 0; bi < ba.size(); ++bi) {
    auto& fab = c.mf.fab(bi);
    const auto& b = fab.box();
    for (int comp = 0; comp < 2; ++comp)
      for (int j = b.lo(1); j <= b.hi(1); ++j)
        for (int i = b.lo(0); i <= b.hi(0); ++i) {
          const double r2 = (i - 16.0) * (i - 16.0) + (j - 16.0) * (j - 16.0);
          fab(i, j, comp) = std::exp(-r2 / 128.0) + 0.1 * comp;
        }
  }
  c.spec.dir = "codec_plt00000";
  c.spec.var_names = {"a", "b"};
  c.spec.codec.name = codec;
  c.spec.codec.smoothness = smoothness;
  c.spec.codec.throughput = 2.0e9;
  return c;
}

}  // namespace

// ------------------------------------------------- plotfile per-Cell_D hook

class CodecPlotfile : public ::testing::TestWithParam<ex::EngineKind> {};

TEST_P(CodecPlotfile, PinnedSmoothnessKeepsPredictParity) {
  const int nranks = 8;
  auto c = make_plot_case(nranks, "ebl", /*smoothness=*/0.9);
  c.spec.aggregators = 4;
  p::MemoryBackend be(true);
  const auto engine = ex::make_engine(GetParam(), nranks);
  const auto written =
      pf::write_plotfile(*engine, be, c.spec, {{c.geom, &c.mf}});

  const pf::LevelLayout layout{c.geom, c.mf.box_array(), c.mf.distribution()};
  const auto predicted = pf::predict_plotfile(c.spec, {layout}, 2);

  EXPECT_EQ(predicted.total_bytes, written.total_bytes);
  EXPECT_EQ(predicted.nfiles, written.nfiles);
  EXPECT_EQ(predicted.rank_level_bytes, written.rank_level_bytes);
  EXPECT_EQ(predicted.codec.total.raw_bytes, written.codec.total.raw_bytes);
  EXPECT_EQ(predicted.codec.total.encoded_bytes,
            written.codec.total.encoded_bytes);
  EXPECT_EQ(predicted.codec.total.chunks, written.codec.total.chunks);
  EXPECT_NEAR(predicted.codec.total.encode_seconds,
              written.codec.total.encode_seconds, 1e-6);
  EXPECT_GT(written.codec.total.encoded_bytes, 0u);
  EXPECT_LT(written.codec.total.encoded_bytes, written.codec.total.raw_bytes);
}

TEST_P(CodecPlotfile, AutoSmoothnessReadsRealFabData) {
  // Auto mode measures the actual field: the smooth Sedov-like case must
  // compress harder than white noise of identical size and layout.
  const int nranks = 4;
  auto smooth = make_plot_case(nranks, "ebl");
  p::MemoryBackend smooth_be(true);
  const auto engine = ex::make_engine(GetParam(), nranks);
  const auto s =
      pf::write_plotfile(*engine, smooth_be, smooth.spec, {{smooth.geom, &smooth.mf}});

  auto rough = make_plot_case(nranks, "ebl");
  for (std::size_t bi = 0; bi < rough.mf.box_array().size(); ++bi) {
    auto& fab = rough.mf.fab(bi);
    auto data = fab.data();
    for (std::size_t k = 0; k < data.size(); ++k)
      data[k] = (k % 2 == 0) ? 1.0 : -1.0;
  }
  p::MemoryBackend rough_be(true);
  const auto engine2 = ex::make_engine(GetParam(), nranks);
  const auto r =
      pf::write_plotfile(*engine2, rough_be, rough.spec, {{rough.geom, &rough.mf}});

  EXPECT_EQ(s.codec.total.raw_bytes, r.codec.total.raw_bytes);
  EXPECT_LT(s.codec.total.encoded_bytes, r.codec.total.encoded_bytes);
  EXPECT_LT(s.codec.total.encoded_bytes, s.codec.total.raw_bytes);
  // file contents stay raw and identical to an uncoded write
  auto plain = make_plot_case(nranks, "identity");
  p::MemoryBackend plain_be(true);
  pf::write_plotfile(plain_be, plain.spec, {{plain.geom, &plain.mf}});
  ASSERT_EQ(smooth_be.list(""), plain_be.list(""));
  for (const auto& path : plain_be.list(""))
    EXPECT_EQ(smooth_be.read(path), plain_be.read(path)) << path;
}

INSTANTIATE_TEST_SUITE_P(Kinds, CodecPlotfile,
                         ::testing::Values(ex::EngineKind::kSerial,
                                           ex::EngineKind::kSpmd));
