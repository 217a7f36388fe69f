/// Tests for the codec subsystem: the three registered compression models
/// (identity / lossless / ebl), their container round-trip and in-place
/// `payload` read (same checks and errors as `decode`), CodecStats
/// accounting, the MACSio knob validation, and the integration across the
/// MACSio byte paths — identity stays byte-identical to uncoded staging, and
/// raw accounting conserves task_doc_bytes() while the wire/tier carries
/// encoded bytes. Engine-facing cases run on both SerialEngine and
/// SpmdEngine.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <span>

#include "codec/codec.hpp"
#include "codec/stats.hpp"
#include "exec/engine.hpp"
#include "macsio/driver.hpp"
#include "macsio/interfaces.hpp"
#include "pfs/backend.hpp"
#include "staging/aggregator.hpp"
#include "util/assert.hpp"

namespace cd = amrio::codec;
namespace ex = amrio::exec;
namespace mc = amrio::macsio;
namespace p = amrio::pfs;
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

TEST(CodecModel, EblRatioTracksErrorBound) {
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
  // the AMRIC band: 2-10x over these bounds
  EXPECT_GE(loose.ratio(), 2.0);
  EXPECT_LE(tight.ratio(), 10.0);
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
    if (stats.requests.path(req).find("_agg_") == std::string::npos) continue;
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
        if (stats.requests.path(req) != path) continue;
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
    if (stats.requests.path(req).find("/data/") == std::string::npos)
      continue;
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
