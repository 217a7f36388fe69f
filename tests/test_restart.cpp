/// Tests for the read-side staging subsystem: the restage plan (per-rank
/// slices, extents, cold/prefetched request shapes), the scatterv_group
/// reverse ship, the codec decode model and the CodecStats encode/decode
/// split, the MACSio restart loop (byte-identical read-back across engines
/// at 32 ranks / 8 aggregators, byte conservation, decode accounting, trace
/// read/prefetch events, contract failures on every engine), the exactness
/// of the zero-block `restart_hash` against byte-wise FNV-1a, and the
/// plotfile restart read plan.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <span>
#include <string_view>

#include "codec/codec.hpp"
#include "codec/stats.hpp"
#include "exec/engine.hpp"
#include "iostats/trace.hpp"
#include "macsio/driver.hpp"
#include "macsio/interfaces.hpp"
#include "mesh/distribution.hpp"
#include "mesh/multifab.hpp"
#include "pfs/backend.hpp"
#include "pfs/simfs.hpp"
#include "plotfile/reader.hpp"
#include "plotfile/writer.hpp"
#include "staging/aggregator.hpp"
#include "staging/restage.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace cd = amrio::codec;
namespace ex = amrio::exec;
namespace io = amrio::iostats;
namespace mc = amrio::macsio;
namespace m = amrio::mesh;
namespace p = amrio::pfs;
namespace pf = amrio::plotfile;
namespace st = amrio::staging;

// ------------------------------------------------------------ RestagePlan

TEST(RestagePlan, FlatPlanSlicesEveryRankAtItsOffset) {
  // 4 ranks over 2 shared files (the MIF-group shape): offsets accumulate
  // per file in rank order, matching the write-side concatenation.
  const auto codec = cd::make_codec({});
  const std::vector<std::string> files = {"d/f0", "d/f0", "d/f1", "d/f1"};
  const std::vector<std::uint64_t> sizes = {100, 200, 300, 400};
  const auto plan = st::make_restage_plan(files, sizes, *codec);

  EXPECT_FALSE(plan.aggregated());
  ASSERT_EQ(plan.slices.size(), 4u);
  ASSERT_EQ(plan.extents.size(), 2u);
  EXPECT_EQ(plan.slices[0].offset, 0u);
  EXPECT_EQ(plan.slices[1].offset, 100u);
  EXPECT_EQ(plan.slices[2].offset, 0u);
  EXPECT_EQ(plan.slices[3].offset, 300u);
  // identity: encoded == raw, zero decode, byte conservation
  EXPECT_EQ(plan.raw_bytes(), 1000u);
  EXPECT_EQ(plan.encoded_bytes(), 1000u);
  EXPECT_DOUBLE_EQ(plan.decode_gate(), 0.0);
  EXPECT_EQ(plan.extents[0].raw_bytes, 300u);
  EXPECT_EQ(plan.extents[1].raw_bytes, 700u);
  EXPECT_EQ(plan.extents[0].reader, 0);  // flat: the file's first rank
  EXPECT_EQ(plan.extents[1].reader, 2);
}

TEST(RestagePlan, AggregatedPlanReadsThroughAggregators) {
  const auto topo = st::AggTopology::make(8, 2);
  cd::CodecSpec spec;
  spec.name = "ebl";
  spec.error_bound = 1e-3;
  spec.throughput = 1.0e9;
  spec.smoothness = 0.8;
  const auto codec = cd::make_codec(spec);
  std::vector<std::string> files;
  std::vector<std::uint64_t> sizes;
  for (int r = 0; r < 8; ++r) {
    files.push_back("sub" + std::to_string(topo.group_of(r)));
    sizes.push_back(10'000u * static_cast<std::uint64_t>(r + 1));
  }
  const auto plan = st::make_restage_plan(files, sizes, *codec, &topo);

  EXPECT_TRUE(plan.aggregated());
  ASSERT_EQ(plan.extents.size(), 2u);
  EXPECT_EQ(plan.extents[0].reader, topo.aggregator_of_group(0));
  EXPECT_EQ(plan.extents[1].reader, topo.aggregator_of_group(1));
  // encoded sizes come from the codec plan, per slice, and sum per extent
  std::uint64_t enc0 = 0;
  for (int r : topo.members_of(0)) {
    EXPECT_EQ(plan.slices[static_cast<std::size_t>(r)].encoded_bytes,
              codec->plan(sizes[static_cast<std::size_t>(r)]).out_bytes);
    enc0 += plan.slices[static_cast<std::size_t>(r)].encoded_bytes;
  }
  EXPECT_EQ(plan.extents[0].encoded_bytes, enc0);
  EXPECT_LT(plan.encoded_bytes(), plan.raw_bytes());
  EXPECT_GT(plan.decode_gate(), 0.0);
  // the slowest decode gates resume: rank 7 has the largest document
  EXPECT_DOUBLE_EQ(plan.decode_gate(), plan.slices[7].decode_seconds);
}

TEST(RestagePlan, RejectsNonContiguousSharedFiles) {
  const auto codec = cd::make_codec({});
  EXPECT_THROW(st::make_restage_plan({"a", "b", "a"}, {1, 2, 3}, *codec),
               amrio::ContractViolation);
  EXPECT_THROW(st::make_restage_plan({"a"}, {1, 2}, *codec),
               amrio::ContractViolation);
}

// The shape a large restart plans, built directly (no engine): 100k ranks
// file-per-rank and over 512 contiguous MIF-group files. Structure only —
// each slice names its own extent, offsets restart at 0 per file and
// accumulate within it, and the contiguity contract still holds.
TEST(RestagePlan, PlanAtScaleShape) {
  constexpr int kRanks = 100'000;
  const auto codec = cd::make_codec({});
  for (const int nfiles : {kRanks, 512}) {
    SCOPED_TRACE(::testing::Message() << nfiles << " files");
    std::vector<std::string> files;
    std::vector<std::uint64_t> sizes;
    for (int r = 0; r < kRanks; ++r) {
      files.push_back("d/f" + std::to_string(static_cast<std::int64_t>(r) *
                                             nfiles / kRanks));
      sizes.push_back(100u + static_cast<std::uint64_t>(r % 13));
    }
    const auto plan = st::make_restage_plan(files, sizes, *codec);

    ASSERT_EQ(plan.slices.size(), static_cast<std::size_t>(kRanks));
    ASSERT_EQ(plan.extents.size(), static_cast<std::size_t>(nfiles));
    std::uint64_t expected_offset = 0;
    for (int r = 0; r < kRanks; ++r) {
      const auto& slice = plan.slices[static_cast<std::size_t>(r)];
      const bool first_of_file =
          r == 0 || files[static_cast<std::size_t>(r - 1)] != slice.file;
      if (first_of_file) expected_offset = 0;
      ASSERT_LT(slice.extent, plan.extents.size());
      const auto& extent = plan.extents[slice.extent];
      ASSERT_EQ(extent.file, slice.file) << "rank " << r;
      ASSERT_EQ(slice.offset, expected_offset) << "rank " << r;
      if (first_of_file) {
        ASSERT_EQ(extent.reader, r);
      }
      expected_offset += slice.raw_bytes;
    }
    EXPECT_EQ(plan.raw_bytes(),
              std::accumulate(sizes.begin(), sizes.end(), std::uint64_t{0}));

    // The first file reappearing after every other one is still rejected.
    files.push_back(files.front());
    sizes.push_back(1);
    EXPECT_THROW(st::make_restage_plan(files, sizes, *codec),
                 amrio::ContractViolation);
  }
}

TEST(RestagePlan, ColdRequestsAreDirectPfsReads) {
  const auto codec = cd::make_codec({});
  const auto plan = st::make_restage_plan({"f0", "f0", "f1"}, {10, 20, 30},
                                          *codec);
  const auto reqs = plan.read_requests(3.5, /*prefetch=*/false);
  // flat plan: one read per slice (every rank fetches its own byte range)
  ASSERT_EQ(reqs.size(), 3u);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(reqs[i].op, p::kOpRead);
    EXPECT_EQ(reqs[i].tier, p::kTierPfs);
    EXPECT_EQ(reqs[i].client, static_cast<int>(i));
    EXPECT_DOUBLE_EQ(reqs[i].submit_time, 3.5);
    total += reqs[i].bytes;
  }
  EXPECT_EQ(total, plan.encoded_bytes());
}

TEST(RestagePlan, PrefetchedRequestsPairPrefetchWithBbRead) {
  const auto topo = st::AggTopology::make(6, 2);
  const auto codec = cd::make_codec({});
  std::vector<std::string> files;
  std::vector<std::uint64_t> sizes(6, 1000);
  for (int r = 0; r < 6; ++r)
    files.push_back("sub" + std::to_string(topo.group_of(r)));
  const auto plan = st::make_restage_plan(files, sizes, *codec, &topo);
  const auto reqs = plan.read_requests(0.0, /*prefetch=*/true);
  // aggregated plan: per-extent fetches, each a (prefetch, bb-read) pair
  ASSERT_EQ(reqs.size(), 4u);
  for (std::size_t i = 0; i < reqs.size(); i += 2) {
    EXPECT_EQ(reqs[i].op, p::kOpPrefetch);
    EXPECT_EQ(reqs[i + 1].op, p::kOpRead);
    EXPECT_EQ(reqs[i].tier, p::kTierBurstBuffer);
    EXPECT_EQ(reqs[i + 1].tier, p::kTierBurstBuffer);
    EXPECT_EQ(reqs[i].file, reqs[i + 1].file);
    EXPECT_EQ(reqs[i].client, reqs[i + 1].client);
    EXPECT_EQ(reqs[i].bytes, reqs[i + 1].bytes);
  }
}

// --------------------------------------------------------- scatterv_group

class ScattervGroup : public ::testing::TestWithParam<ex::EngineKind> {};

TEST_P(ScattervGroup, FansPayloadsBackOutInMemberOrder) {
  const int n = 12;
  const auto engine = ex::make_engine(GetParam(), n);
  engine->run([&](ex::RankCtx& ctx) {
    const auto topo = st::AggTopology::make(n, 3);
    const int group = topo.group_of(ctx.rank());
    const int root = topo.aggregator_of_group(group);
    const auto members = topo.members_of(group);
    // the root holds one payload per member: member r gets r+2 bytes of r
    std::vector<std::vector<std::byte>> payloads;
    if (ctx.rank() == root)
      for (int r : members)
        payloads.emplace_back(static_cast<std::size_t>(r + 2),
                              static_cast<std::byte>(r));
    const auto mine = ex::scatterv_group(ctx, payloads, members, root, 92);
    ASSERT_EQ(mine.size(), static_cast<std::size_t>(ctx.rank() + 2));
    for (std::byte b : mine)
      EXPECT_EQ(b, static_cast<std::byte>(ctx.rank()));
  });
}

INSTANTIATE_TEST_SUITE_P(Kinds, ScattervGroup,
                         ::testing::Values(ex::EngineKind::kSerial,
                                           ex::EngineKind::kSpmd));

// ----------------------------------------------------- codec decode model

TEST(CodecDecode, IdentityDecodesForFree) {
  const auto codec = cd::make_codec({});
  EXPECT_DOUBLE_EQ(codec->decode_seconds(1 << 20), 0.0);
}

TEST(CodecDecode, DecodeOutrunsEncodeByDefault) {
  for (const char* name : {"lossless", "ebl"}) {
    cd::CodecSpec spec;
    spec.name = name;
    const auto codec = cd::make_codec(spec);
    const std::uint64_t raw = 64 << 20;
    const double encode = codec->plan(raw).cpu_seconds;
    const double decode = codec->decode_seconds(raw);
    EXPECT_GT(decode, 0.0) << name;
    EXPECT_LT(decode, encode) << name;  // decompressors outrun compressors
  }
}

TEST(CodecDecode, DecodeThroughputKnobIsHonored) {
  cd::CodecSpec spec;
  spec.name = "ebl";
  spec.decode_throughput = 4.0e9;
  const auto codec = cd::make_codec(spec);
  EXPECT_NEAR(codec->decode_seconds(1'000'000'000), 0.25, 1e-12);
  spec.decode_throughput = -1.0;
  EXPECT_THROW(cd::validate_spec(spec), std::invalid_argument);
}

TEST(CodecStatsSplit, DecodeDoesNotPolluteEncodeReports) {
  cd::CodecStats stats;
  const cd::CompressResult enc{1000, 400, 0.5};
  stats.add(0, -1, enc);            // write side
  stats.add_decode(0, -1, enc, 0.2);  // read side, same chunk shape
  EXPECT_DOUBLE_EQ(stats.total.encode_seconds, 0.5);
  EXPECT_DOUBLE_EQ(stats.total.decode_seconds, 0.2);
  EXPECT_EQ(stats.total.raw_bytes, 2000u);
  EXPECT_EQ(stats.total.chunks, 2u);

  cd::CodecStats other;
  other.add_decode(1, 2, enc, 0.3);
  stats.merge(other);
  EXPECT_DOUBLE_EQ(stats.total.encode_seconds, 0.5);  // merge keeps the split
  EXPECT_DOUBLE_EQ(stats.total.decode_seconds, 0.5);
  EXPECT_DOUBLE_EQ(stats.by_level.at(2).decode_seconds, 0.3);
}

// --------------------------------------------------- MACSio restart loop

namespace {

mc::Params restart_params(int nprocs, int aggregators) {
  mc::Params params;
  params.nprocs = nprocs;
  params.num_dumps = 2;
  params.part_size = 40'000;
  params.avg_num_parts = 1.5;
  params.meta_size = 128;
  params.dataset_growth = 1.05;
  params.aggregators = aggregators;
  params.fill = mc::FillMode::kReal;
  params.restart = true;
  return params;
}

/// The expected task documents of the restarted dump: what a flat
/// (unaggregated, codec-free) run writes per rank — the raw image every
/// restart shape must reproduce byte-identically.
std::vector<std::vector<std::byte>> expected_docs(const mc::Params& params) {
  mc::Params flat = params;
  flat.aggregators = 0;
  flat.file_mode = mc::FileMode::kMif;
  flat.mif_files = 0;  // N-to-N: one file per task == one document per file
  flat.codec = "identity";
  flat.restart = false;
  flat.restart_from_bb = false;
  flat.prefetch_streams = 0;
  p::MemoryBackend be(true);
  ex::SerialEngine engine(flat.nprocs);
  (void)mc::run_macsio(engine, flat, be);
  std::vector<std::vector<std::byte>> docs;
  for (int r = 0; r < flat.nprocs; ++r)
    docs.push_back(be.read(mc::dump_file_path(flat, r, flat.num_dumps - 1)));
  return docs;
}

}  // namespace

class MacsioRestart : public ::testing::TestWithParam<ex::EngineKind> {};

TEST_P(MacsioRestart, AggregatedRestartIsByteIdenticalAt32Ranks) {
  // The acceptance case: 32 ranks / 8 aggregators, ebl codec — encoded
  // bytes cross the reverse scatter, every rank decodes its document back
  // byte-identically to the originally written raw image.
  mc::Params params = restart_params(32, 8);
  params.codec = "ebl";
  params.codec_error_bound = 1e-3;
  params.codec_throughput = 1.0e9;

  p::MemoryBackend be(true);
  const auto engine = ex::make_engine(GetParam(), params.nprocs);
  const auto written = mc::run_macsio(*engine, params, be);
  io::TraceRecorder trace;
  const auto restart = mc::run_restart(*engine, params, be, &trace);

  EXPECT_EQ(restart.dump, params.num_dumps - 1);
  const auto docs = expected_docs(params);
  ASSERT_EQ(restart.task_bytes.size(), 32u);
  ASSERT_EQ(restart.task_hash.size(), 32u);
  for (int r = 0; r < 32; ++r) {
    // byte conservation against the write-side ledger...
    EXPECT_EQ(restart.task_bytes[static_cast<std::size_t>(r)],
              written.task_bytes.back()[static_cast<std::size_t>(r)])
        << "rank " << r;
    // ...and byte identity against the original raw image
    EXPECT_EQ(restart.task_hash[static_cast<std::size_t>(r)],
              mc::restart_hash(docs[static_cast<std::size_t>(r)]))
        << "rank " << r;
  }
  const std::uint64_t raw_total = std::accumulate(
      restart.task_bytes.begin(), restart.task_bytes.end(), std::uint64_t{0});
  EXPECT_EQ(restart.raw_bytes, raw_total);
  EXPECT_LT(restart.encoded_bytes, restart.raw_bytes);  // ebl shrinks fetches
  EXPECT_GT(restart.decode_gate, 0.0);
  EXPECT_GT(restart.scatter_seconds, 0.0);
  // decode-side ledger only: the encode split stays clean
  EXPECT_DOUBLE_EQ(restart.codec.total.encode_seconds, 0.0);
  EXPECT_GT(restart.codec.total.decode_seconds, 0.0);
  EXPECT_EQ(restart.codec.total.raw_bytes, restart.raw_bytes);

  // trace: one kRead per rank document (raw bytes, encoded alongside,
  // decode cpu on the rank) plus the root/index metadata reads
  int doc_reads = 0;
  int meta_reads = 0;
  for (const auto& e : trace.events()) {
    if (e.op != io::IoEvent::Op::kRead) continue;
    if (e.level == 0) {
      ++doc_reads;
      EXPECT_GT(e.encoded_bytes, 0u);
      EXPECT_LT(e.encoded_bytes, e.bytes);
      EXPECT_GT(e.codec_seconds, 0.0);
    } else {
      ++meta_reads;
    }
  }
  EXPECT_EQ(doc_reads, 32);
  EXPECT_EQ(meta_reads, 2);  // root + aggregation index
  std::uint64_t meta_bytes = 0;
  for (const auto& req : restart.requests)
    if (req.op == p::kOpRead &&
        req.file.find("/metadata/") != std::string::npos)
      meta_bytes += req.bytes;
  EXPECT_EQ(trace.total_read_bytes(), restart.raw_bytes + meta_bytes);
}

TEST_P(MacsioRestart, UnaggregatedRestartReadsOwnByteRanges) {
  // Grouped MIF (4 ranks per file): every rank slices its own byte range
  // out of the shared file — no aggregator, no scatter.
  mc::Params params = restart_params(16, 0);
  params.mif_files = 4;
  p::MemoryBackend be(true);
  const auto engine = ex::make_engine(GetParam(), params.nprocs);
  (void)mc::run_macsio(*engine, params, be);
  const auto restart = mc::run_restart(*engine, params, be);

  const auto docs = expected_docs(params);
  for (int r = 0; r < 16; ++r)
    EXPECT_EQ(restart.task_hash[static_cast<std::size_t>(r)],
              mc::restart_hash(docs[static_cast<std::size_t>(r)]))
        << "rank " << r;
  EXPECT_DOUBLE_EQ(restart.scatter_seconds, 0.0);
  EXPECT_DOUBLE_EQ(restart.decode_gate, 0.0);       // identity
  EXPECT_EQ(restart.encoded_bytes, restart.raw_bytes);
  // flat plan: one data read per rank
  int data_reads = 0;
  for (const auto& req : restart.requests)
    if (req.op == p::kOpRead && req.file.find("/data/") != std::string::npos)
      ++data_reads;
  EXPECT_EQ(data_reads, 16);
}

TEST_P(MacsioRestart, PrefetchedRestartEmitsPrefetchReadPairs) {
  mc::Params params = restart_params(32, 8);
  params.restart_from_bb = true;
  params.prefetch_streams = 2;
  p::MemoryBackend be(true);
  const auto engine = ex::make_engine(GetParam(), params.nprocs);
  (void)mc::run_macsio(*engine, params, be);
  io::TraceRecorder trace;
  const auto restart = mc::run_restart(*engine, params, be, &trace);

  int prefetches = 0;
  int bb_reads = 0;
  std::uint64_t prefetched_bytes = 0;
  for (const auto& req : restart.requests) {
    if (req.op == p::kOpPrefetch) {
      ++prefetches;
      prefetched_bytes += req.bytes;
      EXPECT_EQ(req.tier, p::kTierBurstBuffer);
    }
    if (req.op == p::kOpRead && req.tier == p::kTierBurstBuffer) ++bb_reads;
  }
  EXPECT_EQ(prefetches, 8);  // one per subfile
  EXPECT_EQ(bb_reads, 8);
  EXPECT_EQ(prefetched_bytes, restart.encoded_bytes);
  int prefetch_events = 0;
  for (const auto& e : trace.events())
    if (e.op == io::IoEvent::Op::kPrefetch) ++prefetch_events;
  EXPECT_EQ(prefetch_events, 8);

  // the tagged request stream replays against a BB-enabled SimFs: every BB
  // read lands after its extent's prefetch
  p::SimFsConfig cfg;
  cfg.bb.enabled = true;
  cfg.bb.nodes = 2;
  cfg.bb.ranks_per_node = 16;
  p::SimFs fs(cfg);
  const auto results = fs.run(restart.requests);
  std::map<std::string, double> prefetch_end;
  for (std::size_t i = 0; i < results.size(); ++i)
    if (restart.requests[i].op == p::kOpPrefetch)
      prefetch_end[restart.requests[i].file] = results[i].end;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& req = restart.requests[i];
    if (req.op == p::kOpRead && req.tier == p::kTierBurstBuffer) {
      EXPECT_GE(results[i].end, prefetch_end.at(req.file));
    }
  }
}

TEST_P(MacsioRestart, EnginesAgreeOnEveryRestartStatistic) {
  mc::Params params = restart_params(32, 8);
  params.codec = "lossless";
  params.restart_from_bb = true;
  params.prefetch_streams = 2;

  auto run_with = [&](ex::EngineKind kind) {
    p::MemoryBackend be(true);
    const auto engine = ex::make_engine(kind, params.nprocs);
    (void)mc::run_macsio(*engine, params, be);
    return mc::run_restart(*engine, params, be);
  };
  const auto serial = run_with(ex::EngineKind::kSerial);
  const auto other = run_with(GetParam());

  EXPECT_EQ(serial.task_bytes, other.task_bytes);
  EXPECT_EQ(serial.task_hash, other.task_hash);
  EXPECT_EQ(serial.raw_bytes, other.raw_bytes);
  EXPECT_EQ(serial.encoded_bytes, other.encoded_bytes);
  EXPECT_DOUBLE_EQ(serial.decode_gate, other.decode_gate);
  EXPECT_DOUBLE_EQ(serial.scatter_seconds, other.scatter_seconds);
  ASSERT_EQ(serial.requests.size(), other.requests.size());
  for (std::size_t i = 0; i < serial.requests.size(); ++i) {
    EXPECT_EQ(serial.requests[i].file, other.requests[i].file);
    EXPECT_EQ(serial.requests[i].bytes, other.requests[i].bytes);
    EXPECT_EQ(serial.requests[i].client, other.requests[i].client);
    EXPECT_EQ(serial.requests[i].op, other.requests[i].op);
    EXPECT_EQ(serial.requests[i].tier, other.requests[i].tier);
  }
}

TEST_P(MacsioRestart, AccountingBackendKeepsExactSizes) {
  // Accounting-only backends (the bench path) degrade contents to zero
  // bytes but keep every size and request exact — and every hash is the
  // hash of that many zero bytes.
  mc::Params params = restart_params(16, 4);
  p::MemoryBackend be(false);
  const auto engine = ex::make_engine(GetParam(), params.nprocs);
  const auto written = mc::run_macsio(*engine, params, be);
  const auto restart = mc::run_restart(*engine, params, be);
  EXPECT_EQ(restart.task_bytes, written.task_bytes.back());
  EXPECT_EQ(restart.raw_bytes,
            std::accumulate(restart.task_bytes.begin(),
                            restart.task_bytes.end(), std::uint64_t{0}));
  ASSERT_EQ(restart.task_hash.size(), restart.task_bytes.size());
  for (std::size_t r = 0; r < restart.task_bytes.size(); ++r) {
    const std::vector<std::byte> zeros(restart.task_bytes[r]);
    EXPECT_EQ(restart.task_hash[r], mc::restart_hash(zeros)) << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, MacsioRestart,
                         ::testing::Values(ex::EngineKind::kSerial,
                                           ex::EngineKind::kSpmd,
                                           ex::EngineKind::kEvent));

// ----------------------------------------------------------- restart_hash

namespace {

/// Textbook byte-at-a-time FNV-1a-64: the value restart_hash must equal.
std::uint64_t fnv1a_reference(std::span<const std::byte> data) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::byte b : data) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::span<const std::byte> bytes_of(std::string_view text) {
  return std::as_bytes(std::span<const char>(text.data(), text.size()));
}

}  // namespace

TEST(RestartHash, MatchesPublishedFnv1a64Vectors) {
  EXPECT_EQ(mc::restart_hash(bytes_of("")), 0xcbf29ce484222325ull);
  EXPECT_EQ(mc::restart_hash(bytes_of("a")), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(mc::restart_hash(bytes_of("foobar")), 0x85944171f73967e8ull);
  const std::vector<std::byte> zeros(std::size_t{1} << 20);
  EXPECT_EQ(mc::restart_hash(zeros), 0xa96777069d622325ull);
}

TEST(RestartHash, ZeroBlockStrideMatchesBytewiseReference) {
  // Every length 0–300 at every start offset 0–7, with bytes zero at shares
  // 0, 3/4, 63/64 and 1: all-zero blocks, mixed blocks and ragged tails at
  // every alignment. 11 rounds x 4 x 301 x 8 = 105,952 buffers.
  amrio::util::Xoshiro256 rng(20);
  std::vector<std::byte> buf(8 + 300);
  std::size_t checked = 0;
  for (int round = 0; round < 11; ++round)
    for (const double zero_share : {0.0, 0.75, 63.0 / 64.0, 1.0})
      for (std::size_t len = 0; len <= 300; ++len)
        for (std::size_t offset = 0; offset < 8; ++offset) {
          for (auto& b : buf)
            b = rng.uniform() < zero_share
                    ? std::byte{0}
                    : static_cast<std::byte>(1 + rng.uniform_int(255));
          const std::span<const std::byte> view(buf.data() + offset, len);
          ASSERT_EQ(mc::restart_hash(view), fnv1a_reference(view))
              << "len " << len << " offset " << offset << " zero share "
              << zero_share;
          ++checked;
        }
  EXPECT_GE(checked, 100000u);
}

TEST(MacsioRestartCli, KnobsParseValidateAndRoundTrip) {
  const auto params = mc::Params::from_cli(
      {"--nprocs", "32", "--aggregators", "8", "--restart", "--read_staging",
       "bb", "--prefetch", "4"});
  EXPECT_TRUE(params.restart);
  EXPECT_TRUE(params.restart_from_bb);
  EXPECT_EQ(params.prefetch_streams, 4);
  const auto back = mc::Params::from_cli(params.to_cli());
  EXPECT_TRUE(back.restart);
  EXPECT_TRUE(back.restart_from_bb);
  EXPECT_EQ(back.prefetch_streams, 4);

  EXPECT_THROW(mc::Params::from_cli({"--read_staging", "nvme"}),
               std::invalid_argument);
  EXPECT_THROW(mc::Params::from_cli({"--prefetch", "-1", "--read_staging",
                                     "bb"}),
               std::invalid_argument);
  // --prefetch without the bb read tier is a knob conflict, one-line error
  try {
    mc::Params::from_cli({"--prefetch", "2"});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("read_staging"), std::string::npos);
  }
  // ...as is a bb read tier with no restart to use it
  try {
    mc::Params::from_cli({"--read_staging", "bb"});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--restart"), std::string::npos);
  }
}

// Contract failures end in ContractViolation on every engine, now that the
// restage plan is built before any rank runs.
class MacsioRestartContract
    : public ::testing::TestWithParam<ex::EngineKind> {};

TEST_P(MacsioRestartContract, MissingDumpFilesAreRejected) {
  for (const int aggregators : {2, 0}) {
    mc::Params params = restart_params(4, aggregators);
    p::MemoryBackend be(true);  // nothing written
    const auto engine = ex::make_engine(GetParam(), params.nprocs);
    EXPECT_THROW(mc::run_restart(*engine, params, be),
                 amrio::ContractViolation)
        << "aggregators " << aggregators;
  }
}

TEST_P(MacsioRestartContract, EngineRankCountMustMatchNprocs) {
  mc::Params params = restart_params(4, 2);
  p::MemoryBackend be(true);
  const auto writer = ex::make_engine(GetParam(), params.nprocs);
  (void)mc::run_macsio(*writer, params, be);
  for (const int nranks : {2, 8}) {
    const auto engine = ex::make_engine(GetParam(), nranks);
    EXPECT_THROW(mc::run_restart(*engine, params, be),
                 amrio::ContractViolation)
        << "engine ranks " << nranks;
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, MacsioRestartContract,
                         ::testing::Values(ex::EngineKind::kSerial,
                                           ex::EngineKind::kEvent,
                                           ex::EngineKind::kSpmd));

// ---------------------------------------------- plotfile restart reads

TEST(PlotfileRestart, PlanPartitionsEveryCellDFile) {
  // A two-level plotfile written over 3 ranks: the restart plan must cover
  // every Cell_D byte exactly once, predicted from metadata alone.
  std::vector<m::Box> l0;
  for (int j = 0; j < 2; ++j)
    for (int i = 0; i < 2; ++i)
      l0.emplace_back(i * 8, j * 8, i * 8 + 7, j * 8 + 7);
  m::BoxArray ba0(l0);
  m::BoxArray ba1(m::Box(8, 8, 23, 23));
  const m::Geometry g0(m::Box(0, 0, 15, 15), {0.0, 0.0}, {1.0, 1.0});
  const m::Geometry g1 = g0.refine(2);
  const auto dm0 = m::DistributionMapping::make(
      ba0, 3, m::DistributionStrategy::kRoundRobin);
  const auto dm1 = m::DistributionMapping::make(
      ba1, 3, m::DistributionStrategy::kRoundRobin);
  std::vector<m::MultiFab> storage;
  storage.emplace_back(ba0, dm0, 2, 0);
  storage.emplace_back(ba1, dm1, 2, 0);
  storage[0].set_val(1.5);
  storage[1].set_val(2.5);
  pf::PlotfileSpec spec;
  spec.dir = "plt_restart";
  spec.var_names = {"density", "pressure"};

  p::MemoryBackend be(true);
  (void)pf::write_plotfile(be, spec,
                           {{g0, &storage[0]}, {g1, &storage[1]}});

  const auto plan = pf::plan_restart_reads(be, spec.dir);
  ASSERT_EQ(plan.items.size(), 5u);  // 4 level-0 grids + 1 level-1 grid
  std::map<std::string, std::uint64_t> per_file;
  for (const auto& item : plan.items) {
    EXPECT_GT(item.bytes, 0u);
    per_file[item.path] += item.bytes;
  }
  std::uint64_t cell_d_total = 0;
  for (const auto& [path, bytes] : per_file) {
    EXPECT_EQ(bytes, be.size(path)) << path;  // items partition the file
    cell_d_total += be.size(path);
  }
  EXPECT_EQ(plan.total_bytes, cell_d_total);

  // one tier-tagged read request per distinct Cell_D file, full extent
  const auto reqs = plan.read_requests(1.0, p::kTierBurstBuffer);
  ASSERT_EQ(reqs.size(), per_file.size());
  for (const auto& req : reqs) {
    EXPECT_EQ(req.op, p::kOpRead);
    EXPECT_EQ(req.tier, p::kTierBurstBuffer);
    EXPECT_EQ(req.bytes, per_file.at(req.file));
  }
}
