/// Tests for the staging subsystem: two-phase aggregation topology and CLI
/// validation, the group gatherv primitive, aggregated-MIF byte conservation
/// and engine parity for both the MACSio and plotfile drivers, the
/// burst-buffer byte decorator, and the two-tier SimFs (absorb + async
/// drain, capacity stalls, drain concurrency).

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "codec/codec.hpp"
#include "exec/engine.hpp"
#include "iostats/trace.hpp"
#include "macsio/driver.hpp"
#include "macsio/interfaces.hpp"
#include "mesh/distribution.hpp"
#include "mesh/multifab.hpp"
#include "obs/metrics.hpp"
#include "pfs/backend.hpp"
#include "pfs/simfs.hpp"
#include "plotfile/reader.hpp"
#include "plotfile/writer.hpp"
#include "staging/aggregator.hpp"
#include "staging/drain.hpp"
#include "staging/staging_backend.hpp"
#include "util/assert.hpp"

namespace ex = amrio::exec;
namespace mc = amrio::macsio;
namespace m = amrio::mesh;
namespace p = amrio::pfs;
namespace pf = amrio::plotfile;
namespace st = amrio::staging;

// ------------------------------------------------------------ AggTopology

TEST(AggTopology, EvenPartition) {
  const auto topo = st::AggTopology::make(64, 8);
  EXPECT_EQ(topo.ngroups(), 8);
  for (int g = 0; g < 8; ++g) {
    EXPECT_EQ(topo.group_size(g), 8);
    EXPECT_EQ(topo.aggregator_of_group(g), g * 8);
  }
  for (int r = 0; r < 64; ++r) {
    EXPECT_EQ(topo.group_of(r), r / 8);
    EXPECT_EQ(topo.is_aggregator(r), r % 8 == 0);
  }
}

TEST(AggTopology, RemainderRoundRobinsDeterministically) {
  // 10 ranks over 4 groups: sizes 3,3,2,2 — remainder on the leading groups.
  const auto topo = st::AggTopology::make(10, 4);
  EXPECT_EQ(topo.group_size(0), 3);
  EXPECT_EQ(topo.group_size(1), 3);
  EXPECT_EQ(topo.group_size(2), 2);
  EXPECT_EQ(topo.group_size(3), 2);
  // contiguous cover, every rank in exactly one group, aggregator = first
  int total = 0;
  int prev_last = -1;
  for (int g = 0; g < 4; ++g) {
    const auto members = topo.members_of(g);
    total += static_cast<int>(members.size());
    EXPECT_EQ(members.front(), prev_last + 1);
    EXPECT_EQ(topo.aggregator_of_group(g), members.front());
    for (int r : members) EXPECT_EQ(topo.group_of(r), g);
    prev_last = members.back();
  }
  EXPECT_EQ(total, 10);
  // determinism: equal inputs, equal partition
  const auto again = st::AggTopology::make(10, 4);
  for (int g = 0; g < 4; ++g)
    EXPECT_EQ(again.members_of(g), topo.members_of(g));
}

TEST(AggTopology, RejectsBadCounts) {
  EXPECT_THROW(st::AggTopology::make(8, 0), std::invalid_argument);
  EXPECT_THROW(st::AggTopology::make(8, -2), std::invalid_argument);
  EXPECT_THROW(st::AggTopology::make(8, 9), std::invalid_argument);
}

TEST(ShipCost, BytesOverLinkPlusLatency) {
  st::AggregationConfig cfg;
  cfg.link_bandwidth = 1e9;
  cfg.link_latency = 1e-3;
  EXPECT_DOUBLE_EQ(st::ship_cost(cfg, 1'000'000'000, 2), 1.0 + 2e-3);
  EXPECT_DOUBLE_EQ(st::ship_cost(cfg, 0, 0), 0.0);
}

// --------------------------------------------------------- params knobs

TEST(ParamsStaging, AggregatorsCliParsesAndRoundTrips) {
  const auto p = mc::Params::from_cli(
      {"--nprocs", "64", "--aggregators", "8", "--staging", "bb"});
  EXPECT_EQ(p.aggregators, 8);
  EXPECT_TRUE(p.stage_to_bb);
  const auto back = mc::Params::from_cli(p.to_cli());
  EXPECT_EQ(back.aggregators, 8);
  EXPECT_TRUE(back.stage_to_bb);
  EXPECT_DOUBLE_EQ(back.agg_link_bandwidth, p.agg_link_bandwidth);
}

TEST(ParamsStaging, RejectsNonPositiveAggregators) {
  try {
    mc::Params::from_cli({"--nprocs", "8", "--aggregators", "0"});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("positive aggregator count"),
              std::string::npos);
  }
  EXPECT_THROW(mc::Params::from_cli({"--nprocs", "8", "--aggregators", "-4"}),
               std::invalid_argument);
}

TEST(ParamsStaging, ValidatesAggregatorCombinations) {
  mc::Params p;
  p.nprocs = 8;
  p.aggregators = 9;  // > nprocs
  EXPECT_THROW(p.validate(), amrio::ContractViolation);
  p.aggregators = 4;
  p.file_mode = mc::FileMode::kSif;
  EXPECT_THROW(p.validate(), amrio::ContractViolation);
  p.file_mode = mc::FileMode::kMif;
  p.mif_files = 2;  // grouping and aggregation are mutually exclusive
  EXPECT_THROW(p.validate(), amrio::ContractViolation);
  p.mif_files = 0;
  EXPECT_NO_THROW(p.validate());
  EXPECT_THROW(mc::Params::from_cli({"--nprocs", "8", "--staging", "nvme"}),
               std::invalid_argument);
}

// -------------------------------------------------------- gatherv_group

class GathervGroup : public ::testing::TestWithParam<ex::EngineKind> {};

TEST_P(GathervGroup, GathersMemberPayloadsInRankOrder) {
  const int n = 12;
  const auto engine = ex::make_engine(GetParam(), n);
  engine->run([&](ex::RankCtx& ctx) {
    const auto topo = st::AggTopology::make(n, 3);
    const int group = topo.group_of(ctx.rank());
    const int root = topo.aggregator_of_group(group);
    // rank r ships r+1 bytes of value r
    std::vector<std::byte> mine(static_cast<std::size_t>(ctx.rank() + 1),
                                static_cast<std::byte>(ctx.rank()));
    const auto members = topo.members_of(group);
    std::vector<int> landed;
    std::vector<std::vector<std::byte>> got;
    ex::gatherv_group(ctx, std::move(mine), members, root, 91,
                      [&](int member, std::span<const std::byte> payload) {
                        landed.push_back(member);
                        got.emplace_back(payload.begin(), payload.end());
                      });
    if (ctx.rank() == root) {
      EXPECT_EQ(landed, members);
      ASSERT_EQ(got.size(), members.size());
      for (std::size_t i = 0; i < members.size(); ++i) {
        EXPECT_EQ(got[i].size(), static_cast<std::size_t>(members[i] + 1));
        for (std::byte b : got[i])
          EXPECT_EQ(b, static_cast<std::byte>(members[i]));
      }
    } else {
      EXPECT_TRUE(got.empty());
    }
  });
}

TEST_P(GathervGroup, RejectsMalformedGroups) {
  const int n = 4;
  const auto engine = ex::make_engine(GetParam(), n);
  // Each case makes every rank fail the same check before it sends or
  // receives anything, so the message is the same whichever rank fails first.
  const auto violation = [&](auto&& group_of) -> std::string {
    try {
      engine->run([&](ex::RankCtx& ctx) {
        const auto [members, root] = group_of(ctx.rank());
        ex::gatherv_group(ctx, std::vector<std::byte>(4), members, root, 91,
                          [](int, std::span<const std::byte>) {});
      });
    } catch (const amrio::ContractViolation& e) {
      return e.what();
    }
    return "no ContractViolation";
  };
  using Group = std::pair<std::vector<int>, int>;
  const std::string out_of_range =
      violation([&](int) { return Group{{0, 1, 2, 3, n}, 0}; });
  EXPECT_NE(out_of_range.find("member rank out of range"), std::string::npos)
      << out_of_range;
  const std::string unordered =
      violation([](int) { return Group{{0, 2, 1, 3}, 0}; });
  EXPECT_NE(unordered.find("strictly ascending"), std::string::npos)
      << unordered;
  const std::string outsider = violation([&](int rank) {
    std::vector<int> others;
    for (int r = 0; r < n; ++r)
      if (r != rank) others.push_back(r);
    return Group{others, others.front()};
  });
  EXPECT_NE(outsider.find("calling rank not a member"), std::string::npos)
      << outsider;
  const std::string rootless =
      violation([&](int) { return Group{{0, 1, 2, 3}, n}; });
  EXPECT_NE(rootless.find("root not a member"), std::string::npos) << rootless;
}

INSTANTIATE_TEST_SUITE_P(Kinds, GathervGroup,
                         ::testing::Values(ex::EngineKind::kSerial,
                                           ex::EngineKind::kSpmd,
                                           ex::EngineKind::kEvent));

// The cooperative engines hand a shipped payload to its blocked root before
// the next member runs: the root lands member m before member m+1 has
// serialized, so a group holds one payload in flight, not the group's.
class GathervHandOff : public ::testing::TestWithParam<ex::EngineKind> {};

TEST_P(GathervHandOff, RootLandsEachMemberBeforeTheNextSerializes) {
  const int n = 8;
  const auto engine = ex::make_engine(GetParam(), n);
  std::vector<std::string> log;
  engine->run([&](ex::RankCtx& ctx) {
    std::vector<int> members(n);
    std::iota(members.begin(), members.end(), 0);
    log.push_back("serialize " + std::to_string(ctx.rank()));
    ex::gatherv_group(ctx, std::vector<std::byte>(64), members, 0, 91,
                      [&](int member, std::span<const std::byte> payload) {
                        EXPECT_EQ(payload.size(), 64u);
                        log.push_back("land " + std::to_string(member));
                      });
  });
  std::vector<std::string> expected;
  for (int m = 0; m < n; ++m) {
    expected.push_back("serialize " + std::to_string(m));
    expected.push_back("land " + std::to_string(m));
  }
  EXPECT_EQ(log, expected);
}

INSTANTIATE_TEST_SUITE_P(Kinds, GathervHandOff,
                         ::testing::Values(ex::EngineKind::kSerial,
                                           ex::EngineKind::kEvent));

// ----------------------------------------- aggregated MACSio dump loop

namespace {

mc::Params agg_params(int nprocs, int aggregators) {
  mc::Params params;
  params.nprocs = nprocs;
  params.aggregators = aggregators;
  params.num_dumps = 3;
  params.part_size = 1500;
  params.dataset_growth = 1.05;
  params.meta_size = 16;
  params.avg_num_parts = 1.5;
  return params;
}

}  // namespace

TEST(AggregatedMif, ByteConservingAt64Ranks8Aggregators) {
  const auto params = agg_params(64, 8);
  p::MemoryBackend be(false);
  ex::SerialEngine engine(params.nprocs);
  const auto stats = mc::run_macsio(engine, params, be);

  const auto iface = mc::make_interface(params.interface);
  for (int dump = 0; dump < params.num_dumps; ++dump) {
    const mc::PartSpec spec = mc::make_part_spec(
        params.part_bytes_at_dump(dump), params.vars_per_part);
    // sum of subfiles == sum of the unaggregated task documents, exactly
    std::uint64_t expected = 0;
    for (int r = 0; r < params.nprocs; ++r) {
      const std::uint64_t doc = iface->task_doc_bytes(
          spec, r, dump, params.parts_of_rank(r), params.meta_size);
      EXPECT_EQ(stats.task_bytes[static_cast<std::size_t>(dump)]
                                [static_cast<std::size_t>(r)],
                doc);
      expected += doc;
    }
    std::uint64_t subfile_total = 0;
    for (int g = 0; g < params.aggregators; ++g)
      subfile_total += be.size(mc::aggregated_file_path(params, g, dump));
    EXPECT_EQ(subfile_total, expected);
    // ... plus an exactly computable index
    EXPECT_EQ(be.size(mc::aggregated_index_path(params, dump)),
              mc::aggregated_index_bytes(params));
  }
  // file count: aggregators subfiles + root + index per dump, not nprocs
  EXPECT_EQ(stats.nfiles,
            static_cast<std::uint64_t>((params.aggregators + 2) *
                                       params.num_dumps));
  EXPECT_EQ(be.file_count(), stats.nfiles);
}

TEST(AggregatedMif, ByteIdenticalAcrossEngines) {
  const auto params = agg_params(64, 8);
  p::MemoryBackend serial_be(true);
  ex::SerialEngine serial(params.nprocs);
  const auto ref = mc::run_macsio(serial, params, serial_be);

  p::MemoryBackend spmd_be(true);
  ex::SpmdEngine spmd(params.nprocs);
  const auto got = mc::run_macsio(spmd, params, spmd_be);

  EXPECT_EQ(got.total_bytes, ref.total_bytes);
  EXPECT_EQ(got.nfiles, ref.nfiles);
  EXPECT_EQ(got.bytes_per_dump, ref.bytes_per_dump);
  EXPECT_EQ(got.task_bytes, ref.task_bytes);
  const auto paths = serial_be.list("");
  ASSERT_EQ(paths, spmd_be.list(""));
  for (const auto& path : paths)
    EXPECT_EQ(spmd_be.read(path), serial_be.read(path)) << path;
}

// The ship's counters and the subfiles it lands, pinned to values taken
// before the ship streamed (vector-of-vectors gatherv, copying mailboxes):
// a 64-rank, 8-aggregator, 3-dump ebl dump, on every engine.
class AggregatedShipPins : public ::testing::TestWithParam<ex::EngineKind> {};

TEST_P(AggregatedShipPins, CountersAndSubfileBytesAreUnchanged) {
  auto params = agg_params(64, 8);
  params.codec = "ebl";
  p::MemoryBackend be(false);
  amrio::obs::MetricsRegistry metrics;
  amrio::obs::Probe probe;
  probe.metrics = &metrics;
  const auto engine = ex::make_engine(GetParam(), params.nprocs);
  mc::run_macsio(*engine, params, be, nullptr, probe);

  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.counters.at("exec.gatherv.calls"), 24);
  EXPECT_EQ(snap.counters.at("exec.gatherv.messages"), 168);
  EXPECT_EQ(snap.counters.at("exec.gatherv.bytes"), 1274424);
  // per (dump, group): raw task documents in rank order
  const std::vector<std::uint64_t> expected = {
      76832, 76838, 76840, 76840, 38648, 38648, 38648, 38648,  // dump 0
      82208, 82214, 82216, 82216, 41336, 41336, 41336, 41336,  // dump 1
      82208, 82214, 82216, 82216, 41336, 41336, 41336, 41336,  // dump 2
  };
  std::vector<std::uint64_t> subfile_bytes;
  for (int dump = 0; dump < params.num_dumps; ++dump)
    for (int g = 0; g < params.aggregators; ++g)
      subfile_bytes.push_back(
          be.size(mc::aggregated_file_path(params, g, dump)));
  EXPECT_EQ(subfile_bytes, expected);
}

INSTANTIATE_TEST_SUITE_P(Kinds, AggregatedShipPins,
                         ::testing::Values(ex::EngineKind::kSerial,
                                           ex::EngineKind::kEvent,
                                           ex::EngineKind::kSpmd));

TEST(AggregatedMif, SubfilesConcatenateTaskDocsInRankOrder) {
  // aggregated subfile contents == the concatenation of what an unaggregated
  // N-to-N run writes for the same ranks, in rank order
  auto params = agg_params(12, 4);
  p::MemoryBackend agg_be(true);
  mc::run_macsio(params, agg_be);

  auto flat = params;
  flat.aggregators = 0;
  p::MemoryBackend flat_be(true);
  mc::run_macsio(flat, flat_be);

  const auto topo = st::AggTopology::make(params.nprocs, params.aggregators);
  for (int dump = 0; dump < params.num_dumps; ++dump) {
    for (int g = 0; g < topo.ngroups(); ++g) {
      std::vector<std::byte> expected;
      for (int r : topo.members_of(g)) {
        const auto doc = flat_be.read(mc::dump_file_path(flat, r, dump));
        expected.insert(expected.end(), doc.begin(), doc.end());
      }
      EXPECT_EQ(agg_be.read(mc::aggregated_file_path(params, g, dump)),
                expected)
          << "group " << g << " dump " << dump;
    }
  }
}

TEST(AggregatedMif, RequestsTargetAggregatorsAndCarryShipCost) {
  auto params = agg_params(16, 4);
  params.compute_time = 2.0;
  params.stage_to_bb = true;
  p::MemoryBackend be(false);
  const auto stats = mc::run_macsio(params, be);

  const auto topo = st::AggTopology::make(params.nprocs, params.aggregators);
  int data_requests = 0;
  for (const auto& req : stats.requests) {
    EXPECT_EQ(req.tier, p::kTierBurstBuffer);
    if (req.file.find("_agg_") == std::string::npos) {
      // metadata (root/index) submits on the compute boundary
      EXPECT_DOUBLE_EQ(std::fmod(req.submit_time, params.compute_time), 0.0);
      continue;
    }
    ++data_requests;
    EXPECT_TRUE(topo.is_aggregator(req.client)) << req.file;
    // shipping the group's documents to the aggregator takes interconnect
    // time: the subfile request lands strictly after the compute boundary
    EXPECT_GT(std::fmod(req.submit_time, params.compute_time), 0.0)
        << req.file;
  }
  EXPECT_EQ(data_requests, params.aggregators * params.num_dumps);
}

TEST(AggregatedMif, TraceCarriesTierAndAggregatorDimensions) {
  auto params = agg_params(16, 4);
  params.stage_to_bb = true;
  p::MemoryBackend be(false);
  amrio::iostats::TraceRecorder trace;
  mc::run_macsio(params, be, &trace);
  int subfile_events = 0;
  for (const auto& e : trace.events()) {
    EXPECT_EQ(e.tier, p::kTierBurstBuffer);
    if (e.level == 0) {
      ++subfile_events;
      EXPECT_GE(e.aggregator, 0);
      EXPECT_LT(e.aggregator, params.aggregators);
    } else {
      EXPECT_EQ(e.aggregator, -1);
    }
  }
  EXPECT_EQ(subfile_events, params.aggregators * params.num_dumps);
}

// --------------------------------------------- aggregated plotfile MIF

namespace {

struct PlotCase {
  m::MultiFab mf;
  m::Geometry geom;
  pf::PlotfileSpec spec;
};

PlotCase make_plot_case(int nranks, int aggregators) {
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
  c.mf.set_val(0.75);
  c.spec.dir = "agg_plt00000";
  c.spec.var_names = {"a", "b"};
  c.spec.aggregators = aggregators;
  return c;
}

}  // namespace

TEST(AggregatedPlotfile, FewerFilesSameDataBytesAndReadableRoundTrip) {
  const int nranks = 8;
  auto flat = make_plot_case(nranks, 0);
  p::MemoryBackend flat_be(true);
  const auto ref =
      pf::write_plotfile(flat_be, flat.spec, {{flat.geom, &flat.mf}});

  auto agg = make_plot_case(nranks, 2);
  p::MemoryBackend agg_be(true);
  const auto got = pf::write_plotfile(agg_be, agg.spec, {{agg.geom, &agg.mf}});

  EXPECT_EQ(got.data_bytes, ref.data_bytes);
  EXPECT_EQ(got.rank_level_bytes, ref.rank_level_bytes);
  // 8 Cell_D files collapse to 2; Header/job_info/Cell_H stay
  EXPECT_EQ(got.nfiles, ref.nfiles - 8 + 2);

  // the aggregated tree reads back with identical values
  const auto pfile = pf::read_plotfile(agg_be, "agg_plt00000");
  ASSERT_EQ(pfile.levels.size(), 1u);
  ASSERT_EQ(pfile.levels[0].fabs.size(), 16u);
  for (const auto& fab : pfile.levels[0].fabs) {
    EXPECT_EQ(fab.ncomp(), 2);
    EXPECT_DOUBLE_EQ(fab(fab.box().lo(0), fab.box().lo(1), 0), 0.75);
  }
}

TEST(AggregatedPlotfile, PredictMatchesWriteAndEnginesAgree) {
  const int nranks = 8;
  auto c = make_plot_case(nranks, 4);
  p::MemoryBackend serial_be(true);
  ex::SerialEngine serial(nranks);
  const auto ref =
      pf::write_plotfile(serial, serial_be, c.spec, {{c.geom, &c.mf}});

  p::MemoryBackend spmd_be(true);
  ex::SpmdEngine spmd(nranks);
  const auto got = pf::write_plotfile(spmd, spmd_be, c.spec, {{c.geom, &c.mf}});
  EXPECT_EQ(got.total_bytes, ref.total_bytes);
  EXPECT_EQ(got.nfiles, ref.nfiles);
  ASSERT_EQ(serial_be.list(""), spmd_be.list(""));
  for (const auto& path : serial_be.list(""))
    EXPECT_EQ(spmd_be.read(path), serial_be.read(path)) << path;

  const pf::LevelLayout layout{c.geom, c.mf.box_array(), c.mf.distribution()};
  const auto predicted = pf::predict_plotfile(c.spec, {layout}, 2);
  EXPECT_EQ(predicted.total_bytes, ref.total_bytes);
  EXPECT_EQ(predicted.nfiles, ref.nfiles);
  EXPECT_EQ(predicted.data_bytes, ref.data_bytes);
}

// -------------------------------------------------------- StagingBackend

TEST(StagingBackend, AbsorbsThenDrainsByteExactly) {
  p::MemoryBackend final_be(true);
  st::StagingBackend bb(final_be);
  {
    p::OutFile f(bb, "data/a.bin");
    f.write("hello ");
    f.write("world");
  }
  {
    p::OutFile f(bb, "data/b.bin");
    f.write("42");
  }
  EXPECT_EQ(bb.pending_files(), 2u);
  EXPECT_EQ(bb.pending_bytes(), 13u);
  EXPECT_FALSE(final_be.exists("data/a.bin"));  // not drained yet
  EXPECT_TRUE(bb.exists("data/a.bin"));         // staged view serves reads
  EXPECT_EQ(bb.size("data/a.bin"), 11u);

  const auto drained = bb.drain_all();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].path, "data/a.bin");
  EXPECT_EQ(drained[0].bytes, 11u);
  EXPECT_EQ(bb.pending_files(), 0u);
  const auto bytes = final_be.read("data/a.bin");
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(bytes.data()),
                        bytes.size()),
            "hello world");
  EXPECT_EQ(final_be.size("data/b.bin"), 2u);
  // the decorator still answers for drained files
  EXPECT_TRUE(bb.exists("data/b.bin"));
  EXPECT_EQ(bb.size("data/b.bin"), 2u);
}

TEST(StagingBackend, AppendAcrossDrainsPreservesFinalContents) {
  p::MemoryBackend final_be(true);
  st::StagingBackend bb(final_be);
  { p::OutFile f(bb, "log"); f.write("aaaa"); }
  bb.drain_all();
  { p::OutFile f(bb, "log", p::OpenMode::kAppend); f.write("bb"); }
  bb.drain_all();
  const auto bytes = final_be.read("log");
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(bytes.data()),
                        bytes.size()),
            "aaaabb");
  // a later create/truncate replaces the final copy on drain
  { p::OutFile f(bb, "log"); f.write("c"); }
  bb.drain_all();
  EXPECT_EQ(final_be.size("log"), 1u);
}

TEST(StagingBackend, TransparentViewComposesAppendSuffixWithDrainedPrefix) {
  // Between drains, size()/read() of an append-continuation file must show
  // the final-store prefix plus the staged suffix — what a direct backend
  // would hold.
  p::MemoryBackend final_be(true);
  st::StagingBackend bb(final_be);
  { p::OutFile f(bb, "f"); f.write("0123456789"); }
  bb.drain_all();
  { p::OutFile f(bb, "f", p::OpenMode::kAppend); f.write("abcde"); }
  EXPECT_EQ(bb.size("f"), 15u);
  const auto bytes = bb.read("f");
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(bytes.data()),
                        bytes.size()),
            "0123456789abcde");
  // a truncating create hides the drained copy again
  { p::OutFile f(bb, "f"); f.write("xy"); }
  EXPECT_EQ(bb.size("f"), 2u);
  EXPECT_EQ(bb.read("f").size(), 2u);
}

TEST(StagingBackend, AccountingModeDrainsExactSizesAndFileSets) {
  // store_contents = false: only byte counts are staged, yet the drained
  // file set and per-file sizes must match a direct run exactly — including
  // when the tier-side accounting shrinks under an encoded (codec) view.
  auto params = agg_params(16, 4);
  p::MemoryBackend direct_be(false);
  mc::run_macsio(params, direct_be);

  amrio::codec::CodecSpec codec;
  codec.name = "ebl";
  p::MemoryBackend final_be(false);
  st::StagingBackend bb(final_be, /*store_contents=*/false, codec);
  mc::run_macsio(params, bb);

  EXPECT_EQ(bb.pending_files(), direct_be.file_count());
  EXPECT_EQ(bb.pending_bytes(), direct_be.total_bytes());
  EXPECT_LT(bb.pending_encoded_bytes(), bb.pending_bytes());
  const auto drained = bb.drain_all();
  EXPECT_EQ(drained.size(), direct_be.file_count());
  for (const auto& rec : drained) {
    EXPECT_EQ(rec.bytes, direct_be.size(rec.path)) << rec.path;
    EXPECT_LE(rec.encoded_bytes, rec.bytes) << rec.path;
  }
  ASSERT_EQ(final_be.list(""), direct_be.list(""));
  for (const auto& path : direct_be.list(""))
    EXPECT_EQ(final_be.size(path), direct_be.size(path)) << path;
  EXPECT_EQ(final_be.total_bytes(), direct_be.total_bytes());
}

TEST(StagingBackend, MacsioDumpThroughBbMatchesDirect) {
  auto params = agg_params(16, 4);
  p::MemoryBackend direct_be(true);
  mc::run_macsio(params, direct_be);

  p::MemoryBackend final_be(true);
  st::StagingBackend bb(final_be);
  mc::run_macsio(params, bb);
  EXPECT_GT(bb.pending_files(), 0u);
  const auto reqs = bb.drain_requests(1.0, 0);
  EXPECT_EQ(reqs.size(), bb.pending_files());
  for (const auto& r : reqs) EXPECT_EQ(r.tier, p::kTierBurstBuffer);
  bb.drain_all();
  ASSERT_EQ(final_be.list(""), direct_be.list(""));
  for (const auto& path : direct_be.list(""))
    EXPECT_EQ(final_be.read(path), direct_be.read(path)) << path;
}

// -------------------------------------------------------- two-tier SimFs

namespace {

p::SimFsConfig bb_config() {
  p::SimFsConfig cfg;
  cfg.n_ost = 16;
  cfg.ost_bandwidth = 1e9;
  cfg.client_bandwidth = 10e9;
  cfg.mds_latency = 0.0;
  cfg.bb.enabled = true;
  cfg.bb.nodes = 1;
  cfg.bb.write_bandwidth = 10e9;
  cfg.bb.drain_bandwidth = 1e9;
  cfg.bb.drain_concurrency = 2;
  return cfg;
}

}  // namespace

TEST(TwoTierSimFs, PerceivedCompletesBeforeDrain) {
  p::SimFs fs(bb_config());
  const std::uint64_t bytes = 1'000'000'000;
  const auto res =
      fs.run({p::IoRequest{0, 0.0, "f", bytes, p::kTierBurstBuffer}});
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].tier, p::kTierBurstBuffer);
  EXPECT_NEAR(res[0].end, 0.1, 1e-9);       // absorbed at 10 GB/s
  EXPECT_NEAR(res[0].pfs_end, 0.1 + 1.0, 1e-6);  // drained at 1 GB/s
}

TEST(TwoTierSimFs, DisabledTierServesTaggedRequestsDirectly) {
  auto cfg = bb_config();
  cfg.bb.enabled = false;
  p::SimFs fs(cfg);
  const auto res =
      fs.run({p::IoRequest{0, 0.0, "f", 1'000'000'000, p::kTierBurstBuffer}});
  EXPECT_EQ(res[0].tier, p::kTierPfs);
  EXPECT_DOUBLE_EQ(res[0].end, res[0].pfs_end);
  EXPECT_NEAR(res[0].end, 1.0, 1e-6);  // OST bandwidth, no absorb
}

TEST(TwoTierSimFs, CapacityBoundStallsAbsorbs) {
  auto cfg = bb_config();
  const std::uint64_t bytes = 500'000'000;
  std::vector<p::IoRequest> reqs;
  for (int i = 0; i < 4; ++i)
    reqs.push_back({0, 0.0, "cap" + std::to_string(i), bytes,
                    p::kTierBurstBuffer});

  p::SimFs unlimited(cfg);
  const auto fast = unlimited.run(reqs);

  cfg.bb.capacity = bytes;  // room for exactly one staged request
  p::SimFs bounded(cfg);
  const auto slow = bounded.run(reqs);

  auto last_end = [](const std::vector<p::IoResult>& rs) {
    double t = 0.0;
    for (const auto& r : rs) t = std::max(t, r.end);
    return t;
  };
  // with capacity for one request, each absorb waits for the previous drain
  EXPECT_GT(last_end(slow), 2.0 * last_end(fast));
  // a request that can never fit is rejected loudly
  cfg.bb.capacity = bytes - 1;
  p::SimFs tiny(cfg);
  EXPECT_THROW(tiny.run(reqs), amrio::ContractViolation);
}

TEST(TwoTierSimFs, DrainConcurrencyShortensTheTail) {
  auto cfg = bb_config();
  std::vector<p::IoRequest> reqs;
  for (int i = 0; i < 6; ++i)
    reqs.push_back({0, 0.0, "t" + std::to_string(i), 400'000'000,
                    p::kTierBurstBuffer});
  auto last_durable = [](const std::vector<p::IoResult>& rs) {
    double t = 0.0;
    for (const auto& r : rs) t = std::max(t, r.pfs_end);
    return t;
  };
  cfg.bb.drain_concurrency = 1;
  const double serial_tail = last_durable(p::SimFs(cfg).run(reqs));
  cfg.bb.drain_concurrency = 6;
  const double parallel_tail = last_durable(p::SimFs(cfg).run(reqs));
  EXPECT_LT(parallel_tail, serial_tail);
}

TEST(TwoTierSimFs, DeterministicAcrossRuns) {
  auto cfg = bb_config();
  cfg.variability_sigma = 0.3;
  cfg.mds_latency = 1e-4;
  std::vector<p::IoRequest> reqs;
  for (int i = 0; i < 12; ++i)
    reqs.push_back({i % 3, 0.05 * (i / 3), "d" + std::to_string(i),
                    3'000'000, i % 2 ? p::kTierBurstBuffer : p::kTierPfs});
  const auto a = p::SimFs(cfg).run(reqs);
  const auto b = p::SimFs(cfg).run(reqs);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].end, b[i].end);
    EXPECT_DOUBLE_EQ(a[i].pfs_end, b[i].pfs_end);
  }
}

TEST(StagingReport, SeparatesPerceivedFromSustained) {
  auto cfg = bb_config();
  std::vector<p::IoRequest> reqs;
  for (int i = 0; i < 4; ++i)
    reqs.push_back({i, 0.0, "r" + std::to_string(i), 250'000'000,
                    p::kTierBurstBuffer});
  reqs.push_back({0, 0.0, "direct", 100'000'000, p::kTierPfs});
  const auto results = p::SimFs(cfg).run(reqs);
  const auto rep = st::staging_report(results);
  EXPECT_EQ(rep.staged_bytes, 4u * 250'000'000u);
  EXPECT_EQ(rep.direct_bytes, 100'000'000u);
  EXPECT_GT(rep.drain_tail, 0.0);
  EXPECT_LT(rep.perceived.makespan, rep.sustained.makespan);
  EXPECT_GT(rep.perceived_bandwidth, rep.sustained_bandwidth);
}
