/// Tests for the staging subsystem: two-phase aggregation topology and CLI
/// validation, the group gatherv primitive, aggregated-MIF byte conservation
/// and engine parity for the MACSio driver, `--staging bb`
/// request tagging, and the two-tier SimFs (absorb + async drain, capacity
/// stalls, drain concurrency).

#include <gtest/gtest.h>

#include <numeric>
#include <tuple>

#include "exec/engine.hpp"
#include "macsio/driver.hpp"
#include "macsio/interfaces.hpp"
#include "obs/metrics.hpp"
#include "pfs/backend.hpp"
#include "pfs/simfs.hpp"
#include "staging/aggregator.hpp"
#include "staging/drain.hpp"
#include "util/assert.hpp"
#include "named_requests.hpp"

namespace ex = amrio::exec;
namespace mc = amrio::macsio;
namespace p = amrio::pfs;
namespace st = amrio::staging;
using amrio_test::make_batch;
using amrio_test::NamedRequest;

// ------------------------------------------------------------ AggTopology

TEST(AggTopology, EvenPartition) {
  const auto topo = st::AggTopology::make(64, 8);
  EXPECT_EQ(topo.ngroups(), 8);
  for (int g = 0; g < 8; ++g) {
    EXPECT_EQ(static_cast<int>(topo.members_of(g).size()), 8);
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
  EXPECT_EQ(static_cast<int>(topo.members_of(0).size()), 3);
  EXPECT_EQ(static_cast<int>(topo.members_of(1).size()), 3);
  EXPECT_EQ(static_cast<int>(topo.members_of(2).size()), 2);
  EXPECT_EQ(static_cast<int>(topo.members_of(3).size()), 2);
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
// serialized, so a group holds one payload in flight, not the group's. The
// rounds input repeats the ship between global gathers, the dump loop's
// shape: the bound must hold after every release too, not only in the
// first round, where no rank has been suspended yet.
class GathervHandOff : public ::testing::TestWithParam<ex::EngineKind> {};

TEST_P(GathervHandOff, RootLandsEachMemberBeforeTheNextSerializes) {
  const int n = 8;
  for (const int rounds : {1, 3}) {
    SCOPED_TRACE(std::to_string(rounds) + " rounds");
    const auto engine = ex::make_engine(GetParam(), n);
    std::vector<std::string> log;
    engine->run([&](ex::RankCtx& ctx) {
      std::vector<int> members(n);
      std::iota(members.begin(), members.end(), 0);
      for (int round = 0; round < rounds; ++round) {
        log.push_back("serialize " + std::to_string(ctx.rank()));
        ex::gatherv_group(ctx, std::vector<std::byte>(64), members, 0, 91,
                          [&](int member, std::span<const std::byte> payload) {
                            EXPECT_EQ(payload.size(), 64u);
                            log.push_back("land " + std::to_string(member));
                          });
        (void)ctx.gather(0, 0);
      }
    });
    std::vector<std::string> expected;
    for (int round = 0; round < rounds; ++round) {
      for (int m = 0; m < n; ++m) {
        expected.push_back("serialize " + std::to_string(m));
        expected.push_back("land " + std::to_string(m));
      }
    }
    EXPECT_EQ(log, expected);
  }
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
  mc::run_macsio(*engine, params, be, probe);

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
  mc::run_macsio(
      *ex::make_engine(ex::EngineKind::kSerial, params.nprocs), params, agg_be);

  auto flat = params;
  flat.aggregators = 0;
  p::MemoryBackend flat_be(true);
  mc::run_macsio(
      *ex::make_engine(ex::EngineKind::kSerial, flat.nprocs), flat, flat_be);

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
  const auto stats = mc::run_macsio(
      *ex::make_engine(ex::EngineKind::kSerial, params.nprocs), params, be);

  const auto topo = st::AggTopology::make(params.nprocs, params.aggregators);
  int data_requests = 0;
  for (const auto& req : stats.requests) {
    EXPECT_EQ(req.tier, p::kTierBurstBuffer);
    const std::string& file = stats.requests.path(req);
    if (file.find("_agg_") == std::string::npos) {
      // metadata (root/index) submits on the compute boundary
      EXPECT_DOUBLE_EQ(std::fmod(req.submit_time, params.compute_time), 0.0);
      continue;
    }
    ++data_requests;
    EXPECT_TRUE(topo.is_aggregator(req.client)) << file;
    // shipping the group's documents to the aggregator takes interconnect
    // time: the subfile request lands strictly after the compute boundary
    EXPECT_GT(std::fmod(req.submit_time, params.compute_time), 0.0) << file;
  }
  EXPECT_EQ(data_requests, params.aggregators * params.num_dumps);
}

TEST(AggregatedMif, RequestsCarryTierAndAggregator) {
  auto params = agg_params(16, 4);
  params.stage_to_bb = true;
  p::MemoryBackend be(false);
  const auto stats = mc::run_macsio(
      *ex::make_engine(ex::EngineKind::kSerial, params.nprocs), params, be);
  const auto topo = st::AggTopology::make(params.nprocs, params.aggregators);
  int subfile_requests = 0;
  for (const auto& req : stats.requests) {
    const std::string& file = stats.requests.path(req);
    EXPECT_EQ(req.tier, p::kTierBurstBuffer) << file;
    if (file.find("/data/") == std::string::npos) {
      EXPECT_EQ(req.client, 0) << file;  // rank 0 writes the metadata
      continue;
    }
    ++subfile_requests;
    const int group = topo.group_of(req.client);
    EXPECT_EQ(req.client, topo.aggregator_of_group(group)) << file;
    const int dump = (subfile_requests - 1) / topo.ngroups();
    EXPECT_EQ(file, mc::aggregated_file_path(params, group, dump));
  }
  EXPECT_EQ(subfile_requests, params.aggregators * params.num_dumps);
}

// ---------------------------------------------------- --staging bb tagging

// The burst-buffer tier is a timing model: `stage_to_bb` tags the driver's
// requests for SimFs's BB tier and changes nothing a backend receives.
TEST(StageToBb, MovesTiersNotBytes) {
  auto n_to_n = agg_params(16, 0);
  auto grouped = n_to_n;
  grouped.mif_files = 4;
  const auto aggregated = agg_params(16, 4);
  for (auto params : {n_to_n, grouped, aggregated}) {
    SCOPED_TRACE(testing::Message() << "mif_files " << params.mif_files
                                    << " aggregators " << params.aggregators);
    params.fill = mc::FillMode::kReal;
    params.compute_time = 1.0;
    params.stage_to_bb = false;
    const auto engine =
        ex::make_engine(ex::EngineKind::kSerial, params.nprocs);
    p::MemoryBackend pfs_be(true);
    const auto direct = mc::run_macsio(*engine, params, pfs_be);
    params.stage_to_bb = true;
    p::MemoryBackend bb_be(true);
    const auto staged = mc::run_macsio(*engine, params, bb_be);

    const auto paths = pfs_be.list("");
    ASSERT_EQ(bb_be.list(""), paths);
    for (const auto& path : paths)
      EXPECT_EQ(bb_be.read(path), pfs_be.read(path)) << path;

    const auto key = [](const p::IoBatch& b, std::size_t i) {
      const p::IoRequest& r = b[i];
      return std::tuple(r.client, r.submit_time, b.path(r), r.bytes, r.op);
    };
    ASSERT_FALSE(direct.requests.empty());
    ASSERT_EQ(staged.requests.size(), direct.requests.size());
    for (std::size_t i = 0; i < direct.requests.size(); ++i) {
      EXPECT_EQ(key(staged.requests, i), key(direct.requests, i)) << i;
      EXPECT_EQ(direct.requests[i].tier, p::kTierPfs) << i;
      EXPECT_EQ(staged.requests[i].tier, p::kTierBurstBuffer) << i;
    }
  }
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
      fs.run(make_batch({{0, 0.0, "f", bytes, p::kTierBurstBuffer}}));
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
      fs.run(make_batch({{0, 0.0, "f", 1'000'000'000, p::kTierBurstBuffer}}));
  EXPECT_EQ(res[0].tier, p::kTierPfs);
  EXPECT_DOUBLE_EQ(res[0].end, res[0].pfs_end);
  EXPECT_NEAR(res[0].end, 1.0, 1e-6);  // OST bandwidth, no absorb
}

TEST(TwoTierSimFs, CapacityBoundStallsAbsorbs) {
  auto cfg = bb_config();
  const std::uint64_t bytes = 500'000'000;
  std::vector<NamedRequest> reqs;
  for (int i = 0; i < 4; ++i)
    reqs.push_back({0, 0.0, "cap" + std::to_string(i), bytes,
                    p::kTierBurstBuffer});

  p::SimFs unlimited(cfg);
  const auto fast = unlimited.run(make_batch(reqs));

  cfg.bb.capacity = bytes;  // room for exactly one staged request
  p::SimFs bounded(cfg);
  const auto slow = bounded.run(make_batch(reqs));

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
  EXPECT_THROW(tiny.run(make_batch(reqs)), amrio::ContractViolation);
}

TEST(TwoTierSimFs, DrainConcurrencyShortensTheTail) {
  auto cfg = bb_config();
  std::vector<NamedRequest> reqs;
  for (int i = 0; i < 6; ++i)
    reqs.push_back({0, 0.0, "t" + std::to_string(i), 400'000'000,
                    p::kTierBurstBuffer});
  auto last_durable = [](const std::vector<p::IoResult>& rs) {
    double t = 0.0;
    for (const auto& r : rs) t = std::max(t, r.pfs_end);
    return t;
  };
  cfg.bb.drain_concurrency = 1;
  const double serial_tail = last_durable(p::SimFs(cfg).run(make_batch(reqs)));
  cfg.bb.drain_concurrency = 6;
  const double parallel_tail =
      last_durable(p::SimFs(cfg).run(make_batch(reqs)));
  EXPECT_LT(parallel_tail, serial_tail);
}

TEST(TwoTierSimFs, DeterministicAcrossRuns) {
  auto cfg = bb_config();
  cfg.variability_sigma = 0.3;
  cfg.mds_latency = 1e-4;
  std::vector<NamedRequest> reqs;
  for (int i = 0; i < 12; ++i) {
    std::string file = "d";
    file += std::to_string(i);
    reqs.push_back({i % 3, 0.05 * (i / 3), file, 3'000'000,
                    i % 2 ? p::kTierBurstBuffer : p::kTierPfs});
  }
  const auto a = p::SimFs(cfg).run(make_batch(reqs));
  const auto b = p::SimFs(cfg).run(make_batch(reqs));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].end, b[i].end);
    EXPECT_DOUBLE_EQ(a[i].pfs_end, b[i].pfs_end);
  }
}

TEST(StagingReport, SeparatesPerceivedFromSustained) {
  auto cfg = bb_config();
  std::vector<NamedRequest> reqs;
  for (int i = 0; i < 4; ++i)
    reqs.push_back({i, 0.0, "r" + std::to_string(i), 250'000'000,
                    p::kTierBurstBuffer});
  reqs.push_back({0, 0.0, "direct", 100'000'000, p::kTierPfs});
  const auto results = p::SimFs(cfg).run(make_batch(reqs));
  const auto rep = st::staging_report(results);
  EXPECT_EQ(rep.staged_bytes, 4u * 250'000'000u);
  EXPECT_EQ(rep.direct_bytes, 100'000'000u);
  EXPECT_GT(rep.drain_tail, 0.0);
  EXPECT_LT(rep.perceived.makespan, rep.sustained.makespan);
  EXPECT_GT(rep.perceived_bandwidth, rep.sustained_bandwidth);
}
