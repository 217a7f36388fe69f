/// Tests for exec::EventEngine (the discrete-event engine for machine-scale
/// rank counts) beyond the shared EngineCollectives suite in test_exec.cpp:
/// the three-way engine-parity matrix — serial vs spmd vs event over
/// MIF/SIF × {direct, agg, bb} × {identity, ebl} at 32 ranks, write AND
/// restart, byte-identical documents, identical stats, request streams and
/// span exports — plus one suspension per rank per dump in the event
/// engine, its slice-arena size at 16k ranks, the SpmdEngine thread cap,
/// unwinding, determinism, the --engine CLI surface, engine/codec/restart
/// composing through core::validate_translation, and a large-rank smoke run.

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/amrio.hpp"
#include "exec/engine.hpp"
#include "macsio/driver.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/selfprof.hpp"
#include "obs/span.hpp"
#include "pfs/backend.hpp"
#include "util/assert.hpp"

namespace ex = amrio::exec;
namespace mc = amrio::macsio;
namespace p = amrio::pfs;

namespace {

enum class Staging { kDirect, kAgg, kBb };

const char* staging_name(Staging s) {
  switch (s) {
    case Staging::kDirect: return "direct";
    case Staging::kAgg: return "agg";
    case Staging::kBb: return "bb";
  }
  return "?";
}

mc::Params matrix_params(mc::FileMode mode, Staging staging,
                         const std::string& codec, int num_dumps) {
  mc::Params params;
  params.nprocs = 32;
  params.file_mode = mode;
  params.num_dumps = num_dumps;
  params.part_size = 1500;
  params.avg_num_parts = 1.25;
  params.dataset_growth = 1.05;
  params.meta_size = 16;
  params.codec = codec;
  params.restart = true;
  switch (staging) {
    case Staging::kDirect:
      break;
    case Staging::kAgg:
      params.aggregators = 8;
      break;
    case Staging::kBb:
      params.stage_to_bb = true;
      params.restart_from_bb = true;
      break;
  }
  params.validate();
  return params;
}

struct EngineRunResult {
  mc::DumpStats dump;
  mc::RestartStats restart;
  /// Exported observability artifacts of the run: the Chrome-trace JSON of
  /// the merged span stream (driver spans + a BB-tier SimFs replay) and the
  /// metrics snapshot. The parity contract is byte-identity.
  std::string trace_json;
  std::string metrics_json;
};

EngineRunResult run_matrix_point(ex::EngineKind kind, const mc::Params& params,
                                 p::MemoryBackend& backend) {
  const auto engine = ex::make_engine(kind, params.nprocs);
  amrio::obs::Tracer tracer;
  amrio::obs::MetricsRegistry metrics;
  const amrio::obs::Probe probe{&tracer, &metrics};
  EngineRunResult r;
  r.dump = mc::run_macsio(*engine, params, backend, probe);
  r.restart = mc::run_restart(*engine, params, backend, probe);
  // Replay both request streams through a BB-enabled reference model so the
  // span stream covers every pipeline stage, then export deterministically.
  p::SimFsConfig cfg;
  cfg.bb.enabled = true;
  cfg.bb.nodes = 2;
  cfg.bb.ranks_per_node = 16;
  p::SimFs fs(cfg);
  (void)fs.run(r.dump.requests, probe);
  (void)fs.run(r.restart.requests, probe);
  std::ostringstream ts;
  amrio::obs::write_chrome_trace(ts, tracer.spans(), tracer.edges());
  r.trace_json = ts.str();
  std::ostringstream ms;
  amrio::obs::write_metrics_json(ms, metrics.snapshot());
  r.metrics_json = ms.str();
  return r;
}

/// Requests compare by path text: the batches' path-table indices are an
/// encoding, not part of what the request names.
void expect_requests_equal(const p::IoBatch& a, const p::IoBatch& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].client, b[i].client) << i;
    EXPECT_DOUBLE_EQ(a[i].submit_time, b[i].submit_time) << i;
    EXPECT_EQ(a.path(a[i]), b.path(b[i])) << i;
    EXPECT_EQ(a[i].bytes, b[i].bytes) << i;
    EXPECT_EQ(a[i].tier, b[i].tier) << i;
    EXPECT_EQ(a[i].op, b[i].op) << i;
  }
}

void expect_codec_totals_equal(const amrio::codec::CodecTotals& a,
                               const amrio::codec::CodecTotals& b) {
  EXPECT_EQ(a.raw_bytes, b.raw_bytes);
  EXPECT_EQ(a.encoded_bytes, b.encoded_bytes);
  EXPECT_EQ(a.chunks, b.chunks);
  EXPECT_DOUBLE_EQ(a.encode_seconds, b.encode_seconds);
  EXPECT_DOUBLE_EQ(a.decode_seconds, b.decode_seconds);
}

/// Everything an engine run produces — stored document bytes, write-side
/// stats, restart stats, request timelines — must match the serial reference.
void expect_parity(const EngineRunResult& got, const p::MemoryBackend& got_be,
                   const EngineRunResult& ref, const p::MemoryBackend& ref_be) {
  // write side
  EXPECT_EQ(got.dump.total_bytes, ref.dump.total_bytes);
  EXPECT_EQ(got.dump.nfiles, ref.dump.nfiles);
  EXPECT_EQ(got.dump.bytes_per_dump, ref.dump.bytes_per_dump);
  EXPECT_EQ(got.dump.task_bytes, ref.dump.task_bytes);
  expect_codec_totals_equal(got.dump.codec.total, ref.dump.codec.total);
  expect_requests_equal(got.dump.requests, ref.dump.requests);

  // stored documents, byte for byte
  EXPECT_EQ(got_be.total_bytes(), ref_be.total_bytes());
  const auto paths = ref_be.list("");
  ASSERT_EQ(got_be.list(""), paths);
  for (const auto& path : paths)
    EXPECT_EQ(got_be.read(path), ref_be.read(path)) << path;

  // restart side
  EXPECT_EQ(got.restart.dump, ref.restart.dump);
  EXPECT_EQ(got.restart.task_bytes, ref.restart.task_bytes);
  EXPECT_EQ(got.restart.task_hash, ref.restart.task_hash);
  EXPECT_EQ(got.restart.raw_bytes, ref.restart.raw_bytes);
  EXPECT_EQ(got.restart.encoded_bytes, ref.restart.encoded_bytes);
  EXPECT_DOUBLE_EQ(got.restart.decode_gate, ref.restart.decode_gate);
  EXPECT_DOUBLE_EQ(got.restart.scatter_seconds, ref.restart.scatter_seconds);
  expect_codec_totals_equal(got.restart.codec.total, ref.restart.codec.total);
  expect_requests_equal(got.restart.requests, ref.restart.requests);

  // observability side: the merged span stream and the metrics snapshot are
  // part of the engine-parity contract — byte-identical exports
  EXPECT_EQ(got.trace_json, ref.trace_json);
  EXPECT_EQ(got.metrics_json, ref.metrics_json);
}

}  // namespace

// --------------------------------------------- three-way engine parity

/// (file mode, staging, codec, dumps). The three-dump points give rank 0's
/// end-of-dump bookkeeping two chances to overlap the next dump's writes,
/// which no barrier holds back.
class ThreeWayParity
    : public ::testing::TestWithParam<
          std::tuple<mc::FileMode, Staging, std::string, int>> {};

TEST_P(ThreeWayParity, SerialSpmdEventAgreeOnWriteAndRestart) {
  const auto [mode, staging, codec, dumps] = GetParam();
  const auto params = matrix_params(mode, staging, codec, dumps);

  p::MemoryBackend serial_be(true);
  const auto ref = run_matrix_point(ex::EngineKind::kSerial, params, serial_be);

  p::MemoryBackend spmd_be(true);
  const auto spmd = run_matrix_point(ex::EngineKind::kSpmd, params, spmd_be);
  expect_parity(spmd, spmd_be, ref, serial_be);

  p::MemoryBackend event_be(true);
  const auto event = run_matrix_point(ex::EngineKind::kEvent, params, event_be);
  expect_parity(event, event_be, ref, serial_be);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ThreeWayParity,
    ::testing::Values(
        // MIF × {direct, agg, bb} × {identity, ebl}
        std::tuple{mc::FileMode::kMif, Staging::kDirect, std::string("identity"), 2},
        std::tuple{mc::FileMode::kMif, Staging::kDirect, std::string("ebl"), 2},
        std::tuple{mc::FileMode::kMif, Staging::kAgg, std::string("identity"), 2},
        std::tuple{mc::FileMode::kMif, Staging::kAgg, std::string("ebl"), 2},
        std::tuple{mc::FileMode::kMif, Staging::kBb, std::string("identity"), 2},
        std::tuple{mc::FileMode::kMif, Staging::kBb, std::string("ebl"), 2},
        // SIF × {direct, bb} × {identity, ebl} (SIF × agg is rejected by
        // Params::validate — aggregation requires MIF)
        std::tuple{mc::FileMode::kSif, Staging::kDirect, std::string("identity"), 2},
        std::tuple{mc::FileMode::kSif, Staging::kDirect, std::string("ebl"), 2},
        std::tuple{mc::FileMode::kSif, Staging::kBb, std::string("identity"), 2},
        std::tuple{mc::FileMode::kSif, Staging::kBb, std::string("ebl"), 2},
        // three dumps: the shared-file baton and the aggregation ship
        std::tuple{mc::FileMode::kSif, Staging::kDirect, std::string("ebl"), 3},
        std::tuple{mc::FileMode::kMif, Staging::kAgg, std::string("ebl"), 3}),
    [](const auto& info) {
      const int dumps = std::get<3>(info.param);
      return std::string(std::get<0>(info.param) == mc::FileMode::kMif
                             ? "mif"
                             : "sif") +
             "_" + staging_name(std::get<1>(info.param)) + "_" +
             std::get<2>(info.param) +
             (dumps == 2 ? "" : "_" + std::to_string(dumps) + "dumps");
    });

// ------------------------------------------------- event engine specifics

TEST(EventEngine, DeterministicScheduleAndRepeatableBytes) {
  // The schedule is a pure function of the driver body: the order ranks pass
  // a barrier window must be identical run to run (fresh starts ascending,
  // releases in rank order).
  auto order_of = []() {
    std::vector<int> order;
    ex::EventEngine engine(24);
    engine.run([&](ex::RankCtx& ctx) {
      ctx.barrier();
      order.push_back(ctx.rank());  // single-threaded: no race
      ctx.barrier();
    });
    return order;
  };
  EXPECT_EQ(order_of(), order_of());
}

TEST(EventEngine, MifDumpSuspendsOncePerRankPerDump) {
  // The dump body's only global collective is the end-of-dump gather, and a
  // rank's baton predecessor has always run before it, so a rank is started
  // once and suspends at most once per dump: nprocs * (num_dumps + 1)
  // context switches at most (three per rank per dump with a barrier on
  // each side of the gather).
  mc::Params params;
  params.nprocs = 512;
  params.file_mode = mc::FileMode::kMif;
  params.mif_files = 8;
  params.num_dumps = 3;
  params.part_size = 2000;
  params.validate();

  ex::EventEngine engine(params.nprocs);
  amrio::obs::SelfProfiler prof;
  engine.set_profiler(&prof);
  p::MemoryBackend event_be(true);
  const mc::DumpStats event = mc::run_macsio(engine, params, event_be);
  const std::uint64_t switches =
      prof.snapshot().counters.at("engine.event.context_switches");
  EXPECT_LE(switches, static_cast<std::uint64_t>(params.nprocs) *
                          static_cast<std::uint64_t>(params.num_dumps + 1));

  // The grouped-MIF baton still lands the serial reference's bytes.
  p::MemoryBackend serial_be(true);
  const mc::DumpStats serial =
      mc::run_macsio(*ex::make_engine(ex::EngineKind::kSerial, params.nprocs),
                     params, serial_be);
  EXPECT_EQ(event.total_bytes, serial.total_bytes);
  EXPECT_EQ(event.nfiles, serial.nfiles);
  EXPECT_EQ(event.nfiles, 3u * (8u + 1u));
  EXPECT_EQ(event.task_bytes, serial.task_bytes);
  expect_requests_equal(event.requests, serial.requests);
  const auto paths = serial_be.list("");
  ASSERT_EQ(event_be.list(""), paths);
  for (const auto& path : paths)
    EXPECT_EQ(event_be.read(path), serial_be.read(path)) << path;
}

TEST(EventEngine, MifDumpSliceArenaStaysInItsSizeClass) {
  // Each suspended rank's stack slice is rounded up to a 512 B class, and
  // the dump body's slice sits just under 512 B: a frame that grows past
  // the class doubles the arena (and a 131k-rank dump's RSS). The event
  // engine falls back to per-rank fibers, with no arena, under ASan/TSan and
  // off x86-64; this pin is for the shared-stack build only.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    !defined(__x86_64__)
  GTEST_SKIP() << "event engine built with per-rank compat stacks";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  GTEST_SKIP() << "event engine built with per-rank compat stacks";
#endif
#endif
  mc::Params params;
  params.interface = mc::Interface::kMiftmpl;
  params.nprocs = 16384;
  params.file_mode = mc::FileMode::kMif;
  params.mif_files = 64;
  params.num_dumps = 2;
  params.part_size = 20000;
  params.dataset_growth = 1.01;
  params.validate();

  ex::EventEngine engine(params.nprocs);
  amrio::obs::SelfProfiler prof;
  engine.set_profiler(&prof);
  p::MemoryBackend backend(false);
  (void)mc::run_macsio(engine, params, backend);
  const double arena =
      prof.snapshot().gauges.at("engine.event.slice_arena_bytes");
  EXPECT_GT(arena, 0.0);
  EXPECT_LE(arena, 16384.0 * 512 + 2.0 * 1024 * 1024);
}

TEST(EventEngine, RankExceptionUnwindsAllRanks) {
  // Peers blocked on collectives must observe the abort and unwind (their
  // locals are destructed), and run() rethrows the original error.
  ex::EventEngine engine(16);
  int destructed = 0;
  struct Probe {
    int* counter;
    ~Probe() { ++*counter; }
  };
  try {
    engine.run([&](ex::RankCtx& ctx) {
      Probe probe{&destructed};
      if (ctx.rank() == 5) throw std::logic_error("rank 5 died");
      ctx.barrier();
    });
    FAIL() << "expected rank error to propagate";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "rank 5 died");
  }
  EXPECT_EQ(destructed, 16);
}

TEST(EventEngine, NestedRunIsAllowed) {
  // A rank body may spin up its own inner EventEngine (the calibrator's
  // replay-inside-a-study pattern); the inner scheduler runs synchronously
  // within the outer rank's time slice.
  ex::EventEngine outer(4);
  std::vector<std::uint64_t> sums;
  outer.run([&](ex::RankCtx& octx) {
    if (octx.rank() == 2) {
      ex::EventEngine inner(8);
      std::uint64_t sum = 0;
      inner.run([&](ex::RankCtx& ictx) {
        ictx.barrier();
        const auto got =
            ictx.gather(static_cast<std::uint64_t>(ictx.rank()), 7);
        if (ictx.rank() == 7)
          sum = std::accumulate(got.begin(), got.end(), std::uint64_t{0});
      });
      sums.push_back(sum);  // 0 + 1 + ... + 7
    }
    octx.barrier();
  });
  ASSERT_EQ(sums.size(), 1u);
  EXPECT_EQ(sums[0], 28u);
}

TEST(EventEngine, LargeRankSmoke) {
  // O(active) scheduling at a six-figure rank count: spin-up, one gather
  // and one barrier across 131,072 virtual ranks. With per-rank stacks this
  // would be 16 GiB of fiber stacks; here it completes in well under a
  // second on anything.
  const int n = 131072;
  ex::EventEngine engine(n);
  std::vector<std::uint64_t> got;
  engine.run([&](ex::RankCtx& ctx) {
    auto mine = ctx.gather(static_cast<std::uint64_t>(ctx.rank()), n - 1);
    ctx.barrier();
    if (ctx.rank() == n - 1) got = std::move(mine);
  });
  ASSERT_EQ(got.size(), static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r)
    ASSERT_EQ(got[static_cast<std::size_t>(r)], static_cast<std::uint64_t>(r));
}

TEST(EventEngine, RejectsOutOfRangeConfig) {
  EXPECT_THROW(ex::EventEngine(0), amrio::ContractViolation);
  EXPECT_THROW(ex::EventEngine(1 << 24), amrio::ContractViolation);
  EXPECT_THROW(ex::EventEngine(4, /*exec_stack_bytes=*/1024),
               amrio::ContractViolation);
}

TEST(EventEngine, RejectsOutOfRangeTags) {
  ex::EventEngine engine(2);
  EXPECT_THROW(engine.run([](ex::RankCtx& ctx) {
                 if (ctx.rank() == 0) ctx.send_token(1, 1, 70000);
               }),
               amrio::ContractViolation);
}

// ------------------------------------------- cooperative-engine inboxes

/// Point-to-point semantics of the scheduler EventEngine and SerialEngine
/// share: one FIFO inbox per rank, matched on (src, tag) and kind.
class CooperativeMessaging : public ::testing::TestWithParam<ex::EngineKind> {
 protected:
  std::unique_ptr<ex::Engine> engine(int n) const {
    return ex::make_engine(GetParam(), n);
  }
};

TEST_P(CooperativeMessaging, TokenAndByteMessagesOnOneKeyStaySeparate) {
  const auto eng = engine(2);
  std::vector<std::string> got;
  eng->run([&](ex::RankCtx& ctx) {
    if (ctx.rank() == 0) {
      (void)ctx.recv_token(1, 9);  // rank 1 is now blocked on bytes
      ctx.send_token(5, 1, 3);     // same (src, dst, tag), other kind
      ctx.send_bytes({std::byte{1}}, 1, 3);
      ctx.send_token(6, 1, 3);
      ctx.send_bytes({std::byte{2}, std::byte{2}}, 1, 3);
    } else {
      ctx.send_token(0, 0, 9);
      got.push_back("bytes " + std::to_string(ctx.recv_bytes(0, 3).size()));
      got.push_back("token " + std::to_string(ctx.recv_token(0, 3)));
      got.push_back("token " + std::to_string(ctx.recv_token(0, 3)));
      got.push_back("bytes " + std::to_string(ctx.recv_bytes(0, 3).size()));
    }
  });
  EXPECT_EQ(got, (std::vector<std::string>{"bytes 1", "token 5", "token 6",
                                           "bytes 2"}));
}

TEST_P(CooperativeMessaging, QueuedMessagesOfOneKeyComeOutFifo) {
  // Five messages per key, interleaved with another tag's and the other
  // kind's, so each receive skips past non-matching inbox entries.
  const auto eng = engine(2);
  std::vector<std::uint64_t> tag7, tag8;
  std::vector<std::size_t> bytes7;
  eng->run([&](ex::RankCtx& ctx) {
    if (ctx.rank() == 0) {
      for (std::uint64_t i = 0; i < 5; ++i) {
        ctx.send_token(100 + i, 1, 8);
        ctx.send_bytes(std::vector<std::byte>(i), 1, 7);
        ctx.send_token(i, 1, 7);
      }
    } else {
      for (int i = 0; i < 5; ++i) tag7.push_back(ctx.recv_token(0, 7));
      for (int i = 0; i < 5; ++i) bytes7.push_back(ctx.recv_bytes(0, 7).size());
      for (int i = 0; i < 5; ++i) tag8.push_back(ctx.recv_token(0, 8));
    }
  });
  EXPECT_EQ(tag7, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(bytes7, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(tag8, (std::vector<std::uint64_t>{100, 101, 102, 103, 104}));
}

TEST_P(CooperativeMessaging, ReceiverOnOneSourceIsNotWokenByAnother) {
  // Rank 2 blocks on a message from rank 0; rank 1 sends it one on the same
  // tag first. The schedule is deterministic, so the resumes are exact:
  // three starts, then 0, 1, 0, 2. A wake by rank 1's message would add one
  // more (rank 2 resuming only to block again).
  const auto eng = engine(3);
  amrio::obs::SelfProfiler prof;
  eng->set_profiler(&prof);
  std::vector<std::uint64_t> got;
  eng->run([&](ex::RankCtx& ctx) {
    switch (ctx.rank()) {
      case 0:
        (void)ctx.recv_token(2, 1);
        (void)ctx.recv_token(1, 2);  // after rank 1 has sent to rank 2
        ctx.send_token(222, 2, 5);
        break;
      case 1:
        (void)ctx.recv_token(2, 1);
        ctx.send_token(111, 2, 5);  // rank 2 waits on rank 0, not on us
        ctx.send_token(0, 0, 2);
        break;
      case 2:
        ctx.send_token(0, 0, 1);
        ctx.send_token(0, 1, 1);
        got.push_back(ctx.recv_token(0, 5));
        got.push_back(ctx.recv_token(1, 5));
        break;
    }
  });
  EXPECT_EQ(got, (std::vector<std::uint64_t>{222, 111}));
  const std::string key =
      std::string("engine.") + eng->name() + ".context_switches";
  EXPECT_EQ(prof.snapshot().counters.at(key), 7u);
}

TEST_P(CooperativeMessaging, DeadlockWithUndeliveredMessagesIsReported) {
  const auto eng = engine(3);
  try {
    eng->run([](ex::RankCtx& ctx) {
      if (ctx.rank() == 0) {
        ctx.send_token(1, 1, 5);
        ctx.send_bytes(std::vector<std::byte>(64), 1, 5);
        ctx.send_bytes(std::vector<std::byte>(8), 2, 5);
        (void)ctx.recv_token(2, 5);  // never sent
      } else if (ctx.rank() == 1) {
        (void)ctx.recv_token(0, 6);  // wrong tag: never sent
      } else {
        (void)ctx.recv_token(0, 5);  // rank 0 sent bytes, not a token
      }
    });
    FAIL() << "expected the deadlock to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos)
        << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, CooperativeMessaging,
                         ::testing::Values(ex::EngineKind::kEvent,
                                           ex::EngineKind::kSerial),
                         [](const auto& info) {
                           return std::string(
                               ex::engine_kind_name(info.param));
                         });

// ------------------------------------------------------ spmd thread cap

TEST(SpmdEngine, FailsFastAboveThreadCap) {
  // Above the cap the constructor must throw with a message that points at
  // --engine=event, instead of exhausting the machine on pthread_create
  // mid-run. Construction spawns no thread, so neither engine is run.
  EXPECT_EQ(ex::SpmdEngine::thread_cap(), 1024);
  try {
    ex::SpmdEngine engine(1025);
    FAIL() << "expected the thread cap to reject 1025 ranks";
  } catch (const amrio::ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--engine=event"), std::string::npos) << what;
    EXPECT_NE(what.find("thread cap"), std::string::npos) << what;
  }
  // at the cap is fine
  ex::SpmdEngine ok(1024);
  EXPECT_EQ(ok.nranks(), 1024);
}

// ------------------------------------------------------- CLI surface

TEST(EngineKindCli, NamesRoundTrip) {
  EXPECT_EQ(ex::engine_kind_from_name("serial"), ex::EngineKind::kSerial);
  EXPECT_EQ(ex::engine_kind_from_name("spmd"), ex::EngineKind::kSpmd);
  EXPECT_EQ(ex::engine_kind_from_name("event"), ex::EngineKind::kEvent);
  for (const auto kind : {ex::EngineKind::kSerial, ex::EngineKind::kSpmd,
                          ex::EngineKind::kEvent}) {
    EXPECT_EQ(ex::engine_kind_from_name(ex::engine_kind_name(kind)), kind);
    EXPECT_STREQ(ex::make_engine(kind, 2)->name(), ex::engine_kind_name(kind));
  }
}

TEST(EngineKindCli, UnknownNameThrows) {
  EXPECT_THROW(ex::engine_kind_from_name("fiber"), std::invalid_argument);
  EXPECT_THROW(ex::engine_kind_from_name(""), std::invalid_argument);
}

// ------------------------------- engine/codec/restart compose in one call

TEST(ProxyStudy, EngineCodecRestartComposeInOneEntryPoint) {
  namespace core = amrio::core;
  core::CaseConfig cfg;
  cfg.name = "study_opts";
  cfg.ncell = 32;
  cfg.max_level = 1;
  cfg.max_step = 12;
  cfg.plot_int = 3;
  cfg.nprocs = 8;
  cfg.max_grid_size = 16;
  const auto run = core::run_case(cfg);

  const auto plain = core::calibrate_and_validate(run, 1.0, 1.2);

  amrio::model::TranslationResult edited = plain.translation;
  edited.params.codec = "ebl";
  edited.params.restart = true;
  amrio::obs::Tracer tracer;
  const auto composed = core::validate_translation(
      run, edited, ex::EngineKind::kEvent, amrio::obs::Probe{&tracer});

  // the engine/codec/restart knobs must not perturb the byte-accuracy story
  EXPECT_EQ(composed.proxy_per_step, plain.proxy_per_step);
  EXPECT_DOUBLE_EQ(composed.mean_abs_rel_err, plain.mean_abs_rel_err);
  // ... while actually engaging the codec and restart subsystems
  EXPECT_GT(composed.proxy_stats.codec.total.raw_bytes, 0u);
  EXPECT_LT(composed.proxy_stats.codec.total.encoded_bytes,
            composed.proxy_stats.codec.total.raw_bytes);
  EXPECT_GT(composed.restart_stats.raw_bytes, 0u);
  EXPECT_EQ(composed.restart_stats.task_bytes.size(),
            static_cast<std::size_t>(8));
  // restart untouched by default
  EXPECT_EQ(plain.restart_stats.raw_bytes, 0u);
  // the caller's probe saw the proxy run, dump and restart
  EXPECT_FALSE(tracer.spans().empty());
}
