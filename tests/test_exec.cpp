/// Tests for the unified execution engine (exec::SerialEngine fibers,
/// exec::SpmdEngine threads, exec::EventEngine virtual ranks): collective and
/// messaging semantics, error propagation and deadlock detection on every
/// engine, and the headline guarantee — serial and SPMD executions of the
/// MACSio and plotfile drivers are byte-identical because they run the same
/// body.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exec/engine.hpp"
#include "macsio/driver.hpp"
#include "mesh/distribution.hpp"
#include "mesh/multifab.hpp"
#include "pfs/backend.hpp"
#include "plotfile/writer.hpp"
#include "util/assert.hpp"

namespace ex = amrio::exec;
namespace mc = amrio::macsio;
namespace p = amrio::pfs;
namespace pf = amrio::plotfile;
namespace m = amrio::mesh;

// ----------------------------------------------------------- collectives

class EngineCollectives : public ::testing::TestWithParam<ex::EngineKind> {};

TEST_P(EngineCollectives, BarrierAndRankIdentity) {
  const int n = 7;
  const auto engine = ex::make_engine(GetParam(), n);
  EXPECT_EQ(engine->nranks(), n);
  std::atomic<int> count{0};
  engine->run([&](ex::RankCtx& ctx) {
    EXPECT_EQ(ctx.nranks(), n);
    EXPECT_GE(ctx.rank(), 0);
    EXPECT_LT(ctx.rank(), n);
    count.fetch_add(1);
    ctx.barrier();
    EXPECT_EQ(count.load(), n);
  });
}

TEST_P(EngineCollectives, GatherDeliversAtRootOnly) {
  const int n = 6;
  const auto engine = ex::make_engine(GetParam(), n);
  engine->run([&](ex::RankCtx& ctx) {
    const auto got = ctx.gather(static_cast<std::uint64_t>(ctx.rank() * 10), 2);
    if (ctx.rank() == 2) {
      ASSERT_EQ(got.size(), static_cast<std::size_t>(n));
      for (int r = 0; r < n; ++r)
        EXPECT_EQ(got[static_cast<std::size_t>(r)],
                  static_cast<std::uint64_t>(r * 10));
    } else {
      EXPECT_TRUE(got.empty());
    }
  });
}

TEST_P(EngineCollectives, TokenPassingChain) {
  const int n = 8;
  const auto engine = ex::make_engine(GetParam(), n);
  engine->run([&](ex::RankCtx& ctx) {
    std::uint64_t acc = 0;
    if (ctx.rank() > 0) acc = ctx.recv_token(ctx.rank() - 1, 5);
    acc += static_cast<std::uint64_t>(ctx.rank());
    if (ctx.rank() + 1 < n) ctx.send_token(acc, ctx.rank() + 1, 5);
    if (ctx.rank() == n - 1) {
      EXPECT_EQ(acc, static_cast<std::uint64_t>(n * (n - 1) / 2));
    }
  });
}

TEST_P(EngineCollectives, TagsKeepMessagesSeparate) {
  const auto engine = ex::make_engine(GetParam(), 2);
  engine->run([](ex::RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.send_token(1, 1, 100);
      ctx.send_token(2, 1, 200);
      ctx.send_bytes({std::byte{7}}, 1, 100);
      ctx.send_bytes({std::byte{8}, std::byte{9}}, 1, 200);
    } else {
      // receive in reverse tag order
      EXPECT_EQ(ctx.recv_token(0, 200), 2u);
      EXPECT_EQ(ctx.recv_token(0, 100), 1u);
      EXPECT_EQ(ctx.recv_bytes(0, 200).size(), 2u);
      EXPECT_EQ(ctx.recv_bytes(0, 100),
                std::vector<std::byte>{std::byte{7}});
    }
  });
}

TEST_P(EngineCollectives, FifoWithinTag) {
  const auto engine = ex::make_engine(GetParam(), 2);
  engine->run([](ex::RankCtx& ctx) {
    if (ctx.rank() == 0) {
      for (std::uint64_t i = 0; i < 10; ++i) {
        ctx.send_token(i, 1, 7);
        ctx.send_bytes(std::vector<std::byte>(i), 1, 7);
      }
    } else {
      for (std::uint64_t i = 0; i < 10; ++i) {
        EXPECT_EQ(ctx.recv_token(0, 7), i);
        EXPECT_EQ(ctx.recv_bytes(0, 7).size(), i);
      }
    }
  });
}

TEST_P(EngineCollectives, MessageDoesNotReleaseABarrier) {
  // rank 1 waits in a barrier after a recv on the same mailbox rank 0 sends
  // to next; that message must not let rank 1 leave the barrier before
  // rank 0 arrives (the sleeps order the threads on spmd)
  const auto engine = ex::make_engine(GetParam(), 2);
  std::atomic<bool> passed{false};
  engine->run([&](ex::RankCtx& ctx) {
    const auto pause = std::chrono::milliseconds(20);
    if (ctx.rank() == 0) {
      std::this_thread::sleep_for(pause);  // rank 1 blocks in recv_token
      ctx.send_token(1, 1, 5);
      std::this_thread::sleep_for(pause);  // rank 1 blocks in the barrier
      ctx.send_token(2, 1, 5);
      std::this_thread::sleep_for(pause);
      EXPECT_FALSE(passed.load());
      ctx.barrier();
    } else {
      EXPECT_EQ(ctx.recv_token(0, 5), 1u);
      ctx.barrier();
      passed.store(true);
      EXPECT_EQ(ctx.recv_token(0, 5), 2u);
    }
  });
}

TEST_P(EngineCollectives, EmptyByteMessage) {
  const auto engine = ex::make_engine(GetParam(), 2);
  engine->run([](ex::RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.send_bytes({}, 1, 3);
    } else {
      EXPECT_TRUE(ctx.recv_bytes(0, 3).empty());
    }
  });
}

TEST_P(EngineCollectives, SingleRankRunsInline) {
  const auto engine = ex::make_engine(GetParam(), 1);
  const auto caller = std::this_thread::get_id();
  int calls = 0;
  engine->run([&](ex::RankCtx& ctx) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(ctx.rank(), 0);
    EXPECT_EQ(ctx.nranks(), 1);
    ctx.barrier();
    EXPECT_EQ(ctx.gather(5, 0), std::vector<std::uint64_t>{5});
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST_P(EngineCollectives, RejectsRankCountBelowOne) {
  EXPECT_THROW((void)ex::make_engine(GetParam(), 0), amrio::ContractViolation);
  EXPECT_THROW((void)ex::make_engine(GetParam(), -3),
               amrio::ContractViolation);
}

TEST_P(EngineCollectives, RankExceptionPropagates) {
  // peers blocked in a barrier must be released, and run() must rethrow the
  // rank's own error, not the CommAborted its peers observe
  const auto engine = ex::make_engine(GetParam(), 4);
  try {
    engine->run([&](ex::RankCtx& ctx) {
      if (ctx.rank() == 2) throw std::logic_error("rank 2 died");
      ctx.barrier();  // peers must not hang
      ctx.barrier();
    });
    FAIL() << "expected the rank error to propagate";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "rank 2 died");
  }
}

namespace {

/// Run `body` on three ranks and require the run to fail promptly with the
/// engine's deadlock error.
void expect_deadlock(ex::EngineKind kind, const ex::RankFn& body) {
  const auto engine = ex::make_engine(kind, 3);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    engine->run(body);
    ADD_FAILURE() << "expected the deadlock to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos)
        << e.what();
  }
  const std::chrono::duration<double> waited =
      std::chrono::steady_clock::now() - t0;
  EXPECT_LT(waited.count(), 1.0);
}

}  // namespace

TEST_P(EngineCollectives, MismatchedCollectivesDeadlockDetected) {
  // rank 0 waits in a second barrier its peers never reach
  expect_deadlock(GetParam(), [](ex::RankCtx& ctx) {
    ctx.barrier();
    if (ctx.rank() == 0) ctx.barrier();
  });
}

TEST_P(EngineCollectives, RecvWithNoSendDeadlockDetected) {
  expect_deadlock(GetParam(), [](ex::RankCtx& ctx) {
    if (ctx.rank() == 0) (void)ctx.recv_token(1, 9);  // never sent
    if (ctx.rank() == 2) (void)ctx.recv_bytes(1, 9);  // never sent
  });
}

INSTANTIATE_TEST_SUITE_P(Kinds, EngineCollectives,
                         ::testing::Values(ex::EngineKind::kSerial,
                                           ex::EngineKind::kSpmd,
                                           ex::EngineKind::kEvent));

TEST(SerialEngine, DeterministicSchedule) {
  // fibers are resumed in rank order between suspensions: record the order
  // ranks pass a barrier window and require it to be identical across runs
  auto order_of = []() {
    std::vector<int> order;
    ex::SerialEngine engine(6);
    engine.run([&](ex::RankCtx& ctx) {
      ctx.barrier();
      order.push_back(ctx.rank());  // single-threaded: no race
      ctx.barrier();
    });
    return order;
  };
  EXPECT_EQ(order_of(), order_of());
}

// ------------------------------------------------- driver byte-identity

namespace {

mc::Params stress_params(mc::FileMode mode, int nprocs, int mif_files) {
  mc::Params params;
  params.nprocs = nprocs;
  params.file_mode = mode;
  params.mif_files = mif_files;
  params.num_dumps = 3;
  params.part_size = 2000;
  params.dataset_growth = 1.07;
  params.meta_size = 32;
  params.avg_num_parts = 1.5;
  return params;
}

void expect_backends_equal(const p::StorageBackend& a,
                           const p::StorageBackend& b) {
  EXPECT_EQ(a.total_bytes(), b.total_bytes());
  EXPECT_EQ(a.file_count(), b.file_count());
  const auto paths = a.list("");
  ASSERT_EQ(paths, b.list(""));
  for (const auto& path : paths) EXPECT_EQ(a.size(path), b.size(path)) << path;
}

}  // namespace

class EngineParity
    : public ::testing::TestWithParam<std::tuple<mc::FileMode, int>> {};

/// The stress test of the contention-free substrate: 32+ ranks dumping
/// concurrently (MIF N-to-N, grouped MIF, and SIF open_append chains)
/// through both backends must match the serial engine byte for byte.
TEST_P(EngineParity, SpmdMatchesSerialOnMemoryBackend) {
  const auto [mode, mif_files] = GetParam();
  const auto params = stress_params(mode, /*nprocs=*/32, mif_files);

  p::MemoryBackend serial_be(false);
  ex::SerialEngine serial(params.nprocs);
  const auto ref = mc::run_macsio(serial, params, serial_be);

  p::MemoryBackend spmd_be(false);
  ex::SpmdEngine spmd(params.nprocs);
  const auto got = mc::run_macsio(spmd, params, spmd_be);

  EXPECT_EQ(got.total_bytes, ref.total_bytes);
  EXPECT_EQ(got.nfiles, ref.nfiles);
  EXPECT_EQ(got.bytes_per_dump, ref.bytes_per_dump);
  EXPECT_EQ(got.task_bytes, ref.task_bytes);
  expect_backends_equal(spmd_be, serial_be);
  EXPECT_EQ(ref.total_bytes, serial_be.total_bytes());
  EXPECT_EQ(ref.nfiles, serial_be.file_count());
}

TEST_P(EngineParity, SpmdMatchesSerialOnPosixBackend) {
  const auto [mode, mif_files] = GetParam();
  const auto params = stress_params(mode, /*nprocs=*/32, mif_files);

  const std::string root_a = testing::TempDir() + "amrio_exec_serial";
  const std::string root_b = testing::TempDir() + "amrio_exec_spmd";
  std::filesystem::remove_all(root_a);
  std::filesystem::remove_all(root_b);
  {
    p::PosixBackend serial_be(root_a);
    ex::SerialEngine serial(params.nprocs);
    const auto ref = mc::run_macsio(serial, params, serial_be);

    p::PosixBackend spmd_be(root_b);
    ex::SpmdEngine spmd(params.nprocs);
    const auto got = mc::run_macsio(spmd, params, spmd_be);

    EXPECT_EQ(got.total_bytes, ref.total_bytes);
    EXPECT_EQ(got.nfiles, ref.nfiles);
    expect_backends_equal(spmd_be, serial_be);
    for (const auto& path : serial_be.list(""))
      EXPECT_EQ(spmd_be.read(path), serial_be.read(path)) << path;
  }
  std::filesystem::remove_all(root_a);
  std::filesystem::remove_all(root_b);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, EngineParity,
    ::testing::Values(std::tuple{mc::FileMode::kMif, 0},    // N-to-N
                      std::tuple{mc::FileMode::kMif, 4},    // grouped batons
                      std::tuple{mc::FileMode::kSif, 0}));  // one shared file

TEST(EngineParity, StoredContentsIdenticalAcrossEngines) {
  const auto params = stress_params(mc::FileMode::kMif, 12, 3);
  p::MemoryBackend serial_be(true);
  ex::SerialEngine serial(params.nprocs);
  mc::run_macsio(serial, params, serial_be);

  p::MemoryBackend spmd_be(true);
  ex::SpmdEngine spmd(params.nprocs);
  mc::run_macsio(spmd, params, spmd_be);

  for (const auto& path : serial_be.list(""))
    EXPECT_EQ(spmd_be.read(path), serial_be.read(path)) << path;
}

TEST(EngineParity, RequestStreamsIdenticalAcrossEngines) {
  // the SimFs request stream is built by rank 0 from gathered byte counts,
  // so it is engine-independent, request by request
  const auto params = stress_params(mc::FileMode::kMif, 16, 0);
  p::MemoryBackend be_a(false);
  p::MemoryBackend be_b(false);
  ex::SerialEngine serial(params.nprocs);
  ex::SpmdEngine spmd(params.nprocs);
  const auto ra = mc::run_macsio(serial, params, be_a).requests;
  const auto rb = mc::run_macsio(spmd, params, be_b).requests;

  ASSERT_EQ(ra.size(), rb.size());
  ASSERT_FALSE(ra.empty());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].client, rb[i].client) << i;
    EXPECT_DOUBLE_EQ(ra[i].submit_time, rb[i].submit_time) << i;
    EXPECT_EQ(ra.path(ra[i]), rb.path(rb[i])) << i;  // text, not index
    EXPECT_EQ(ra[i].bytes, rb[i].bytes) << i;
  }
}

TEST(EngineParity, PlotfileWriteIdenticalAcrossEngines) {
  const int nranks = 8;
  std::vector<m::Box> boxes;
  for (int j = 0; j < 4; ++j)
    for (int i = 0; i < 4; ++i)
      boxes.emplace_back(i * 16, j * 16, i * 16 + 15, j * 16 + 15);
  m::BoxArray ba(boxes);
  const auto dm =
      m::DistributionMapping::make(ba, nranks, m::DistributionStrategy::kSfc);
  m::MultiFab mf(ba, dm, 2, 0);
  for (std::size_t i = 0; i < mf.nfabs(); ++i) mf.fab(i).set_val(1.25);
  const m::Geometry geom(m::Box(0, 0, 63, 63), {0.0, 0.0}, {1.0, 1.0});
  pf::PlotfileSpec spec;
  spec.dir = "engine_plt00000";
  spec.var_names = {"a", "b"};

  // The plotfile and checkpoint trees come from one write body; each must
  // be byte-identical on every engine.
  using WriteFn = pf::WriteStats (*)(ex::Engine&, p::StorageBackend&,
                                     const pf::PlotfileSpec&,
                                     const std::vector<pf::LevelPlotData>&);
  const std::pair<const char*, WriteFn> writers[] = {
      {"plotfile", &pf::write_plotfile}, {"checkpoint", &pf::write_checkpoint}};
  for (const auto& [what, write] : writers) {
    SCOPED_TRACE(what);
    p::MemoryBackend serial_be(true);
    ex::SerialEngine serial(nranks);
    const auto ref = write(serial, serial_be, spec, {{geom, &mf}});
    for (const auto kind : {ex::EngineKind::kSpmd, ex::EngineKind::kEvent}) {
      SCOPED_TRACE(ex::engine_kind_name(kind));
      p::MemoryBackend be(true);
      const auto got =
          write(*ex::make_engine(kind, nranks), be, spec, {{geom, &mf}});
      EXPECT_EQ(got.total_bytes, ref.total_bytes);
      EXPECT_EQ(got.metadata_bytes, ref.metadata_bytes);
      EXPECT_EQ(got.data_bytes, ref.data_bytes);
      EXPECT_EQ(got.nfiles, ref.nfiles);
      EXPECT_EQ(got.rank_level_bytes, ref.rank_level_bytes);
      expect_backends_equal(be, serial_be);
      for (const auto& path : serial_be.list(""))
        EXPECT_EQ(be.read(path), serial_be.read(path)) << path;
    }
  }
}

// ----------------------------------------------------- OutFile move state

TEST(OutFile, MoveAssignmentClosesTargetAndEmptiesSource) {
  p::MemoryBackend be(true);
  p::OutFile a(be, "a");
  a.write("aa");
  {
    p::OutFile b(be, "b");
    b.write("bbbb");
    a = std::move(b);  // must close "a" and take over "b"
    EXPECT_EQ(b.bytes_written(), 0u);
    b.close();  // harmless on moved-from
  }  // destroying the moved-from b must not close the handle a now owns
  EXPECT_EQ(a.bytes_written(), 4u);
  a.write("BB");
  a.close();
  EXPECT_EQ(be.size("a"), 2u);
  EXPECT_EQ(be.size("b"), 6u);
}

TEST(OutFile, MoveConstructorEmptiesSource) {
  p::MemoryBackend be(true);
  p::OutFile a(be, "x");
  a.write("123");
  p::OutFile moved(std::move(a));
  EXPECT_EQ(a.bytes_written(), 0u);
  a.close();  // harmless on moved-from: the handle is moved's now
  EXPECT_EQ(moved.bytes_written(), 3u);
  moved.write("45");
  moved.close();
  EXPECT_EQ(be.size("x"), 5u);
}
