/// Heap allocations of the MACSio dump's per-rank step. This binary alone
/// replaces the global operator new with a counting one (operator new[] and
/// the nothrow forms forward to it), so only the code under test runs with
/// the counter.
///
/// A MIF rank-dump on the event engine allocates its file path — nothing else
/// once the engine's message pool and slice arena have grown in the first
/// dump. Rank 0 records each request with an index into the dump's path
/// table, so a request copies no path.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "exec/engine.hpp"
#include "macsio/driver.hpp"
#include "pfs/backend.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

namespace ex = amrio::exec;
namespace mc = amrio::macsio;
namespace p = amrio::pfs;

constexpr int kRanks = 4096;

/// Allocations of one whole run_macsio (engine state, files, statistics and
/// every rank body) of a grouped-MIF dump on the event engine.
std::uint64_t allocations_of_dump(int num_dumps) {
  mc::Params params;
  params.nprocs = kRanks;
  params.file_mode = mc::FileMode::kMif;
  params.mif_files = 16;
  params.num_dumps = num_dumps;
  params.part_size = 20000;
  params.validate();
  ex::EventEngine engine(params.nprocs);
  p::MemoryBackend backend(false);
  const std::uint64_t before = g_allocations.load();
  (void)mc::run_macsio(engine, params, backend);
  return g_allocations.load() - before;
}

}  // namespace

TEST(Allocations, MifRankDumpAllocatesItsPathOnly) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer runtimes allocate on their own behalf, and the "
                  "event engine runs on per-rank stacks there";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  GTEST_SKIP() << "sanitizer runtimes allocate on their own behalf, and the "
                  "event engine runs on per-rank stacks there";
#endif
#endif
  const std::uint64_t one = allocations_of_dump(1);
  const std::uint64_t two = allocations_of_dump(2);
  ASSERT_GT(two, one);
  // The second dump's allocations: one per rank (its path) plus a per-dump
  // allowance that does not grow with the rank count — each file's backend
  // path-table node and key and its entry in the request batch's path table
  // (16 data files and the root file), one handle-table block per 1,024
  // opens, the gathered byte counts, the codec plans, the root document and
  // the growth of the request vector and the path table.
  constexpr std::uint64_t kPerDump = 128;
  EXPECT_LE(two - one, 1u * kRanks + kPerDump)
      << (static_cast<double>(two - one) / kRanks)
      << " allocations per rank-dump";
}
