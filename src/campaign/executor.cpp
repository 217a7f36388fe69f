#include "campaign/executor.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <set>
#include <thread>

#include "exec/engine.hpp"
#include "macsio/driver.hpp"
#include "obs/critical_path.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "pfs/backend.hpp"
#include "staging/drain.hpp"
#include "util/assert.hpp"

namespace amrio::campaign {

pfs::SimFsConfig reference_fs_config(int ranks, bool burst_buffer) {
  pfs::SimFsConfig cfg;
  cfg.n_ost = 32;
  cfg.ost_bandwidth = 0.8e9;
  cfg.client_bandwidth = 1.2e9;
  cfg.mds_latency = 5.0e-4;
  cfg.seed = 1234;
  cfg.bb.enabled = burst_buffer;
  cfg.bb.nodes = ranks / 16 > 1 ? ranks / 16 : 1;
  cfg.bb.ranks_per_node = 16;
  cfg.bb.write_bandwidth = 8.0e9;
  cfg.bb.drain_bandwidth = 1.5e9;
  cfg.bb.drain_concurrency = 2;
  return cfg;
}

CellResult run_cell(const CellConfig& cell) {
  const macsio::Params& params = cell.params;
  params.validate();

  // Everything below is cell-private (engine, backend, tracer, SimFs), so
  // concurrent run_cell calls never share mutable state — the property the
  // work-stealing pool and the TSan CI job lean on.
  pfs::MemoryBackend backend(/*store_contents=*/false);
  const auto engine = exec::make_engine(cell.engine, params.nprocs);
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  const obs::Probe probe{&tracer, &metrics};
  const macsio::DumpStats stats =
      macsio::run_macsio(*engine, params, backend, probe);

  CellResult r;
  r.raw_bytes = stats.codec.total.raw_bytes;
  r.total_bytes = stats.total_bytes;
  r.nfiles = stats.nfiles;
  r.encode_seconds = stats.codec.total.encode_seconds;
  // Task data is what lands under data/: classify each path once.
  std::vector<char> is_data(stats.requests.files.size());
  for (std::size_t f = 0; f < is_data.size(); ++f)
    is_data[f] = stats.requests.files[f].find("/data/") != std::string::npos;
  for (const pfs::IoRequest& req : stats.requests)
    if (is_data[req.file]) r.encoded_bytes += req.bytes;

  pfs::SimFs fs(reference_fs_config(params.nprocs, params.stage_to_bb));
  const staging::StagingReport report =
      staging::staging_report(fs.run(stats.requests, probe));
  r.dump_seconds = report.perceived.makespan;
  r.sustained_seconds = report.sustained.makespan;
  r.perceived_bandwidth = report.perceived_bandwidth;
  r.sustained_bandwidth = report.sustained_bandwidth;

  const obs::CriticalPathReport cp =
      obs::critical_path(tracer.spans(), tracer.edges());
  r.critical_stage = cp.critical_stage;
  r.critical_frac = cp.critical_frac;
  r.binding_resource = cp.binding_resource;

  if (params.restart) {
    const macsio::RestartStats restart =
        macsio::run_restart(*engine, params, backend, probe);
    pfs::SimFs rfs(reference_fs_config(params.nprocs, params.restart_from_bb));
    const staging::StagingReport rreport =
        staging::staging_report(rfs.run(restart.requests, probe));
    r.restart_seconds = rreport.perceived.makespan;
    r.restart_decode_gate = restart.decode_gate;
  }
  return r;
}

CampaignExecutor::CampaignExecutor(ExecutorOptions opts)
    : opts_(std::move(opts)) {
  AMRIO_EXPECTS_MSG(opts_.jobs >= 1, "campaign: --jobs must be >= 1");
  if (!opts_.cache_path.empty()) cache_.load(opts_.cache_path);
}

std::vector<CellOutcome> CampaignExecutor::run(
    const std::vector<CellConfig>& cells) {
  std::vector<CellOutcome> outcomes(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    outcomes[i].name = cells[i].name;
    outcomes[i].key = canonical_key(cells[i]);
  }

  // In-flight dedup: the first worker to reach a key claims it; later
  // arrivals (same key from a duplicate cell) block until the claimant
  // publishes into the cache, then take the hit. This makes executed/hit
  // counts and every from_cache bit independent of thread interleaving.
  std::mutex inflight_mu;
  std::condition_variable inflight_cv;
  std::set<std::string> inflight;
  std::atomic<std::uint64_t> executed{0};
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> steals{0};

  auto process = [&](std::size_t index) {
    CellOutcome& out = outcomes[index];
    bool claimed = false;
    {
      std::unique_lock<std::mutex> lock(inflight_mu);
      inflight_cv.wait(lock,
                       [&] { return inflight.count(out.key) == 0; });
      // Exactly one cache probe per cell, never while the key is in
      // flight — hit/miss counters stay --jobs-invariant.
      out.from_cache = cache_.lookup(out.key, &out.result);
      if (!out.from_cache) {
        inflight.insert(out.key);
        claimed = true;
      }
    }
    if (!claimed) {
      hits.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    out.result = run_cell(cells[index]);
    cache_.insert(out.key, out.result);
    executed.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(inflight_mu);
      inflight.erase(out.key);
    }
    inflight_cv.notify_all();
  };

  const int jobs =
      static_cast<int>(std::min<std::size_t>(
          static_cast<std::size_t>(opts_.jobs), std::max<std::size_t>(
                                                    cells.size(), 1)));
  if (jobs <= 1) {
    for (std::size_t i = 0; i < cells.size(); ++i) process(i);
  } else {
    // Sharded deques + stealing: worker w owns cells w, w+jobs, w+2*jobs...
    // and pops them front-to-back; an idle worker steals from the *back* of
    // a victim's deque (classic Chase–Lev shape, mutexes instead of a
    // lock-free deque — cells are milliseconds, not nanoseconds).
    std::vector<std::deque<std::size_t>> deques(jobs);
    std::vector<std::mutex> deque_mu(jobs);
    for (std::size_t i = 0; i < cells.size(); ++i)
      deques[i % jobs].push_back(i);

    auto worker = [&](int w) {
      for (;;) {
        std::size_t index = 0;
        bool got = false;
        {
          std::lock_guard<std::mutex> lock(deque_mu[w]);
          if (!deques[w].empty()) {
            index = deques[w].front();
            deques[w].pop_front();
            got = true;
          }
        }
        if (!got) {
          for (int off = 1; off < jobs && !got; ++off) {
            const int victim = (w + off) % jobs;
            std::lock_guard<std::mutex> lock(deque_mu[victim]);
            if (!deques[victim].empty()) {
              index = deques[victim].back();
              deques[victim].pop_back();
              got = true;
              steals.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
        // No worker enqueues new cells, so empty-everywhere means done.
        if (!got) return;
        process(index);
      }
    };

    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (int w = 0; w < jobs; ++w) pool.emplace_back(worker, w);
    for (std::thread& t : pool) t.join();
  }

  stats_.cells += cells.size();
  stats_.executed += executed.load();
  stats_.cache_hits += hits.load();
  stats_.steals += steals.load();
  if (!opts_.cache_path.empty()) cache_.save(opts_.cache_path);
  return outcomes;
}

}  // namespace amrio::campaign
