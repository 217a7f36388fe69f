/// Extension: staging-subsystem study. Sweeps the four staging configurations
/// {no-staging, aggregation-only, burst-buffer-only, both} over rank counts
/// and reports what each mechanism buys: two-phase aggregation cuts the file
/// count (and MDS pressure) by the aggregation factor while conserving every
/// task-document byte, and the burst-buffer tier splits perceived from
/// sustained bandwidth by overlapping the drain with compute windows —
/// the Hercule/ADIOS2-style behaviours the paper's §V positions the
/// calibrated proxy to explore.
///
/// The agg+bb configuration additionally sweeps aggregator *placement*
/// (SimFs::node_of × AggTopology): "spread" keeps each aggregator on its
/// group's node (contiguous jsrun packing), "clustered" pins every
/// aggregator onto the first burst-buffer node — the absorbs then serialize
/// on one node's staging bandwidth, collapsing perceived bandwidth even
/// though the bytes and file counts are identical.

#include <cstdio>
#include <string>
#include <vector>

#include <algorithm>
#include <set>

#include "bench_common.hpp"
#include "campaign/executor.hpp"
#include "exec/engine.hpp"
#include "macsio/driver.hpp"
#include "obs/critical_path.hpp"
#include "pfs/backend.hpp"
#include "pfs/simfs.hpp"
#include "staging/aggregator.hpp"
#include "staging/drain.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

namespace {

struct Config {
  const char* name;
  bool aggregate;
  bool burst_buffer;
};

/// Remap the data-request clients so every aggregator lands on the first
/// burst-buffer node: aggregator of group g becomes client g, and with
/// ngroups <= ranks_per_node SimFs::node_of maps them all to node 0.
amrio::pfs::IoBatch cluster_aggregators(
    amrio::pfs::IoBatch requests, const amrio::staging::AggTopology& topo) {
  for (auto& req : requests.requests) {
    if (requests.path(req).find("_agg_") == std::string::npos) continue;
    req.client = topo.group_of(req.client);
  }
  return requests;
}

/// Distinct staging nodes the data-file clients map to.
int data_nodes(const amrio::pfs::SimFs& fs,
               const amrio::pfs::IoBatch& requests) {
  std::set<int> nodes;
  for (const auto& req : requests) {
    if (requests.path(req).find("/data/") == std::string::npos) continue;
    nodes.insert(fs.node_of(req.client));
  }
  return static_cast<int>(nodes.size());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace amrio;
  const auto ctx = bench::parse_bench_args(
      argc, argv, "ext_staging_study",
      "extension: two-phase aggregation + burst-buffer staging study");
  bench::banner("Extension — staging subsystem (aggregation × burst buffer)",
                "paper §V outlook: restructured/staged AMR output stacks");

  const std::vector<int> rank_counts =
      ctx.full ? std::vector<int>{16, 64, 128} : std::vector<int>{16, 64};
  constexpr int kAggFactor = 8;  // ranks per aggregation group

  util::TextTable table({"ranks", "config", "placement", "agg nodes",
                         "data files", "all files", "perceived mkspn",
                         "sustained mkspn", "perceived BW", "sustained BW",
                         "drain tail", "critical path"});
  util::CsvWriter csv(bench::csv_path(ctx, "ext_staging_study.csv"));
  csv.header({"ranks", "config", "placement", "agg_nodes", "data_files",
              "all_files", "perceived_makespan", "sustained_makespan",
              "perceived_bw", "sustained_bw", "drain_tail", "data_bytes",
              "critical_stage", "critical_frac", "binding_resource",
              "predicted_2x_relief"});

  const Config configs[] = {{"none", false, false},
                            {"agg", true, false},
                            {"bb", false, true},
                            {"agg+bb", true, true}};

  bool ok = true;
  obs::Tracer row_tracer;  // reset per row: one critical path per config/row
  for (int ranks : rank_counts) {
    std::uint64_t baseline_data_files = 0;
    std::uint64_t baseline_data_bytes = 0;
    for (const Config& config : configs) {
      macsio::Params params;
      params.nprocs = ranks;
      params.num_dumps = 4;
      params.part_size = 1 << 23;  // 8 MiB/task/dump: a real burst
      params.avg_num_parts = 1.0;
      params.compute_time = 0.5;
      params.dataset_growth = 1.02;
      params.aggregators = config.aggregate ? ranks / kAggFactor : 0;
      params.stage_to_bb = config.burst_buffer;

      pfs::MemoryBackend backend(false);
      const auto engine = ctx.make_engine(params.nprocs);
      row_tracer = obs::Tracer();
      obs::Probe probe = ctx.probe(row_tracer);
      const auto stats =
          macsio::run_macsio(*engine, params, backend, probe);

      std::uint64_t data_files = 0;
      std::uint64_t data_bytes = 0;
      for (const auto& req : stats.requests) {
        if (stats.requests.path(req).find("/data/") == std::string::npos)
          continue;
        ++data_files;
        data_bytes += req.bytes;
      }

      pfs::SimFs fs(campaign::reference_fs_config(ranks, config.burst_buffer));

      if (!config.aggregate) {
        if (baseline_data_files == 0) {
          baseline_data_files = data_files;
          baseline_data_bytes = data_bytes;
        }
      } else {
        // aggregation must cut the data file count by exactly the factor and
        // conserve every task-document byte
        if (data_files != baseline_data_files / kAggFactor) {
          std::printf("MISMATCH: %d ranks %s: %llu data files, expected %llu\n",
                      ranks, config.name,
                      static_cast<unsigned long long>(data_files),
                      static_cast<unsigned long long>(baseline_data_files /
                                                      kAggFactor));
          ok = false;
        }
        if (data_bytes != baseline_data_bytes) {
          std::printf("MISMATCH: %d ranks %s: aggregation not byte-conserving\n",
                      ranks, config.name);
          ok = false;
        }
      }

      // Aggregator placement matters only when aggregators hit per-node
      // staging areas: sweep spread vs clustered for agg+bb.
      const bool sweep_placement = config.aggregate && config.burst_buffer;
      double spread_makespan = 0.0;
      for (const char* placement :
           sweep_placement ? std::vector<const char*>{"spread", "clustered"}
                           : std::vector<const char*>{"spread"}) {
        pfs::IoBatch requests = stats.requests;
        if (std::string(placement) == "clustered") {
          const auto topo =
              staging::AggTopology::make(ranks, params.aggregators);
          requests = cluster_aggregators(std::move(requests), topo);
          // Second row of this config: regenerate the driver spans into a
          // fresh tracer so this placement's critical path stands alone.
          row_tracer = obs::Tracer();
          probe = ctx.probe(row_tracer);
          pfs::MemoryBackend probe_backend(false);
          const auto probe_engine = ctx.make_engine(params.nprocs);
          (void)macsio::run_macsio(*probe_engine, params, probe_backend,
                                   probe);
        }
        // only meaningful when aggregators exist; 0 otherwise
        const int agg_nodes = config.aggregate ? data_nodes(fs, requests) : 0;
        const auto report = staging::staging_report(fs.run(requests, probe));
        const obs::CriticalPathReport cp =
            obs::critical_path(row_tracer.spans(), row_tracer.edges());

        if (report.perceived.makespan <= 0) ok = false;
        if (config.burst_buffer &&
            report.perceived.makespan >= report.sustained.makespan)
          ok = false;
        if (std::string(placement) == "spread") {
          spread_makespan = report.perceived.makespan;
        } else {
          // one node's absorb bandwidth serves every aggregator: perceived
          // completion cannot beat the spread placement
          if (agg_nodes != 1) {
            std::printf("MISMATCH: %d ranks clustered placement on %d nodes\n",
                        ranks, agg_nodes);
            ok = false;
          }
          if (report.perceived.makespan < spread_makespan) {
            std::printf(
                "MISMATCH: %d ranks: clustered absorbs beat spread placement\n",
                ranks);
            ok = false;
          }
        }

        table.add_row({std::to_string(ranks), config.name, placement,
                       std::to_string(agg_nodes), std::to_string(data_files),
                       std::to_string(stats.nfiles),
                       util::format_g(report.perceived.makespan, 4) + "s",
                       util::format_g(report.sustained.makespan, 4) + "s",
                       util::format_g(report.perceived_bandwidth / 1e9, 3) +
                           " GB/s",
                       util::format_g(report.sustained_bandwidth / 1e9, 3) +
                           " GB/s",
                       util::format_g(report.drain_tail, 3) + "s",
                       obs::summarize(cp)});
        csv.field(static_cast<std::int64_t>(ranks))
            .field(std::string(config.name))
            .field(std::string(placement))
            .field(static_cast<std::int64_t>(agg_nodes))
            .field(static_cast<std::int64_t>(data_files))
            .field(static_cast<std::int64_t>(stats.nfiles))
            .field(report.perceived.makespan)
            .field(report.sustained.makespan)
            .field(report.perceived_bandwidth)
            .field(report.sustained_bandwidth)
            .field(report.drain_tail)
            .field(static_cast<std::int64_t>(data_bytes))
            .field(cp.critical_stage)
            .field(cp.critical_frac)
            .field(cp.binding_resource)
            .field(bench::predicted_2x_relief(
                row_tracer,
                campaign::reference_fs_config(ranks, config.burst_buffer)));
        csv.endrow();
        ctx.row_done(row_tracer);
      }
    }
  }

  std::printf("%s", table.to_string().c_str());
  std::printf(
      "\nreading: 'agg' divides the data file count by %d at equal bytes\n"
      "(subfiling relieves the MDS); 'bb' completes dumps at absorb speed and\n"
      "hides the drain tail behind compute windows (perceived < sustained\n"
      "makespan); 'agg+bb' composes both — fewer, larger requests absorb even\n"
      "faster. 'clustered' pins every aggregator onto one staging node and\n"
      "serializes the absorbs there — placement alone moves the perceived\n"
      "makespan at identical bytes and file counts.\n",
      kAggFactor);
  std::printf(
      "shape checks (file reduction, byte conservation, bb overlap, "
      "placement): %s\n",
      ok ? "OK" : "MISMATCH");
  std::printf("csv: %s\n", csv.path().c_str());
  bench::export_obs(ctx, row_tracer);
  bench::explain_row(ctx, row_tracer,
                     campaign::reference_fs_config(rank_counts.back(), true));
  return ok ? 0 : 1;
}
