/// Micro: pinned end-to-end pipeline baseline. Runs a fixed 32-rank, 3-dump
/// grid — staging {direct, agg, bb} × codec {identity, ebl@1e-4} — through
/// the driver and the reference PFS/BB model, and writes the result to
///   BENCH_pipeline.json
/// (perceived/sustained makespan, perceived bandwidth, and the per-stage
/// critical-path split per cell). Everything in the grid is virtual-time and
/// deterministic, so the file is a *perf baseline*: any diff against a
/// previous run is a real behaviour change in the pipeline model, not noise.
/// CI uploads it as an artifact; compare across commits to catch regressions.
///
/// The grid is pinned on purpose: --full and --scale do not change it.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "campaign/executor.hpp"
#include "exec/engine.hpp"
#include "macsio/driver.hpp"
#include "obs/critical_path.hpp"
#include "pfs/backend.hpp"
#include "pfs/simfs.hpp"
#include "staging/drain.hpp"
#include "util/format.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace {

struct Mode {
  const char* name;
  bool aggregate;
  bool burst_buffer;
};

struct CodecPoint {
  const char* label;
  const char* codec;
  double error_bound;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace amrio;
  const auto ctx = bench::parse_bench_args(
      argc, argv, "micro_pipeline_baseline",
      "pinned staging × codec grid: the BENCH_pipeline.json perf baseline");
  bench::banner("Micro — pipeline baseline (pinned 32-rank grid)",
                "perf baseline artifact: BENCH_pipeline.json");

  constexpr int kRanks = 32;
  constexpr int kAggregators = 8;
  constexpr double kCodecThroughput = 0.25e9;

  const Mode modes[] = {{"direct", false, false},
                        {"agg", true, false},
                        {"bb", false, true}};
  const CodecPoint codecs[] = {{"identity", "identity", 0.0},
                               {"ebl@1e-4", "ebl", 1e-4}};

  util::TextTable table({"mode", "codec", "perceived mkspn", "sustained mkspn",
                         "perceived BW", "critical path"});

  const std::string json_path = bench::csv_path(ctx, "BENCH_pipeline.json");
  std::ofstream out(json_path);
  util::JsonWriter w(out, /*pretty=*/true);
  w.begin_object();
  w.key("bench").value("micro_pipeline_baseline");
  w.key("ranks").value(static_cast<std::int64_t>(kRanks));
  w.key("rows").begin_array();

  bool ok = true;
  obs::Tracer row_tracer;
  for (const Mode& mode : modes) {
    for (const CodecPoint& point : codecs) {
      macsio::Params params;
      params.nprocs = kRanks;
      params.num_dumps = 3;
      params.part_size = 1 << 22;  // 4 MiB/task/dump
      params.avg_num_parts = 1.0;
      params.compute_time = 0.0;
      params.dataset_growth = 1.02;
      params.aggregators = mode.aggregate ? kAggregators : 0;
      params.stage_to_bb = mode.burst_buffer;
      params.codec = point.codec;
      if (point.error_bound > 0) params.codec_error_bound = point.error_bound;
      params.codec_throughput = kCodecThroughput;

      pfs::MemoryBackend backend(false);
      const auto engine = ctx.make_engine(params.nprocs);
      row_tracer = obs::Tracer();
      const obs::Probe probe = ctx.probe(row_tracer);
      const auto stats =
          macsio::run_macsio(*engine, params, backend, probe);

      pfs::SimFs fs(campaign::reference_fs_config(kRanks, mode.burst_buffer));
      const auto report =
          staging::staging_report(fs.run(stats.requests, probe));
      const obs::CriticalPathReport cp =
          obs::critical_path(row_tracer.spans(), row_tracer.edges());
      if (report.perceived.makespan <= 0 || cp.makespan <= 0) ok = false;

      table.add_row({mode.name, point.label,
                     util::format_g(report.perceived.makespan, 4) + "s",
                     util::format_g(report.sustained.makespan, 4) + "s",
                     util::format_g(report.perceived_bandwidth / 1e9, 3) +
                         " GB/s",
                     obs::summarize(cp)});

      w.begin_object();
      w.key("mode").value(mode.name);
      w.key("codec").value(point.label);
      w.key("perceived_makespan").value(report.perceived.makespan);
      w.key("sustained_makespan").value(report.sustained.makespan);
      w.key("perceived_bw").value(report.perceived_bandwidth);
      w.key("sustained_bw").value(report.sustained_bandwidth);
      w.key("critical_path").begin_object();
      w.key("makespan").value(cp.makespan);
      w.key("critical_stage").value(cp.critical_stage);
      w.key("critical_frac").value(cp.critical_frac);
      w.key("binding_resource").value(cp.binding_resource);
      w.key("stages").begin_array();
      for (const obs::StageShare& s : cp.stages) {
        w.begin_object();
        w.key("stage").value(s.stage);
        w.key("seconds").value(s.seconds);
        w.key("frac").value(s.frac);
        w.end_object();
      }
      w.end_array();
      w.end_object();
      w.end_object();
      ctx.row_done(row_tracer);
    }
  }
  w.end_array();
  w.end_object();
  out << '\n';
  out.close();

  std::printf("%s", table.to_string().c_str());
  std::printf(
      "\nreading: every number above is virtual-time and deterministic — a\n"
      "diff in BENCH_pipeline.json against a previous commit is a real\n"
      "pipeline-model behaviour change, not measurement noise.\n");
  std::printf("shape checks (positive makespans): %s\n",
              ok ? "OK" : "MISMATCH");
  std::printf("JSON: %s\n", json_path.c_str());
  bench::export_obs(ctx, row_tracer);
  return ok ? 0 : 1;
}
