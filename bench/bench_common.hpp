#pragma once
/// \file bench_common.hpp
/// Shared plumbing for the figure/table reproduction benches: output
/// directory handling, CSV emission, and the `--full` switch that moves a
/// bench from laptop scale toward paper scale.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/executor.hpp"
#include "campaign/report.hpp"
#include "core/run_flags.hpp"
#include "exec/engine.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "obs/span.hpp"
#include "obs/whatif.hpp"
#include "pfs/simfs.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/format.hpp"
#include "util/path.hpp"

namespace amrio::bench {

/// The shared run flags (core::RunFlags: --engine, --trace_out,
/// --metrics_out, --explain/--explain_out, --jobs, --cache) plus the
/// bench-only knobs. A bench trace covers one study row at a time (so each
/// row's critical path is clean); by default the *last* row's trace is
/// written to --trace_out. A `%d` in the path turns it into a per-row
/// template (`trace_%d.json` → trace_0.json, trace_1.json, ...), and
/// --trace_row K writes exactly row K (0-based) instead of the last. The
/// --explain report likewise covers the last study row.
struct BenchContext : core::RunFlags {
  bool full = false;       ///< --full: run closer to paper scale
  double scale = 0.0;      ///< explicit --scale overrides presets
  std::string out_dir = "bench_results";
  /// --trace_row: which 0-based study row --trace_out captures (-1 = the
  /// default last-row behavior). Ignored when --trace_out has a %d template.
  int trace_row = -1;
  /// --predict: fit campaign::PredictService over the executed cells and
  /// print a held-out what-if answer with its calibration error.
  bool predict = false;
  /// Shared registry behind probe(); counters accumulate across rows.
  std::shared_ptr<obs::MetricsRegistry> metrics =
      std::make_shared<obs::MetricsRegistry>();

  double pick_scale(double dflt, double full_scale) const {
    if (scale > 0.0) return scale;
    return full ? full_scale : dflt;
  }

  std::unique_ptr<exec::Engine> make_engine(int nranks) const {
    return exec::make_engine(engine, nranks);
  }

  /// Probe for one study row: the caller owns the row's tracer (fresh per
  /// row, so its spans form exactly one critical path), the context owns the
  /// accumulating metrics registry.
  obs::Probe probe(obs::Tracer& row_tracer) const {
    obs::Probe p;
    p.tracer = &row_tracer;
    p.metrics = metrics.get();
    return p;
  }

  /// True when --trace_out is written per row by row_done() — a %d template
  /// or an explicit --trace_row — rather than last-row-wins by export_obs().
  bool per_row_trace() const {
    return !trace_out.empty() &&
           (trace_out.find("%d") != std::string::npos || trace_row >= 0);
  }

  /// --trace_out with its %d marker (if any) replaced by `row`.
  std::string row_trace_path(int row) const {
    std::string p = trace_out;
    const auto pos = p.find("%d");
    if (pos != std::string::npos) p.replace(pos, 2, std::to_string(row));
    return p;
  }

  /// Benches call this once per completed study row, passing the row's
  /// tracer. Handles per-row trace selection: with a %d template every row
  /// is written to its own file; with --trace_row K only row K is written.
  /// Without either this is a counter bump and export_obs() keeps the
  /// historical default (the last row's tracer, passed by the bench).
  void row_done(const obs::Tracer& row_tracer) const {
    const int row = row_index_++;
    if (trace_out.empty()) return;
    const bool tmpl = trace_out.find("%d") != std::string::npos;
    if (tmpl) {
      const std::string path = row_trace_path(row);
      obs::export_trace(path, row_tracer);
      std::printf("trace: %s (row %d)\n", path.c_str(), row);
    } else if (trace_row >= 0 && row == trace_row) {
      obs::export_trace(trace_out, row_tracer);
      std::printf("trace: %s (row %d)\n", trace_out.c_str(), row);
    }
  }

 private:
  mutable int row_index_ = 0;  ///< rows completed; advanced by row_done()
};

/// Parse a bench's argv. Bad input (unknown flag, malformed or out-of-range
/// value, stray positional token) prints `<name>: <message>` on stderr and
/// exits 2.
inline BenchContext parse_bench_args(int argc, char** argv,
                                     const std::string& name,
                                     const std::string& what) {
  util::ArgParser cli(name, what);
  cli.add_flag("full", "run closer to paper scale (slower)");
  cli.add_option("scale", "explicit mesh scale in (0,1]", 1);
  cli.add_option("out", "output directory for CSV", 1,
                 std::string("bench_results"));
  core::declare_run_flags(cli);
  cli.add_option("trace_row",
                 "0-based study row --trace_out captures (default: last)", 1,
                 std::string("-1"));
  cli.add_flag("predict",
               "fit the campaign predict service and answer a held-out "
               "what-if query (campaign benches)");
  cli.add_flag("help", "show usage");
  BenchContext ctx;
  try {
    cli.parse(argc, argv);
    if (cli.flag("help")) {
      std::printf("%s", cli.usage().c_str());
      std::exit(0);
    }
    if (!cli.positional().empty())
      throw std::invalid_argument("unexpected argument '" +
                                  cli.positional().front() + "'");
    static_cast<core::RunFlags&>(ctx) = core::read_run_flags(cli);
    ctx.full = cli.flag("full");
    ctx.scale = cli.get_double_or("scale", 0.0);
    if (cli.has("scale") && !(ctx.scale > 0.0 && ctx.scale <= 1.0))
      throw std::invalid_argument("--scale: must be in (0,1], got " +
                                  cli.get("scale"));
    ctx.out_dir = cli.get("out");
    ctx.trace_row = cli.get_int<int>("trace_row");
    ctx.predict = cli.flag("predict");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", name.c_str(), e.what());
    std::exit(2);
  }
  if (ctx.scale == 0.0) {
    if (const char* env = std::getenv("AMRIO_SCALE")) {
      const double v = std::atof(env);
      if (v > 0.0 && v <= 1.0) ctx.scale = v;
    }
  }
  util::make_dirs(ctx.out_dir);
  return ctx;
}

/// Write the observability artifacts requested on the command line:
/// `tracer` (the final study row's — the documented --trace_out default) to
/// --trace_out and the context's accumulated metrics to --metrics_out.
/// When row_done() already wrote the trace (a %d template or --trace_row),
/// only the metrics are written here. No-op for unset paths.
inline void export_obs(const BenchContext& ctx, const obs::Tracer& tracer) {
  if (!ctx.trace_out.empty() && !ctx.per_row_trace()) {
    obs::export_trace(ctx.trace_out, tracer);
    std::printf("trace: %s\n", ctx.trace_out.c_str());
  }
  if (!ctx.metrics_out.empty()) {
    obs::export_metrics(ctx.metrics_out, ctx.metrics->snapshot());
    std::printf("metrics: %s\n", ctx.metrics_out.c_str());
  }
}

inline std::string csv_path(const BenchContext& ctx, const std::string& name) {
  return util::path_join(ctx.out_dir, name);
}

/// The relief knobs matching one SimFs configuration — the rates the
/// standard what-if scenarios need to compute effective service scales.
inline obs::ReliefKnobs relief_knobs(const pfs::SimFsConfig& cfg) {
  obs::ReliefKnobs knobs;
  knobs.ost_bandwidth = cfg.ost_bandwidth;
  knobs.client_bandwidth = cfg.client_bandwidth;
  knobs.drain_bandwidth = cfg.bb.drain_bandwidth;
  return knobs;
}

/// The `predicted_2x_relief` study column: the best single-resource 2x
/// what-if over one row's spans, as "resource:seconds" (e.g. "ost:1.234").
/// "none" when no relief moves the makespan (untagged or empty trace).
inline std::string predicted_2x_relief(const obs::Tracer& row_tracer,
                                       const pfs::SimFsConfig& cfg) {
  const auto spans = row_tracer.spans();
  const auto edges = row_tracer.edges();
  std::string best = "none";
  double best_makespan = 0.0;
  double baseline = 0.0;
  for (const obs::Scenario& sc :
       obs::standard_scenarios(2.0, relief_knobs(cfg))) {
    const obs::WhatIfResult r = obs::what_if(spans, edges, sc);
    baseline = r.baseline_makespan;
    if (best == "none" || r.predicted_makespan < best_makespan) {
      best_makespan = r.predicted_makespan;
      best = sc.resource;
    }
  }
  if (best == "none" || best_makespan >= baseline - 1e-12) return "none";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s:%.6f", best.c_str(), best_makespan);
  return buf;
}

/// --explain / --explain_out for one study row (benches pass the last row,
/// mirroring the --trace_out default). Benches run no utilization ledger,
/// so the report's utilization column stays zero; the what-if predictions
/// and shadow prices are the payload.
inline void explain_row(const BenchContext& ctx, const obs::Tracer& row_tracer,
                        const pfs::SimFsConfig& cfg) {
  if (!ctx.explain) return;
  const obs::ExplainReport rep =
      obs::explain(row_tracer.spans(), row_tracer.edges(),
                   obs::UtilizationReport{}, relief_knobs(cfg));
  std::printf("%s", obs::explain_table(rep).c_str());
  if (!ctx.explain_out.empty()) {
    obs::export_explain(ctx.explain_out, rep);
    std::printf("explain: %s\n", ctx.explain_out.c_str());
  }
}

/// Reference PFS + burst-buffer model shared by the staging and codec
/// extension studies — delegates to the campaign layer's single definition
/// so bench CSVs and campaign results stay cross-comparable.
inline pfs::SimFsConfig study_fs_config(int ranks, bool burst_buffer) {
  return campaign::reference_fs_config(ranks, burst_buffer);
}

/// The deterministic-row helper for all campaign output: write the
/// canonical campaign CSV (rows sorted by cell name, virtual-clock columns
/// only — never wall-clock, never cache-hit bits) and return its path.
/// Every bench that emits campaign rows goes through this, so
/// tools/bench_diff.py-style artifact diffs stay clean by construction.
inline std::string campaign_csv(const BenchContext& ctx,
                                const std::string& name,
                                const std::vector<campaign::CellConfig>& cells,
                                const std::vector<campaign::CellOutcome>& outcomes) {
  util::CsvWriter csv(csv_path(ctx, name));
  campaign::write_csv(csv, cells, outcomes);
  return csv.path();
}

inline void banner(const std::string& title, const std::string& paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("==============================================================\n");
}

}  // namespace amrio::bench
