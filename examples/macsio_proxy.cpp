/// \file macsio_proxy.cpp
/// The MACSio-compatible proxy I/O executable — accepts the paper's Table II
/// argument set (Listing-1 invocations work verbatim, minus jsrun) and runs
/// the dump loop over virtual ranks. --engine picks the execution substrate:
/// serial (default: the cooperative scheduler with one stack per rank),
/// spmd (one OS thread per rank), or event (the same cooperative scheduler
/// on one shared stack; it handles 100k+ virtual ranks).
///
///   macsio_proxy --interface miftmpl --parallel_file_mode MIF 8
///     --num_dumps 20 --part_size 1550000 --avg_num_parts 1
///     --vars_per_part 1 --compute_time 0.5 --meta_size 0
///     --dataset_growth 1.013075 --nprocs 8 --out macsio_run
///
/// (one command line, wrapped here).
///
/// Every flag — the Params table, the run flags shared with the benches, and
/// the proxy's own observability/campaign extras — is declared in one
/// util::ArgParser, and `--help` prints it (docs/KNOBS.md adds validation
/// rules). Bad input prints one `macsio_proxy: <message>` line, exit 2.

#include <algorithm>
#include <cstdio>

#include "campaign/predict.hpp"
#include "campaign/report.hpp"
#include "campaign/executor.hpp"
#include "core/run_flags.hpp"
#include "exec/engine.hpp"
#include "macsio/driver.hpp"
#include "obs/critical_path.hpp"
#include "obs/export.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/selfprof.hpp"
#include "obs/span.hpp"
#include "obs/stream.hpp"
#include "obs/whatif.hpp"
#include "pfs/timeline.hpp"
#include "staging/aggregator.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace amrio;
  util::ArgParser cli("macsio_proxy",
                      "MACSio-compatible proxy I/O application: the paper's "
                      "Table II argv over virtual ranks.");
  macsio::Params::declare_cli(cli);
  core::declare_run_flags(cli);
  cli.add_flag("disk", "write real files through the POSIX backend");
  cli.add_option("out", "disk root for --disk", 1, std::string("macsio_run"));
  cli.add_option("trace_sample",
                 "with --trace_out: stream the trace in bounded memory, "
                 "keeping N evenly spaced ranks (plus driver and aggregators) "
                 "and folding the rest into per-stage envelope spans",
                 1, std::string("0"));
  cli.add_flag("critical_path", "print the critical-path summary");
  cli.add_flag("no_approx_critical_path",
               "exit 3 rather than report an envelope approximation under "
               "--trace_sample");
  cli.add_option("util_out", "per-resource utilization ledger JSON", 1,
                 std::string(""));
  cli.add_option("prof_out", "host wall-clock self-profile JSON of the engine",
                 1, std::string(""));
  cli.add_flag("campaign", "sweep the codec axis on the campaign executor");
  cli.add_option("campaign_csv", "canonical campaign CSV (implies --campaign)",
                 1, std::string(""));
  cli.add_option("predict",
                 "answer the what-if at N never-simulated ranks from the "
                 "campaign fit (implies --campaign)");
  cli.add_flag("help", "show usage");

  macsio::Params params;
  core::RunFlags run;
  int trace_sample = 0;
  int predict_ranks = 0;
  try {
    cli.parse(argc, argv);
    if (cli.flag("help")) {
      std::printf("%s", cli.usage().c_str());
      return 0;
    }
    params = macsio::Params::from_parsed(cli);
    run = core::read_run_flags(cli);
    trace_sample = cli.get_int<int>("trace_sample");
    if (trace_sample < 0)
      throw std::invalid_argument("--trace_sample: must be >= 0, got " +
                                  cli.get("trace_sample"));
    predict_ranks = cli.get_int_or<int>("predict", 0);
    if (cli.has("predict") && predict_ranks < 1)
      throw std::invalid_argument("--predict: needs a rank count >= 1, got " +
                                  cli.get("predict"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "macsio_proxy: %s\n", e.what());
    return 2;
  }
  const std::string util_out = cli.get("util_out");
  const std::string prof_out = cli.get("prof_out");
  const std::string campaign_csv = cli.get("campaign_csv");
  const bool campaign_mode =
      cli.flag("campaign") || !campaign_csv.empty() || predict_ranks > 0;
  if (trace_sample > 0 && run.trace_out.empty()) {
    std::fprintf(stderr,
                 "macsio_proxy: --trace_sample only affects --trace_out; "
                 "ignoring it\n");
    trace_sample = 0;
  }

  std::printf("invocation: %s\n", params.to_command_line().c_str());

  if (campaign_mode) {
    // Sweep the configured workload over the codec axis on the campaign
    // executor, which dedupes repeated configurations and honors
    // --jobs/--cache. When predicting we also run 2x/4x rank scalings so each
    // stratum holds enough points for a fit.
    std::vector<int> rank_points = {params.nprocs};
    if (predict_ranks > 0) {
      rank_points.push_back(params.nprocs * 2);
      rank_points.push_back(params.nprocs * 4);
    }
    const char* const codecs[] = {"identity", "lossless", "ebl"};
    std::vector<campaign::CellConfig> cells;
    for (const int ranks : rank_points) {
      for (int i = 0; i < 3; ++i) {
        campaign::CellConfig cell;
        cell.name = "study/" + std::to_string(i) + "/" +
                    exec::engine_kind_name(run.engine) + "/" + codecs[i] +
                    "/r" + std::to_string(ranks);
        cell.params = params;
        cell.params.nprocs = ranks;
        cell.params.codec = codecs[i];
        if (i < 2) {
          // identity and lossless ignore the bounds: run them with the
          // defaults so they share a cache slot whatever the command line set
          cell.params.codec_error_bound = 1.0e-3;
          cell.params.codec_var_bounds.clear();
        } else if (!(params.codec_error_bound > 0)) {
          cell.params.codec_error_bound = 1.0e-3;  // ebl needs a bound
        }
        cell.engine = run.engine;
        cells.push_back(std::move(cell));
      }
    }
    std::vector<campaign::CellOutcome> outcomes;
    campaign::ExecutorStats stats;
    try {
      campaign::CampaignExecutor executor({run.jobs, run.cache_path});
      outcomes = executor.run(cells);
      stats = executor.stats();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "macsio_proxy: %s\n", e.what());
      return 2;
    }
    std::printf("campaign: %llu cells, %d worker(s): %llu executed, "
                "%llu cache hits\n",
                static_cast<unsigned long long>(stats.cells), run.jobs,
                static_cast<unsigned long long>(stats.executed),
                static_cast<unsigned long long>(stats.cache_hits));
    util::TextTable table(
        {"cell", "encoded", "dump s", "critical stage", "binding"});
    for (const auto& o : outcomes)
      table.add_row({o.name, util::human_bytes(o.result.encoded_bytes),
                     util::format_g(o.result.dump_seconds, 4),
                     o.result.critical_stage, o.result.binding_resource});
    std::printf("%s", table.to_string().c_str());
    if (!campaign_csv.empty()) {
      util::CsvWriter csv(campaign_csv);
      campaign::write_csv(csv, cells, outcomes);
      std::printf("csv: %s\n", csv.path().c_str());
    }
    if (predict_ranks > 0) {
      campaign::PredictService predict;
      predict.fit(cells, outcomes);
      campaign::CellConfig query = cells.front();
      query.name = "whatif/r" + std::to_string(predict_ranks);
      query.params.nprocs = predict_ranks;
      const auto answer = predict.predict(query);
      std::printf("%s\n", predict.report().c_str());
      std::printf("what-if %s (never simulated): dump %.6fs%s, "
                  "%llu encoded bytes (stratum %s)\n",
                  query.name.c_str(), answer.dump_seconds,
                  answer.restart_seconds > 0
                      ? (", restart " + util::format_g(answer.restart_seconds, 6) + "s").c_str()
                      : "",
                  static_cast<unsigned long long>(answer.encoded_bytes),
                  answer.exact_stratum ? answer.stratum.c_str() : "global");
    }
    return 0;
  }

  std::unique_ptr<pfs::StorageBackend> backend;
  if (cli.flag("disk"))
    backend = std::make_unique<pfs::PosixBackend>(cli.get("out"));
  else backend = std::make_unique<pfs::MemoryBackend>(false);

  const bool sampling = trace_sample > 0;
  const bool observe = !run.trace_out.empty() || !run.metrics_out.empty() ||
                       !util_out.empty() || cli.flag("critical_path") ||
                       run.explain;
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  obs::ResourceLedger ledger;
  std::unique_ptr<obs::TraceStream> stream;
  if (sampling) {
    obs::TraceStream::Options opt;
    opt.path = run.trace_out;
    opt.sample.nranks = params.nprocs;
    opt.sample.sample = trace_sample;
    if (params.aggregators > 0) {
      // Aggregator ranks carry the ship/encode gates; always keep them.
      const auto topo =
          staging::AggTopology::make(params.nprocs, params.aggregators);
      for (int g = 0; g < topo.ngroups(); ++g)
        opt.sample.keep_extra.push_back(topo.aggregator_of_group(g));
    }
    stream = std::make_unique<obs::TraceStream>(std::move(opt));
  }
  obs::Probe probe;
  if (observe) {
    probe.tracer = sampling ? static_cast<obs::SpanSink*>(stream.get())
                            : static_cast<obs::SpanSink*>(&tracer);
    probe.metrics = &metrics;
    // --explain needs the utilization ledger for its per-group rows.
    if (!util_out.empty() || run.explain) probe.ledger = &ledger;
  }
  obs::SelfProfiler prof;
  obs::SelfProfiler* prof_ptr = prof_out.empty() ? nullptr : &prof;

  std::unique_ptr<exec::Engine> engine;
  try {
    engine = exec::make_engine(run.engine, params.nprocs);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "macsio_proxy: %s\n", e.what());
    return 2;
  }
  if (prof_ptr != nullptr) engine->set_profiler(prof_ptr);
  std::printf("running %d ranks on the %s engine...\n", params.nprocs,
              engine->name());
  macsio::DumpStats stats;
  {
    obs::SelfProfiler::ScopedPhase ph(prof_ptr, "proxy.dump");
    stats = macsio::run_macsio(*engine, params, *backend, probe);
  }

  util::TextTable table({"dump", "bytes", "max task bytes", "min task bytes"});
  for (std::size_t d = 0; d < stats.bytes_per_dump.size(); ++d) {
    const auto& tb = stats.task_bytes[d];
    table.add_row(
        {std::to_string(d), util::human_bytes(stats.bytes_per_dump[d]),
         util::human_bytes(*std::max_element(tb.begin(), tb.end())),
         util::human_bytes(*std::min_element(tb.begin(), tb.end()))});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("total %s across %llu files\n",
              util::human_bytes(stats.total_bytes).c_str(),
              static_cast<unsigned long long>(stats.nfiles));
  if (params.codec_spec().enabled()) {
    std::printf("codec %s: %s raw -> %s on the wire/tier (%.2fx), "
                "%.3fs encode cpu\n",
                params.codec.c_str(),
                util::human_bytes(stats.codec.total.raw_bytes).c_str(),
                util::human_bytes(stats.codec.total.encoded_bytes).c_str(),
                stats.codec.total.ratio(), stats.codec.total.encode_seconds);
  }

  // Reference PFS/BB model for the observability replay: timed alongside
  // each driver phase so the trace holds every stage — the driver spans
  // recorded above (encode/ship/scatter/decode and the dump/restart phases)
  // plus the replay's pfs_write/bb_absorb/bb_drain/bb_prefetch/bb_read
  // spans — and so the dump and restart timelines land in separate ledger
  // epochs (each is an independent virtual clock starting at zero).
  pfs::SimFsConfig obs_cfg;
  obs_cfg.bb.enabled = params.stage_to_bb || params.restart_from_bb;
  if (obs_cfg.bb.enabled) {
    obs_cfg.bb.ranks_per_node = 16;
    obs_cfg.bb.nodes = params.nprocs / 16 > 1 ? params.nprocs / 16 : 1;
  }
  pfs::SimFs obs_fs(obs_cfg);
  if (observe) {
    obs::SelfProfiler::ScopedPhase ph(prof_ptr, "proxy.pfs_replay");
    obs_fs.run(stats.requests, probe);
  }

  macsio::RestartStats restart;
  if (params.restart) {
    ledger.begin_epoch();  // the restart is a fresh virtual timeline
    obs::SelfProfiler::ScopedPhase ph(prof_ptr, "proxy.restart");
    restart = macsio::run_restart(*engine, params, *backend, probe);
    std::printf(
        "restart (dump %d, %s): %s decoded image, %s fetched off the %s, "
        "decode gate %.3gs, scatter %.3gs\n",
        restart.dump, params.restart_from_bb ? "prefetched bb" : "cold pfs",
        util::human_bytes(restart.raw_bytes).c_str(),
        util::human_bytes(restart.encoded_bytes).c_str(),
        params.restart_from_bb ? "bb tier" : "pfs",
        restart.decode_gate, restart.scatter_seconds);
    if (observe) {
      obs::SelfProfiler::ScopedPhase ph2(prof_ptr, "proxy.pfs_replay");
      obs_fs.run(restart.requests, probe);
    }
  }

  // burst view of the request stream (compute_time spacing)
  if (params.compute_time > 0) {
    pfs::SimFsConfig cfg;
    pfs::SimFs fs(cfg);
    const auto burst = pfs::burst_stats(fs.run(stats.requests));
    std::printf("burstiness on the reference PFS model: duty cycle %.1f%%, "
                "peak %.2f GB/s\n",
                100 * burst.duty_cycle, burst.peak_bandwidth / 1e9);
  }

  if (observe) {
    // The streaming sampled path never holds every span, but it aggregates
    // all of them (kept or dropped) into per-stage envelope spans — enough
    // for an approximate critical path and explain report. Snapshot them
    // before finish() closes the stream.
    std::vector<obs::Span> envelopes;
    if (sampling) envelopes = stream->envelope_spans();
    if (sampling && cli.flag("no_approx_critical_path")) {
      // The approximation is refused: an error when a path or an explain
      // report was asked for, otherwise the summary line is left out.
      if (cli.flag("critical_path") || run.explain) {
        std::fprintf(stderr,
                     "macsio_proxy: critical path under --trace_sample uses "
                     "the per-stage envelope approximation; drop "
                     "--no_approx_critical_path to accept it, or drop "
                     "--trace_sample for the exact span-level path\n");
        return 3;
      }
    } else if (sampling) {
      const obs::CriticalPathReport cp = obs::critical_path(envelopes, {});
      std::printf("critical path (approximate: per-stage envelopes over all "
                  "%d ranks) over %.4gs of virtual time: %s\n",
                  params.nprocs, cp.makespan, obs::summarize(cp).c_str());
    } else {
      const obs::CriticalPathReport cp =
          obs::critical_path(tracer.spans(), tracer.edges());
      std::printf("critical path over %.4gs of virtual time: %s\n",
                  cp.makespan, obs::summarize(cp).c_str());
    }
    if (!run.trace_out.empty()) {
      if (sampling) {
        stream->finish();
        std::printf("trace: %s (sampled %d of %d ranks: kept %llu of %llu "
                    "spans, peak %zu buffered)\n",
                    run.trace_out.c_str(), trace_sample, params.nprocs,
                    static_cast<unsigned long long>(stream->spans_kept()),
                    static_cast<unsigned long long>(stream->spans_recorded()),
                    stream->peak_buffered_spans());
      } else {
        obs::export_trace(run.trace_out, tracer);
        std::printf("trace: %s\n", run.trace_out.c_str());
      }
    }
    if (!run.metrics_out.empty()) {
      obs::export_metrics(run.metrics_out, metrics.snapshot());
      std::printf("metrics: %s\n", run.metrics_out.c_str());
    }
    if (!util_out.empty()) {
      const obs::UtilizationReport rep = ledger.report();
      std::printf("%s", obs::utilization_table(rep).c_str());
      std::printf("bottlenecks: %s\n", rep.top_summary().c_str());
      obs::export_utilization(util_out, rep);
      std::printf("utilization: %s\n", util_out.c_str());
    }
    if (run.explain) {
      // Relief scenarios are computed against the same rates the replay
      // used, so "2x ost" in the report means doubling obs_cfg's knob.
      const obs::ReliefKnobs knobs = pfs::relief_knobs(obs_cfg);
      const obs::ExplainReport rep =
          sampling ? obs::explain(envelopes, {}, ledger.report(), knobs)
                   : obs::explain(tracer.spans(), tracer.edges(),
                                  ledger.report(), knobs);
      if (sampling)
        std::printf("explain (approximate: per-stage envelopes — span-level "
                    "slack and service tags need an unsampled trace):\n");
      std::printf("%s", obs::explain_table(rep).c_str());
      if (!run.explain_out.empty()) {
        obs::export_explain(run.explain_out, rep);
        std::printf("explain: %s\n", run.explain_out.c_str());
      }
    }
  }
  if (prof_ptr != nullptr) {
    obs::export_selfprof(prof_out, prof.snapshot());
    std::printf("self-profile: %s\n", prof_out.c_str());
  }
  return 0;
}
