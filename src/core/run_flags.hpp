#pragma once
/// \file run_flags.hpp
/// The flags every executable that runs the proxy shares — `macsio_proxy`
/// and each bench through bench/bench_common.hpp — declared, read and
/// validated in one place so the two surfaces cannot drift apart.

#include <string>

#include "exec/engine.hpp"
#include "util/cli.hpp"

namespace amrio::core {

struct RunFlags {
  /// --engine: serial | spmd | event. Engine choice never changes bytes;
  /// event unlocks machine-scale rank counts.
  exec::EngineKind engine = exec::EngineKind::kSerial;
  std::string trace_out;    ///< --trace_out: Chrome-trace/Perfetto JSON
  /// --metrics_out: metrics snapshot (".csv" suffix = flat CSV, else JSON).
  std::string metrics_out;
  /// --explain: print the predictive bottleneck report (what-if makespans
  /// at 1.5x/2x relief, shadow prices); also set by --explain_out.
  bool explain = false;
  std::string explain_out;  ///< --explain_out: that report as JSON
  int jobs = 1;             ///< --jobs: campaign workers (1 = inline)
  /// --cache: campaign JSON result cache — loaded before the run, saved
  /// after, so a re-run in a later process hits warm.
  std::string cache_path;
};

/// Add --engine, --trace_out, --metrics_out, --explain, --explain_out,
/// --jobs and --cache to `cli`.
void declare_run_flags(util::ArgParser& cli);
/// Read them back from a parsed `cli`; throws std::invalid_argument naming
/// the flag on a bad value (unknown engine, --jobs < 1).
RunFlags read_run_flags(const util::ArgParser& cli);

}  // namespace amrio::core
