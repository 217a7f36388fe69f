#include "core/run_flags.hpp"

#include <stdexcept>

namespace amrio::core {

void declare_run_flags(util::ArgParser& cli) {
  cli.add_option("engine", "execution engine: serial | spmd | event", 1,
                 std::string("serial"));
  cli.add_option("trace_out",
                 "Chrome-trace JSON of the virtual-time spans (benches: last "
                 "study row; %d in the path = one file per row)",
                 1, std::string(""));
  cli.add_option("metrics_out", "metrics snapshot (JSON, or CSV by suffix)", 1,
                 std::string(""));
  cli.add_flag("explain",
               "print the predictive bottleneck report (what-if makespans at "
               "1.5x/2x relief, shadow prices)");
  cli.add_option("explain_out",
                 "write the explain report as JSON (implies --explain)", 1,
                 std::string(""));
  cli.add_option("jobs", "campaign worker threads (1 = inline)", 1,
                 std::string("1"));
  cli.add_option("cache", "campaign JSON result-cache path", 1,
                 std::string(""));
}

RunFlags read_run_flags(const util::ArgParser& cli) {
  RunFlags f;
  try {
    f.engine = exec::engine_kind_from_name(cli.get("engine"));
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("--engine: " + std::string(e.what()));
  }
  f.trace_out = cli.get("trace_out");
  f.metrics_out = cli.get("metrics_out");
  f.explain_out = cli.get("explain_out");
  f.explain = cli.flag("explain") || !f.explain_out.empty();
  f.jobs = cli.get_int<int>("jobs");
  if (f.jobs < 1)
    throw std::invalid_argument("--jobs: must be >= 1, got " +
                                std::to_string(f.jobs));
  f.cache_path = cli.get("cache");
  return f;
}

}  // namespace amrio::core
