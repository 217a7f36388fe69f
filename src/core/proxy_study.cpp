#include "core/proxy_study.hpp"

#include <cmath>
#include <utility>

#include "util/assert.hpp"

namespace amrio::core {

ValidationResult calibrate_and_validate(const RunRecord& run, double growth_lo,
                                        double growth_hi) {
  return validate_translation(
      run, model::translate(run.inputs, run.measurements(), growth_lo,
                            growth_hi));
}

ValidationResult validate_translation(const RunRecord& run,
                                      model::TranslationResult translation,
                                      exec::EngineKind engine,
                                      const obs::Probe& probe) {
  ValidationResult result;
  result.translation = std::move(translation);
  result.sim_per_step = run.total.per_step;

  // Execute the calibrated proxy for real (as the paper does on Summit) and
  // measure what it writes. The engine choice does not affect the bytes —
  // every engine runs the same driver body — so the calibration replay stays
  // valid under any of them; serial is the cheap default and event unlocks
  // machine-scale nprocs.
  macsio::Params params = result.translation.params;
  params.output_dir = "macsio_" + run.config.name;
  params.validate();
  pfs::MemoryBackend backend(/*store_contents=*/false);
  const auto proxy_engine = exec::make_engine(engine, params.nprocs);
  result.proxy_stats =
      macsio::run_macsio(*proxy_engine, params, backend, probe);
  for (auto b : result.proxy_stats.bytes_per_dump)
    result.proxy_per_step.push_back(static_cast<double>(b));
  if (params.restart)
    result.restart_stats =
        macsio::run_restart(*proxy_engine, params, backend, probe);

  AMRIO_EXPECTS(result.proxy_per_step.size() == result.sim_per_step.size());
  double acc = 0.0;
  double worst = 0.0;
  for (std::size_t i = 0; i < result.sim_per_step.size(); ++i) {
    const double rel = std::abs(result.proxy_per_step[i] - result.sim_per_step[i]) /
                       result.sim_per_step[i];
    acc += rel;
    worst = std::max(worst, rel);
  }
  result.mean_abs_rel_err = acc / static_cast<double>(result.sim_per_step.size());
  result.max_abs_rel_err = worst;
  return result;
}

}  // namespace amrio::core
