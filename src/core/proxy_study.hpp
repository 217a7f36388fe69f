#pragma once
/// \file proxy_study.hpp
/// End-to-end proxy study: translate one AMR run into a MACSio invocation
/// (Listing 1 + Eq. 3 + growth calibration), execute the proxy, and quantify
/// how well it reproduces the simulation's output workload — the comparison
/// behind the paper's Figs. 9–11.

#include "core/campaign.hpp"
#include "exec/engine.hpp"
#include "macsio/driver.hpp"
#include "model/translate.hpp"
#include "obs/probe.hpp"

namespace amrio::core {

struct ValidationResult {
  model::TranslationResult translation;
  std::vector<double> sim_per_step;    ///< AMR bytes per output event
  std::vector<double> proxy_per_step;  ///< MACSio bytes per dump
  double mean_abs_rel_err = 0.0;
  double max_abs_rel_err = 0.0;
  macsio::DumpStats proxy_stats;
  /// Populated iff the executed Params set `restart`.
  macsio::RestartStats restart_stats;
};

/// Calibrate a proxy for `run` and validate it by actually executing the
/// MACSio driver (counting backend) and comparing per-step series. The
/// default growth bracket is generous: small meshes grow faster per output
/// event than the paper's 512²+ cases, and the golden-section search just
/// converges from above when the optimum is low.
ValidationResult calibrate_and_validate(const RunRecord& run,
                                        double growth_lo = 1.0,
                                        double growth_hi = 1.15);

/// Execute a (possibly caller-edited) translation of `run` on `engine` and
/// compare its per-dump bytes with the simulation's — the validation half
/// of calibrate_and_validate. Callers compose codec/restart by editing
/// `translation.params`; both leave the byte-accuracy comparison untouched
/// by construction (bytes_per_dump stays raw; restart happens after the
/// dump loop) and add their own stats to the result instead. `probe`
/// observes the proxy run; the caller exports what it recorded.
ValidationResult validate_translation(
    const RunRecord& run, model::TranslationResult translation,
    exec::EngineKind engine = exec::EngineKind::kSerial,
    const obs::Probe& probe = {});

}  // namespace amrio::core
