#pragma once
/// \file result.hpp
/// The deterministic per-cell result record the campaign carries: byte
/// ledger, modeled timings (virtual clock only — wall-clock never enters a
/// CellResult, so cached and freshly-executed cells are indistinguishable),
/// and the obs/critical-path attribution columns.

#include <cstdint>
#include <string>

namespace amrio::campaign {

struct CellResult {
  // byte ledger (raw stays conserved; encoded is what travels/lands)
  std::uint64_t raw_bytes = 0;
  std::uint64_t encoded_bytes = 0;
  std::uint64_t total_bytes = 0;  ///< incl. metadata, raw accounting
  std::uint64_t nfiles = 0;

  // modeled timings (virtual seconds)
  double encode_seconds = 0.0;       ///< codec cpu on the write path
  double dump_seconds = 0.0;         ///< perceived makespan (SimFs replay)
  double sustained_seconds = 0.0;    ///< PFS-sustained makespan
  double perceived_bandwidth = 0.0;
  double sustained_bandwidth = 0.0;

  // critical-path attribution (obs::critical_path over the cell's spans)
  std::string critical_stage;
  double critical_frac = 0.0;
  std::string binding_resource;

  // restart read-back (zero unless Params::restart)
  double restart_seconds = 0.0;      ///< perceived restart-read makespan
  double restart_decode_gate = 0.0;  ///< slowest per-rank decode cpu
};

}  // namespace amrio::campaign
