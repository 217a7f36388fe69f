#pragma once
/// \file cell.hpp
/// One campaign cell: a named {macsio::Params, engine} pair — a single point
/// of the Table III sweep {interface × file mode × codec × staging × engine ×
/// ranks}, plus everything else Params carries. `canonical_key` renders the
/// *full* configuration into a schema-versioned string: the result-cache
/// key. Completeness is load-bearing (a missed field = stale cache hits when
/// that knob is swept), so the key covers every field and
/// tests/test_campaign.cpp walks each one asserting the key moves. When a
/// field lands in Params, extend `canonical_key` AND the property test AND
/// bump the sizeof tripwire.

#include <string>

#include "exec/engine.hpp"
#include "macsio/params.hpp"

namespace amrio::campaign {

/// Cache-key schema version. Bump when the key format changes, a knob is
/// added, or any model underneath (driver, SimFs, codec, staging) changes
/// results for an unchanged configuration — persisted caches from other
/// versions are then ignored rather than served stale.
inline constexpr int kCacheSchemaVersion = 1;

struct CellConfig {
  /// Display label for tables/CSV; deliberately NOT part of the cache key —
  /// two differently-named cells with the same configuration share a result.
  std::string name;
  macsio::Params params;
  /// Execution engine for the proxy run. Every engine writes the same bytes;
  /// the key still carries it so per-engine rows never share a slot.
  exec::EngineKind engine = exec::EngineKind::kSerial;
};

/// The canonicalized configuration string: "amrio-campaign-v<schema>|" then
/// every field of `params` as `name=value`, doubles in %.17g (round-trip
/// exact), in struct declaration order, then the v1 `study_*` tail. Pure
/// function of the configuration — identical across processes, runs, and
/// --jobs values.
std::string canonical_key(const CellConfig& cell);

}  // namespace amrio::campaign
