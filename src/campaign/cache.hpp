#pragma once
/// \file cache.hpp
/// Result cache for campaign cells: canonical_key → CellResult, shared by
/// every executor worker (thread-safe), persistable as JSON so re-runs in a
/// later process hit too. Entries live under the key's embedded schema
/// version; a persisted cache written by a different schema is ignored on
/// load instead of served stale. See docs/CAMPAIGN.md for the file format.

#include <map>
#include <mutex>
#include <string>

#include "campaign/result.hpp"

namespace amrio::campaign {

class ResultCache {
 public:
  /// True (and fills *out) when `key` is cached.
  bool lookup(const std::string& key, CellResult* out) const;
  /// Insert or overwrite.
  void insert(const std::string& key, const CellResult& result);

  /// Load entries from a JSON cache file. A missing file is an empty cache
  /// (the cold-run case), a schema_version mismatch discards the file's
  /// entries; malformed JSON throws std::runtime_error. Returns the number
  /// of entries loaded.
  std::size_t load(const std::string& path);
  /// Persist every entry as JSON (sorted by key — deterministic bytes).
  void save(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, CellResult> entries_;  ///< sorted: stable save order
};

}  // namespace amrio::campaign
