#include "campaign/cache.hpp"

#include <fstream>
#include <stdexcept>

#include "campaign/cell.hpp"
#include "util/json.hpp"
#include "util/json_parse.hpp"

namespace amrio::campaign {

bool ResultCache::lookup(const std::string& key, CellResult* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  if (out != nullptr) *out = it->second;
  return true;
}

void ResultCache::insert(const std::string& key, const CellResult& result) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_[key] = result;
}

std::size_t ResultCache::load(const std::string& path) {
  std::ifstream probe(path);
  if (!probe) return 0;  // cold run: no cache file yet
  probe.close();

  util::JsonValue doc;
  try {
    doc = util::parse_json_file(path);
  } catch (const std::exception& e) {
    throw std::runtime_error("campaign cache: '" + path + "': " + e.what());
  }
  if (!doc.is_object())
    throw std::runtime_error("campaign cache: '" + path +
                             "' is not a JSON object");
  if (doc.u64_or("schema_version", 0) !=
      static_cast<std::uint64_t>(kCacheSchemaVersion))
    return 0;  // other schema: start cold rather than serve stale results
  const util::JsonValue* entries = doc.find("entries");
  if (entries == nullptr || !entries->is_array()) return 0;

  std::lock_guard<std::mutex> lock(mu_);
  std::size_t loaded = 0;
  for (const util::JsonValue& e : entries->items) {
    if (!e.is_object()) continue;
    const std::string key = e.string_or("key", "");
    if (key.empty()) continue;
    CellResult r;
    r.raw_bytes = e.u64_or("raw_bytes", 0);
    r.encoded_bytes = e.u64_or("encoded_bytes", 0);
    r.total_bytes = e.u64_or("total_bytes", 0);
    r.nfiles = e.u64_or("nfiles", 0);
    r.encode_seconds = e.number_or("encode_seconds", 0.0);
    r.dump_seconds = e.number_or("dump_seconds", 0.0);
    r.sustained_seconds = e.number_or("sustained_seconds", 0.0);
    r.perceived_bandwidth = e.number_or("perceived_bandwidth", 0.0);
    r.sustained_bandwidth = e.number_or("sustained_bandwidth", 0.0);
    r.critical_stage = e.string_or("critical_stage", "");
    r.critical_frac = e.number_or("critical_frac", 0.0);
    r.binding_resource = e.string_or("binding_resource", "");
    r.restart_seconds = e.number_or("restart_seconds", 0.0);
    r.restart_decode_gate = e.number_or("restart_decode_gate", 0.0);
    entries_[key] = r;
    ++loaded;
  }
  return loaded;
}

void ResultCache::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out)
    throw std::runtime_error("campaign cache: cannot write '" + path + "'");
  util::JsonWriter w(out, /*pretty=*/true);
  std::lock_guard<std::mutex> lock(mu_);
  w.begin_object();
  w.key("schema_version").value(kCacheSchemaVersion);
  w.key("entries").begin_array();
  for (const auto& [key, r] : entries_) {
    w.begin_object();
    w.key("key").value(key);
    w.key("raw_bytes").value(r.raw_bytes);
    w.key("encoded_bytes").value(r.encoded_bytes);
    w.key("total_bytes").value(r.total_bytes);
    w.key("nfiles").value(r.nfiles);
    w.key("encode_seconds").value(r.encode_seconds);
    w.key("dump_seconds").value(r.dump_seconds);
    w.key("sustained_seconds").value(r.sustained_seconds);
    w.key("perceived_bandwidth").value(r.perceived_bandwidth);
    w.key("sustained_bandwidth").value(r.sustained_bandwidth);
    w.key("critical_stage").value(r.critical_stage);
    w.key("critical_frac").value(r.critical_frac);
    w.key("binding_resource").value(r.binding_resource);
    w.key("restart_seconds").value(r.restart_seconds);
    w.key("restart_decode_gate").value(r.restart_decode_gate);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace amrio::campaign
