#include "campaign/cell.hpp"

#include "util/format.hpp"

namespace amrio::campaign {

namespace {

/// Field renderers: one call per struct field, in declaration order, so
/// this file reads side by side with params.hpp and shows the 1:1 coverage.
/// Strings are length-prefixed to keep '|'/'=' inside values from colliding
/// with the separator grammar.
void put(std::string& key, const char* name, const std::string& v) {
  key += '|';
  key += name;
  key += '=';
  key += std::to_string(v.size());
  key += ':';
  key += v;
}

void put(std::string& key, const char* name, const char* v) {
  put(key, name, std::string(v));
}

void put(std::string& key, const char* name, double v) {
  key += '|';
  key += name;
  key += '=';
  key += util::format_g(v, 17);
}

void put(std::string& key, const char* name, std::uint64_t v) {
  key += '|';
  key += name;
  key += '=';
  key += std::to_string(v);
}

void put(std::string& key, const char* name, int v) {
  key += '|';
  key += name;
  key += '=';
  key += std::to_string(v);
}

void put(std::string& key, const char* name, bool v) {
  key += '|';
  key += name;
  key += v ? "=1" : "=0";
}

}  // namespace

std::string canonical_key(const CellConfig& cell) {
  const macsio::Params& p = cell.params;
  std::string key = "amrio-campaign-v" + std::to_string(kCacheSchemaVersion);

  // macsio::Params, declaration order.
  put(key, "interface", macsio::to_string(p.interface));
  put(key, "file_mode", macsio::to_string(p.file_mode));
  put(key, "mif_files", p.mif_files);
  put(key, "num_dumps", p.num_dumps);
  put(key, "part_size", p.part_size);
  put(key, "avg_num_parts", p.avg_num_parts);
  put(key, "vars_per_part", p.vars_per_part);
  put(key, "compute_time", p.compute_time);
  put(key, "meta_size", p.meta_size);
  put(key, "dataset_growth", p.dataset_growth);
  put(key, "aggregators", p.aggregators);
  put(key, "agg_link_bandwidth", p.agg_link_bandwidth);
  put(key, "stage_to_bb", p.stage_to_bb);
  put(key, "codec", p.codec);
  put(key, "codec_error_bound", p.codec_error_bound);
  put(key, "codec_var_bounds", p.codec_var_bounds);
  put(key, "codec_throughput", p.codec_throughput);
  put(key, "codec_decode_throughput", p.codec_decode_throughput);
  put(key, "restart", p.restart);
  put(key, "restart_from_bb", p.restart_from_bb);
  put(key, "prefetch_streams", p.prefetch_streams);
  put(key, "nprocs", p.nprocs);
  // output_dir shapes results: file names hash onto OSTs in SimFs.
  put(key, "output_dir", p.output_dir);
  put(key, "fill", p.fill == macsio::FillMode::kSized ? "sized" : "real");
  put(key, "seed", p.seed);

  // The v1 tail, kept byte for byte because caches already saved to disk
  // and the pinned campaign_table3_cold digest hash these bytes: the engine,
  // the codec/restart fields again, and three retired output paths that are
  // always empty.
  put(key, "study_engine", exec::engine_kind_name(cell.engine));
  put(key, "study_codec", p.codec);
  put(key, "study_codec_error_bound", p.codec_error_bound);
  put(key, "study_codec_var_bounds", p.codec_var_bounds);
  put(key, "study_codec_throughput", p.codec_throughput);
  put(key, "study_codec_decode_throughput", p.codec_decode_throughput);
  put(key, "study_restart", p.restart);
  put(key, "study_restart_from_bb", p.restart_from_bb);
  put(key, "study_trace_out", "");
  put(key, "study_metrics_out", "");
  put(key, "study_explain_out", "");
  return key;
}

}  // namespace amrio::campaign
