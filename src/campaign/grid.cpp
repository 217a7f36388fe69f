#include "campaign/grid.hpp"

namespace amrio::campaign {

std::vector<CellConfig> make_grid(const GridSpec& spec) {
  std::vector<CellConfig> cells;
  for (const macsio::Interface iface : spec.interfaces) {
    for (const StagingMode& mode : spec.stagings) {
      for (const CodecPoint& codec : spec.codecs) {
        for (const exec::EngineKind engine : spec.engines) {
          for (const int ranks : spec.rank_counts) {
            CellConfig cell;
            cell.name = std::string(macsio::to_string(iface)) + "/" +
                        mode.label + "/" + codec.label + "/" +
                        exec::engine_kind_name(engine) + "/r" +
                        std::to_string(ranks);
            cell.params.interface = iface;
            cell.params.file_mode = mode.file_mode;
            cell.params.nprocs = ranks;
            cell.params.num_dumps = spec.num_dumps;
            cell.params.part_size = spec.part_size;
            cell.params.vars_per_part = spec.vars_per_part;
            cell.params.dataset_growth = spec.dataset_growth;
            cell.params.compute_time = 0.0;
            if (mode.aggregate) {
              const int aggs = ranks / spec.agg_factor;
              cell.params.aggregators = aggs > 1 ? aggs : 1;
            }
            cell.params.stage_to_bb = mode.burst_buffer;
            cell.params.codec = codec.codec;
            cell.params.codec_error_bound =
                codec.error_bound > 0.0 ? codec.error_bound : 1.0e-3;
            cell.params.codec_var_bounds = codec.var_bounds;
            cell.params.codec_throughput = spec.codec_throughput;
            cell.engine = engine;
            cells.push_back(std::move(cell));
          }
        }
      }
    }
  }
  return cells;
}

GridSpec table3_grid() {
  GridSpec spec;
  spec.interfaces = {macsio::Interface::kMiftmpl, macsio::Interface::kH5Lite,
                     macsio::Interface::kRaw};
  spec.stagings = {
      {"direct", macsio::FileMode::kMif, false, false},
      {"agg", macsio::FileMode::kMif, true, false},
      {"bb", macsio::FileMode::kMif, false, true},
      {"agg+bb", macsio::FileMode::kMif, true, true},
      {"sif", macsio::FileMode::kSif, false, false},
      {"sif+bb", macsio::FileMode::kSif, false, true},
  };
  spec.codecs = {
      {"identity", "identity", 0.0, ""},
      {"lossless", "lossless", 0.0, ""},
      {"ebl@1e-3", "ebl", 1.0e-3, ""},
      // per-variable bounds: density loose, pressure tight (AMRIC's framing)
      {"ebl@vars", "ebl", 1.0e-3, "1e-2,1e-5"},
  };
  spec.engines = {exec::EngineKind::kSerial, exec::EngineKind::kEvent};
  spec.rank_counts = {8, 16, 32, 64};
  return spec;
}

}  // namespace amrio::campaign
