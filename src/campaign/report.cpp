#include "campaign/report.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/format.hpp"

namespace amrio::campaign {

std::vector<std::string> csv_columns() {
  return {"cell",
          "interface",
          "file_mode",
          "staging",
          "codec",
          "error_bound",
          "var_bounds",
          "engine",
          "ranks",
          "raw_bytes",
          "encoded_bytes",
          "total_bytes",
          "nfiles",
          "encode_s",
          "dump_s",
          "sustained_s",
          "perceived_bw",
          "sustained_bw",
          "critical_stage",
          "critical_frac",
          "binding_resource",
          "restart_s",
          "restart_decode_gate"};
}

std::vector<std::vector<std::string>> csv_rows(
    const std::vector<CellConfig>& cells,
    const std::vector<CellOutcome>& outcomes) {
  AMRIO_EXPECTS(cells.size() == outcomes.size());
  std::vector<std::size_t> order(cells.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (outcomes[a].name != outcomes[b].name)
      return outcomes[a].name < outcomes[b].name;
    return outcomes[a].key < outcomes[b].key;
  });

  std::vector<std::vector<std::string>> rows;
  rows.reserve(cells.size());
  for (const std::size_t i : order) {
    const CellConfig& cell = cells[i];
    const macsio::Params& p = cell.params;
    const CellResult& r = outcomes[i].result;
    std::string staging = p.aggregators > 0 ? "agg" : "direct";
    if (p.stage_to_bb) staging = p.aggregators > 0 ? "agg+bb" : "bb";
    rows.push_back({
        outcomes[i].name,
        macsio::to_string(p.interface),
        macsio::to_string(p.file_mode),
        staging,
        p.codec,
        util::format_g(p.codec_error_bound, 12),
        p.codec_var_bounds,
        exec::engine_kind_name(cell.engine),
        std::to_string(p.nprocs),
        std::to_string(r.raw_bytes),
        std::to_string(r.encoded_bytes),
        std::to_string(r.total_bytes),
        std::to_string(r.nfiles),
        util::format_g(r.encode_seconds, 12),
        util::format_g(r.dump_seconds, 12),
        util::format_g(r.sustained_seconds, 12),
        util::format_g(r.perceived_bandwidth, 12),
        util::format_g(r.sustained_bandwidth, 12),
        r.critical_stage,
        util::format_g(r.critical_frac, 12),
        r.binding_resource,
        util::format_g(r.restart_seconds, 12),
        util::format_g(r.restart_decode_gate, 12),
    });
  }
  return rows;
}

void write_csv(util::CsvWriter& csv, const std::vector<CellConfig>& cells,
               const std::vector<CellOutcome>& outcomes) {
  csv.header(csv_columns());
  for (const auto& row : csv_rows(cells, outcomes)) csv.row(row);
}

}  // namespace amrio::campaign
