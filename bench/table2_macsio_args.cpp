/// Table II reproduction: the MACSio command line arguments used to model
/// AMReX-Castro outputs, demonstrated by parsing a Listing-1-style invocation
/// and executing it against the counting backend.

#include <cstdio>

#include "exec/engine.hpp"
#include "bench_common.hpp"
#include "macsio/driver.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace amrio;
  const auto ctx = bench::parse_bench_args(
      argc, argv, "table2_macsio_args", "Table II: MACSio argument set");
  bench::banner("Table II — MACSio command line arguments",
                "paper Table II + Listing 1");

  util::TextTable table({"MACSio argument", "description"});
  table.add_row({"interface", "output type hdf5 (h5lite), json (miftmpl), raw"});
  table.add_row({"parallel_file_mode", "File Mode: multiple independent, single"});
  table.add_row({"num_dumps", "number of dumps to marshal (buffer)"});
  table.add_row({"part_size", "per-task mesh part size"});
  table.add_row({"avg_num_parts", "average number of mesh parts per task"});
  table.add_row({"vars_per_part", "number of mesh variables on each part"});
  table.add_row({"compute_time", "rough time between dumps"});
  table.add_row({"meta_size", "additional metadata size per task"});
  table.add_row({"dataset_growth", "multiplier factor for data growth"});
  std::printf("%s\n", table.to_string().c_str());

  // Parse and execute the paper's Listing-1 shaped invocation (values from
  // the case4 calibration in §IV-B).
  const std::vector<std::string> argv_listing1{
      "--interface", "miftmpl", "--parallel_file_mode", "MIF", "8",
      "--num_dumps", "5", "--part_size", "1550000", "--avg_num_parts", "1",
      "--vars_per_part", "1", "--compute_time", "0.1", "--meta_size", "0",
      "--dataset_growth", "1.013075", "--nprocs", "8"};
  const auto params = macsio::Params::from_cli(argv_listing1);
  std::printf("parsed invocation:\n  %s\n\n", params.to_command_line().c_str());

  pfs::MemoryBackend backend(false);
  const auto engine = ctx.make_engine(params.nprocs);
  const auto stats = macsio::run_macsio(*engine, params, backend);
  util::TextTable out({"dump", "bytes", "human"});
  for (std::size_t d = 0; d < stats.bytes_per_dump.size(); ++d)
    out.add_row({std::to_string(d), std::to_string(stats.bytes_per_dump[d]),
                 util::human_bytes(stats.bytes_per_dump[d])});
  std::printf("%s", out.to_string().c_str());
  std::printf("total %s across %llu files\n",
              util::human_bytes(stats.total_bytes).c_str(),
              static_cast<unsigned long long>(stats.nfiles));

  util::CsvWriter csv(bench::csv_path(ctx, "table2_macsio_args.csv"));
  csv.header({"dump", "bytes"});
  for (std::size_t d = 0; d < stats.bytes_per_dump.size(); ++d)
    csv.row({std::to_string(d), std::to_string(stats.bytes_per_dump[d])});
  std::printf("csv: %s\n", csv.path().c_str());
  return 0;
}
