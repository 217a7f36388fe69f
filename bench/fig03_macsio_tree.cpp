/// Fig. 3 reproduction: MACSio's N-to-N output pattern with the miftmpl
/// (json) interface — data/macsio_json_{taskID}_{stepID}.json plus
/// metadata/macsio_json_root_{stepID}.json.

#include <cstdio>

#include "exec/engine.hpp"
#include "bench_common.hpp"
#include "macsio/driver.hpp"
#include "util/format.hpp"

int main(int argc, char** argv) {
  using namespace amrio;
  const auto ctx = bench::parse_bench_args(
      argc, argv, "fig03_macsio_tree", "Fig. 3: MACSio N-to-N output pattern");
  bench::banner("Fig. 3 — MACSio N-to-N output pattern (miftmpl)",
                "paper Fig. 3");

  macsio::Params params;
  params.nprocs = ctx.full ? 8 : 4;
  params.num_dumps = 3;
  params.part_size = 64 * 1024;
  params.output_dir = "macsio_out";

  pfs::MemoryBackend backend(false);
  const auto engine = ctx.make_engine(params.nprocs);
  const auto stats = macsio::run_macsio(*engine, params, backend);

  std::printf("MACSio data output (nprocs=%d, nsteps=%d)\n", params.nprocs,
              params.num_dumps);
  std::string last_dir;
  for (const auto& path : backend.list("")) {
    const auto segs = util::split(path, '/');
    if (segs.size() >= 2 && segs[1] != last_dir) {
      std::printf("  %s/\n", segs[1].c_str());
      last_dir = segs[1];
    }
    std::printf("      %-32s %s\n", segs.back().c_str(),
                util::human_bytes(backend.size(path)).c_str());
  }
  std::printf("\n%d task files + 1 root file per dump; %llu files, %s total\n",
              params.nprocs, static_cast<unsigned long long>(stats.nfiles),
              util::human_bytes(stats.total_bytes).c_str());

  util::CsvWriter csv(bench::csv_path(ctx, "fig03_macsio_tree.csv"));
  csv.header({"path", "bytes"});
  for (const auto& path : backend.list(""))
    csv.row({path, std::to_string(backend.size(path))});
  std::printf("csv: %s\n", csv.path().c_str());
  return 0;
}
