/// Ablation: distribution-mapping strategy (round-robin / knapsack / SFC).
/// Fig. 8 shows per-task output imbalance is an AMR load-balancing artifact;
/// this ablation quantifies how much of it each strategy removes — and why
/// per-rank I/O prediction stays hard even with the best balancer (the
/// paper's granularity argument in §IV-A).

#include <cstdio>

#include "bench_common.hpp"
#include "core/amrio.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace amrio;
  const auto ctx = bench::parse_bench_args(
      argc, argv, "ablate_distribution",
      "ablation: rank-assignment strategy vs per-task I/O imbalance");
  bench::banner("Ablation — DistributionMapping strategy vs per-task imbalance",
                "design choice behind Fig. 8 (paper §IV-A)");

  const double scale = ctx.pick_scale(0.25, 0.5);
  util::TextTable table({"strategy", "level", "max/mean", "gini",
                         "tasks with data"});
  util::CsvWriter csv(bench::csv_path(ctx, "ablate_distribution.csv"));
  csv.header({"strategy", "level", "imbalance", "gini", "tasks_with_data"});

  std::map<std::string, double> finest_imbalance;
  for (auto strategy : {mesh::DistributionStrategy::kRoundRobin,
                        mesh::DistributionStrategy::kKnapsack,
                        mesh::DistributionStrategy::kSfc}) {
    auto config = core::case27(scale);
    config.name = std::string("dist_") + mesh::to_string(strategy);
    config.distribution = strategy;
    const auto run = core::run_case(config);
    const auto last = run.total.steps.back();
    for (int level : iostats::levels_present(run.table)) {
      const auto per_task =
          iostats::per_task_bytes(run.table, last, level, config.nprocs);
      std::vector<double> v;
      int with_data = 0;
      for (auto b : per_task) {
        v.push_back(static_cast<double>(b));
        if (b > 0) ++with_data;
      }
      const double imb = util::imbalance_factor(v);
      std::string level_name = "L";
      level_name += std::to_string(level);
      table.add_row({mesh::to_string(strategy), level_name,
                     util::format_g(imb, 4), util::format_g(util::gini(v), 4),
                     std::to_string(with_data)});
      csv.field(mesh::to_string(strategy))
          .field(static_cast<std::int64_t>(level))
          .field(imb)
          .field(util::gini(v))
          .field(static_cast<std::int64_t>(with_data));
      csv.endrow();
      finest_imbalance[mesh::to_string(strategy)] = imb;  // finest survives
    }
  }
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "\nreading: knapsack/SFC balance cell counts, yet refined-level bytes\n"
      "remain uneven because grids are created where the physics is — the\n"
      "reason the paper limits MACSio modeling to the per-level granularity.\n");
  const bool ok =
      finest_imbalance["knapsack"] <= finest_imbalance["roundrobin"] + 0.25;
  std::printf("shape check (knapsack no worse than round-robin): %s\n",
              ok ? "OK" : "MISMATCH");
  std::printf("csv: %s\n", csv.path().c_str());
  return ok ? 0 : 1;
}
