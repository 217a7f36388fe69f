/// \file calibrate_model.cpp
/// End-to-end model workflow (paper §III Fig. 1): run a parameterized family
/// of AMReX-Castro-like simulations, translate each into MACSio parameters
/// through Eq. (3) + growth calibration, validate the proxies, and build the
/// (cfl × max_level) → dataset_growth interpolation table that the paper's
/// Appendix step 4 describes for predicting new configurations.

#include <cstdio>
#include <stdexcept>

#include "core/amrio.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace amrio;
  util::ArgParser cli("calibrate_model",
                      "build and validate the AMR→MACSio translation model");
  cli.add_option("ncell", "L0 cells per direction", 1, std::string("96"));
  cli.add_option("steps", "simulation steps per case", 1, std::string("60"));
  cli.add_flag("help", "show usage");
  int ncell = 0;
  std::int64_t steps = 0;
  try {
    cli.parse(argc, argv);
    if (cli.flag("help")) {
      std::printf("%s", cli.usage().c_str());
      return 0;
    }
    ncell = cli.get_int<int>("ncell");
    steps = cli.get_int("steps");
    if (ncell < 1 || steps < 1)
      throw std::invalid_argument("--ncell and --steps must be >= 1");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "calibrate_model: %s\n", e.what());
    return 2;
  }

  model::GrowthGuess guess;
  util::TextTable table({"case", "cfl", "levels", "fitted f", "growth",
                         "mean |err|", "proxy cmdline ok"});

  for (double cfl : {0.3, 0.5}) {
    for (int max_level : {1, 3}) {
      core::CaseConfig config;
      config.name = "cal_cfl" + util::format_g(cfl * 10, 2) + "_l" +
                    std::to_string(max_level);
      config.ncell = ncell;
      config.max_level = max_level;
      config.cfl = cfl;
      config.max_step = steps;
      config.plot_int = std::max<std::int64_t>(1, steps / 10);
      config.nprocs = 8;
      config.max_grid_size = std::max(16, ncell / 4);
      std::printf("running %s...\n", config.name.c_str());
      const auto run = core::run_case(config);
      const auto v = core::calibrate_and_validate(run, 1.0, 1.25);
      guess.add(cfl, max_level, v.translation.calibration.best_growth);

      // the deliverable of Listing 1: a runnable MACSio command line
      const auto reparsed =
          macsio::Params::from_cli(v.translation.params.to_cli());
      const bool ok = reparsed.part_size == v.translation.params.part_size;
      table.add_row({config.name, util::format_g(cfl, 2),
                     std::to_string(max_level + 1),
                     util::format_g(v.translation.part_size_fit.f, 4),
                     util::format_g(v.translation.calibration.best_growth, 6),
                     util::format_g(v.mean_abs_rel_err, 3), ok ? "yes" : "NO"});
    }
  }
  std::printf("\n%s", table.to_string().c_str());

  std::printf("\ndataset_growth interpolation table (Appendix step 4):\n");
  util::TextTable interp({"cfl \\ levels", "2", "3", "4"});
  for (double cfl : {0.3, 0.4, 0.5}) {
    interp.add_row({util::format_g(cfl, 2),
                    util::format_g(guess.interpolate(cfl, 1), 6),
                    util::format_g(guess.interpolate(cfl, 2), 6),
                    util::format_g(guess.interpolate(cfl, 3), 6)});
  }
  std::printf("%s", interp.to_string().c_str());
  std::printf("\nrule of thumb (paper): the greater the cfl and number of\n"
              "levels, the greater the data_growth.\n");
  return 0;
}
