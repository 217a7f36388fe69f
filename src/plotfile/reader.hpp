#pragma once
/// \file reader.hpp
/// Reader for the plotfiles produced by writer.hpp — used by round-trip tests
/// and by downstream tooling that wants to inspect a written hierarchy the way
/// the authors' Jupyter/jexio post-processing did.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "mesh/boxarray.hpp"
#include "mesh/fab.hpp"
#include "mesh/geometry.hpp"
#include "pfs/backend.hpp"

namespace amrio::plotfile {

struct PlotfileLevelInfo {
  mesh::Geometry geom;
  mesh::BoxArray ba;
  std::vector<std::string> fab_files;     ///< per grid: Cell_D basename
  std::vector<std::uint64_t> fab_offsets; ///< per grid: byte offset
  std::vector<mesh::Fab> fabs;            ///< loaded when load_data = true
};

struct Plotfile {
  std::vector<std::string> var_names;
  double time = 0.0;
  std::int64_t step = 0;
  int finest_level = 0;
  std::array<double, 2> prob_lo{0, 0};
  std::array<double, 2> prob_hi{1, 1};
  std::vector<int> ref_ratio;
  std::vector<PlotfileLevelInfo> levels;
};

/// Parse "((x,y)-(x,y))". Throws std::runtime_error on malformed text.
mesh::Box parse_box(const std::string& text);

/// Read a plotfile tree rooted at `dir` inside `backend`. With
/// `load_data=false` only metadata (Header + Cell_H) is parsed.
/// Throws std::runtime_error on missing/corrupt files.
Plotfile read_plotfile(const pfs::StorageBackend& backend,
                       const std::string& dir, bool load_data = true);

}  // namespace amrio::plotfile
