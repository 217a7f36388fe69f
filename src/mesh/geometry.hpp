#pragma once
/// \file geometry.hpp
/// Physical-space description of a level: problem domain bounds, index-space
/// domain box, and cell sizes. Mirrors the `geometry.*` keys of the paper's
/// Listing 2 inputs file.

#include <array>

#include "mesh/box.hpp"

namespace amrio::mesh {

class Geometry {
 public:
  Geometry() = default;
  Geometry(const Box& domain, std::array<double, 2> prob_lo,
           std::array<double, 2> prob_hi);

  const Box& domain() const { return domain_; }
  std::array<double, 2> prob_lo() const { return prob_lo_; }
  std::array<double, 2> prob_hi() const { return prob_hi_; }

  double cell_size(int d) const { return dx_[static_cast<std::size_t>(d)]; }
  /// Physical lower corner of cell (i, j).
  std::array<double, 2> cell_lo(IntVect p) const;

  /// Geometry of the same physical domain refined by `ratio`.
  [[nodiscard]] Geometry refine(int ratio) const;

 private:
  Box domain_;
  std::array<double, 2> prob_lo_{0.0, 0.0};
  std::array<double, 2> prob_hi_{1.0, 1.0};
  std::array<double, 2> dx_{1.0, 1.0};
};

}  // namespace amrio::mesh
