#include "mesh/geometry.hpp"

#include "util/assert.hpp"

namespace amrio::mesh {

Geometry::Geometry(const Box& domain, std::array<double, 2> prob_lo,
                   std::array<double, 2> prob_hi)
    : domain_(domain), prob_lo_(prob_lo), prob_hi_(prob_hi) {
  AMRIO_EXPECTS(domain.ok());
  for (int d = 0; d < kSpaceDim; ++d) {
    AMRIO_EXPECTS(prob_hi[static_cast<std::size_t>(d)] >
                  prob_lo[static_cast<std::size_t>(d)]);
    dx_[static_cast<std::size_t>(d)] =
        (prob_hi[static_cast<std::size_t>(d)] -
         prob_lo[static_cast<std::size_t>(d)]) /
        static_cast<double>(domain.length(d));
  }
}

std::array<double, 2> Geometry::cell_lo(IntVect p) const {
  return {prob_lo_[0] + static_cast<double>(p.x - domain_.lo(0)) * dx_[0],
          prob_lo_[1] + static_cast<double>(p.y - domain_.lo(1)) * dx_[1]};
}

Geometry Geometry::refine(int ratio) const {
  return Geometry(domain_.refine(ratio), prob_lo_, prob_hi_);
}

}  // namespace amrio::mesh
