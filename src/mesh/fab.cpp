#include "mesh/fab.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"

namespace amrio::mesh {

Fab::Fab(const Box& domain, int ncomp) : domain_(domain), ncomp_(ncomp) {
  AMRIO_EXPECTS(domain.ok());
  AMRIO_EXPECTS(ncomp >= 1);
  data_.assign(static_cast<std::size_t>(domain.num_pts()) * ncomp, 0.0);
}

std::size_t Fab::offset(IntVect p, int comp) const {
  AMRIO_EXPECTS_MSG(domain_.contains(p),
                    "Fab index " << p << " outside " << domain_.to_string());
  AMRIO_EXPECTS(comp >= 0 && comp < ncomp_);
  return static_cast<std::size_t>(comp) * static_cast<std::size_t>(num_pts()) +
         static_cast<std::size_t>(linear_index(domain_, p));
}

double& Fab::operator()(IntVect p, int comp) { return data_[offset(p, comp)]; }

double Fab::operator()(IntVect p, int comp) const { return data_[offset(p, comp)]; }

void Fab::set_val(double v) { std::fill(data_.begin(), data_.end(), v); }

void Fab::copy_from(const Fab& src, int src_comp, int dst_comp, int ncomp) {
  copy_from(src, domain_ & src.domain_, src_comp, dst_comp, ncomp);
}

void Fab::copy_from(const Fab& src, const Box& region, int src_comp,
                    int dst_comp, int ncomp) {
  AMRIO_EXPECTS(src_comp >= 0 && src_comp + ncomp <= src.ncomp_);
  AMRIO_EXPECTS(dst_comp >= 0 && dst_comp + ncomp <= ncomp_);
  const Box where = region & domain_ & src.domain_;
  if (where.empty()) return;
  for (int n = 0; n < ncomp; ++n) {
    for (int j = where.lo(1); j <= where.hi(1); ++j) {
      const std::size_t src_row =
          src.offset(IntVect(where.lo(0), j), src_comp + n);
      const std::size_t dst_row = offset(IntVect(where.lo(0), j), dst_comp + n);
      std::copy_n(src.data_.begin() + static_cast<std::ptrdiff_t>(src_row),
                  where.length(0),
                  data_.begin() + static_cast<std::ptrdiff_t>(dst_row));
    }
  }
}

double Fab::min(const Box& where, int comp) const {
  const Box region = where & domain_;
  double out = std::numeric_limits<double>::infinity();
  for (int j = region.lo(1); j <= region.hi(1); ++j)
    for (int i = region.lo(0); i <= region.hi(0); ++i)
      out = std::min(out, (*this)(i, j, comp));
  return out;
}

double Fab::max(const Box& where, int comp) const {
  const Box region = where & domain_;
  double out = -std::numeric_limits<double>::infinity();
  for (int j = region.lo(1); j <= region.hi(1); ++j)
    for (int i = region.lo(0); i <= region.hi(0); ++i)
      out = std::max(out, (*this)(i, j, comp));
  return out;
}

double Fab::sum(const Box& where, int comp) const {
  const Box region = where & domain_;
  double out = 0.0;
  for (int j = region.lo(1); j <= region.hi(1); ++j)
    for (int i = region.lo(0); i <= region.hi(0); ++i)
      out += (*this)(i, j, comp);
  return out;
}

}  // namespace amrio::mesh
