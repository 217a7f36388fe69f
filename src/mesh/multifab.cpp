#include "mesh/multifab.hpp"

#include "util/assert.hpp"

namespace amrio::mesh {

MultiFab::MultiFab(BoxArray ba, DistributionMapping dm, int ncomp, int nghost)
    : ba_(std::move(ba)), dm_(std::move(dm)), ncomp_(ncomp), nghost_(nghost) {
  AMRIO_EXPECTS(ncomp >= 1);
  AMRIO_EXPECTS(nghost >= 0);
  AMRIO_EXPECTS(dm_.size() == ba_.size());
  fabs_.reserve(ba_.size());
  for (std::size_t i = 0; i < ba_.size(); ++i)
    fabs_.emplace_back(ba_[i].grow(nghost), ncomp);
}

void MultiFab::fill_boundary() {
  if (nghost_ == 0) return;
  for (std::size_t i = 0; i < fabs_.size(); ++i) {
    const Box grown = ba_[i].grow(nghost_);
    for (std::size_t j = 0; j < fabs_.size(); ++j) {
      if (i == j) continue;
      const Box overlap = grown & ba_[j];
      if (overlap.empty()) continue;
      fabs_[i].copy_from(fabs_[j], overlap, 0, 0, ncomp_);
    }
  }
}

void MultiFab::copy_valid_from(const MultiFab& src, int src_comp, int dst_comp,
                               int ncomp) {
  AMRIO_EXPECTS(src_comp + ncomp <= src.ncomp_);
  AMRIO_EXPECTS(dst_comp + ncomp <= ncomp_);
  for (std::size_t i = 0; i < fabs_.size(); ++i) {
    for (std::size_t j = 0; j < src.fabs_.size(); ++j) {
      const Box overlap = ba_[i] & src.ba_[j];
      if (overlap.empty()) continue;
      fabs_[i].copy_from(src.fabs_[j], overlap, src_comp, dst_comp, ncomp);
    }
  }
}

double MultiFab::sum(int comp) const {
  double out = 0.0;
  for (std::size_t i = 0; i < fabs_.size(); ++i) out += fabs_[i].sum(ba_[i], comp);
  return out;
}

}  // namespace amrio::mesh
