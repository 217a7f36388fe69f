#pragma once
/// \file multifab.hpp
/// MultiFab: the distributed state container of one AMR level — a BoxArray of
/// valid regions, a DistributionMapping onto virtual ranks, and one Fab per
/// box (allocated with ghost cells).
///
/// The driver runs serially, so the MultiFab owns *all* Fabs; the
/// DistributionMapping records which virtual rank each box belongs to, which
/// is exactly what the N-to-N plotfile writer needs to reproduce Summit's
/// per-task output files (one Cell_D file per owning rank; see
/// plotfile/writer.hpp).

#include <vector>

#include "mesh/boxarray.hpp"
#include "mesh/distribution.hpp"
#include "mesh/fab.hpp"

namespace amrio::mesh {

class MultiFab {
 public:
  MultiFab() = default;
  MultiFab(BoxArray ba, DistributionMapping dm, int ncomp, int nghost);

  const BoxArray& box_array() const { return ba_; }
  const DistributionMapping& distribution() const { return dm_; }
  int ncomp() const { return ncomp_; }
  int nghost() const { return nghost_; }
  std::size_t nfabs() const { return fabs_.size(); }

  Fab& fab(std::size_t i) { return fabs_.at(i); }
  const Fab& fab(std::size_t i) const { return fabs_.at(i); }
  /// The valid (non-ghost) box of fab i.
  const Box& valid_box(std::size_t i) const { return ba_[i]; }

  void set_val(double v);

  /// Fill ghost cells of every fab from overlapping valid regions of sibling
  /// fabs on the same level (intra-level exchange). Ghosts not covered by any
  /// sibling are left untouched (they belong to the domain boundary or a
  /// coarse-fine boundary and are filled by the AMR layer).
  void fill_boundary();

  /// Same-level copy: overwrite my valid cells with src's valid data wherever
  /// the two BoxArrays intersect (used on regrid for data transfer).
  void copy_valid_from(const MultiFab& src, int src_comp, int dst_comp,
                       int ncomp);

  double min(int comp) const;
  double max(int comp) const;
  double sum(int comp) const;
  /// Total valid cells.
  std::int64_t num_pts() const { return ba_.num_pts(); }

  /// Bytes of valid-region data owned by `rank` (the per-task I/O weight).
  std::uint64_t bytes_on_rank(int rank) const;

 private:
  BoxArray ba_;
  DistributionMapping dm_;
  int ncomp_ = 0;
  int nghost_ = 0;
  std::vector<Fab> fabs_;
};

}  // namespace amrio::mesh
