#pragma once
/// \file fab.hpp
/// Fab ("Fortran array box"): a dense multi-component double field over a Box,
/// the storage unit AMReX serializes into plotfile `Cell_D` files. Data is
/// stored component-major (all of component 0, then component 1, ...), each
/// component row-major over the box — matching the on-disk FAB layout.

#include <cstdint>
#include <span>
#include <vector>

#include "mesh/box.hpp"

namespace amrio::mesh {

class Fab {
 public:
  Fab() = default;
  /// Allocate over `domain` (often a valid box grown by ghost cells) with
  /// `ncomp` components, zero-initialized.
  Fab(const Box& domain, int ncomp);

  const Box& box() const { return domain_; }
  int ncomp() const { return ncomp_; }
  std::int64_t num_pts() const { return domain_.num_pts(); }
  /// Payload size when serialized (doubles only, no header).
  std::uint64_t byte_size() const {
    return static_cast<std::uint64_t>(num_pts()) * ncomp_ * sizeof(double);
  }

  double& operator()(IntVect p, int comp);
  double operator()(IntVect p, int comp) const;
  double& operator()(int i, int j, int comp) { return (*this)(IntVect(i, j), comp); }
  double operator()(int i, int j, int comp) const {
    return (*this)(IntVect(i, j), comp);
  }

  std::span<const double> data() const { return data_; }
  std::span<double> data() { return data_; }

  void set_val(double v);

  /// Copy `ncomp` components from `src` (starting at src_comp) into *this
  /// (starting at dst_comp) over the cell intersection of the two boxes.
  void copy_from(const Fab& src, int src_comp, int dst_comp, int ncomp);
  /// Copy over an explicit region (intersected with both boxes).
  void copy_from(const Fab& src, const Box& region, int src_comp, int dst_comp,
                 int ncomp);

  /// Min/max over the valid region `where` (intersected with our box).
  double min(const Box& where, int comp) const;
  double max(const Box& where, int comp) const;
  /// Sum over region for conservation checks.
  double sum(const Box& where, int comp) const;

 private:
  std::size_t offset(IntVect p, int comp) const;
  Box domain_;
  int ncomp_ = 0;
  std::vector<double> data_;
};

}  // namespace amrio::mesh
