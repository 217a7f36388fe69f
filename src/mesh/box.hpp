#pragma once
/// \file box.hpp
/// Cell-centered integer rectangle [lo, hi] (inclusive bounds), the atom of
/// block-structured AMR. Mirrors the algebra AMReX's `Box` provides for the
/// operations this study needs: intersection, refinement/coarsening, growing,
/// chopping, and alignment queries.

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "mesh/intvect.hpp"

namespace amrio::mesh {

class Box {
 public:
  /// Default box is empty/invalid.
  constexpr Box() : lo_(0, 0), hi_(-1, -1) {}
  constexpr Box(IntVect lo, IntVect hi) : lo_(lo), hi_(hi) {}
  constexpr Box(int lox, int loy, int hix, int hiy)
      : lo_(lox, loy), hi_(hix, hiy) {}

  constexpr IntVect lo() const { return lo_; }
  constexpr IntVect hi() const { return hi_; }
  constexpr int lo(int d) const { return lo_[d]; }
  constexpr int hi(int d) const { return hi_[d]; }

  constexpr bool ok() const { return lo_.all_le(hi_); }
  constexpr bool empty() const { return !ok(); }

  /// Cells along dimension d (0 when empty).
  constexpr std::int64_t length(int d) const {
    const std::int64_t n = static_cast<std::int64_t>(hi_[d]) - lo_[d] + 1;
    return n > 0 ? n : 0;
  }
  constexpr IntVect size() const {
    return {static_cast<int>(length(0)), static_cast<int>(length(1))};
  }
  constexpr std::int64_t num_pts() const { return length(0) * length(1); }

  constexpr bool contains(IntVect p) const {
    return ok() && lo_.all_le(p) && p.all_le(hi_);
  }
  constexpr bool contains(const Box& other) const {
    return other.empty() || (contains(other.lo_) && contains(other.hi_));
  }
  constexpr bool intersects(const Box& other) const {
    return (*this & other).ok();
  }

  /// Intersection; empty when disjoint.
  friend constexpr Box operator&(const Box& a, const Box& b) {
    return Box(max(a.lo_, b.lo_), min(a.hi_, b.hi_));
  }

  friend constexpr bool operator==(const Box& a, const Box& b) = default;

  /// Grow by n cells on every face (negative shrinks).
  [[nodiscard]] constexpr Box grow(int n) const {
    return Box(lo_ - IntVect(n, n), hi_ + IntVect(n, n));
  }
  [[nodiscard]] constexpr Box grow(IntVect n) const {
    return Box(lo_ - n, hi_ + n);
  }

  [[nodiscard]] constexpr Box shift(IntVect by) const {
    return Box(lo_ + by, hi_ + by);
  }

  /// Index-space refinement by `ratio` (each cell becomes ratio² cells).
  [[nodiscard]] Box refine(int ratio) const;
  /// Index-space coarsening by `ratio` (covers all parents of our cells).
  [[nodiscard]] Box coarsen(int ratio) const;

  /// Smallest box containing *this whose lo and hi+1 are multiples of
  /// `blocking` in every dimension (the AMReX `blocking_factor` alignment).
  [[nodiscard]] Box align_to(int blocking) const;

  /// Split at index `pos` along `dir`: returns {[lo,pos-1], [pos,hi]}.
  /// Requires lo(dir) < pos <= hi(dir).
  std::pair<Box, Box> chop(int dir, int pos) const;

  /// Hull of two boxes (smallest box containing both).
  friend Box bounding_box(const Box& a, const Box& b);

  /// `b \ a` as a set of disjoint boxes (0–4 pieces in 2D).
  friend std::vector<Box> box_difference(const Box& b, const Box& a);

  std::string to_string() const;

 private:
  IntVect lo_;
  IntVect hi_;
};

std::ostream& operator<<(std::ostream& os, const Box& b);

/// Row-major linear offset of p within box (x fastest), for Fab indexing.
constexpr std::int64_t linear_index(const Box& b, IntVect p) {
  return (static_cast<std::int64_t>(p.y) - b.lo(1)) * b.length(0) +
         (static_cast<std::int64_t>(p.x) - b.lo(0));
}

}  // namespace amrio::mesh
