#pragma once
/// \file boxarray.hpp
/// An ordered collection of disjoint boxes describing the valid region of one
/// AMR level, with the grid-generation operations AMReX applies to it:
/// max_grid_size chopping, refinement and the coverage query.

#include <vector>

#include "mesh/box.hpp"

namespace amrio::mesh {

class BoxArray {
 public:
  BoxArray() = default;
  explicit BoxArray(std::vector<Box> boxes);
  explicit BoxArray(const Box& single);

  std::size_t size() const { return boxes_.size(); }
  bool empty() const { return boxes_.empty(); }
  const Box& operator[](std::size_t i) const { return boxes_[i]; }
  const std::vector<Box>& boxes() const { return boxes_; }

  /// Total cell count over all boxes.
  std::int64_t num_pts() const;

  /// Chop every box so no side exceeds `max_size` (AMReX `maxSize`). Chops at
  /// multiples of `blocking` when possible so alignment is preserved.
  [[nodiscard]] BoxArray max_size(int max_size, int blocking = 1) const;

  /// Refine every box.
  [[nodiscard]] BoxArray refine(int ratio) const;

  /// True if every cell of `b` is covered by the union of our boxes.
  bool covers(const Box& b) const;

  /// True when no two boxes overlap (validity invariant for level grids).
  bool is_disjoint() const;

  void push_back(const Box& b) { boxes_.push_back(b); }

  friend bool operator==(const BoxArray& a, const BoxArray& b) = default;

 private:
  std::vector<Box> boxes_;
};

}  // namespace amrio::mesh
