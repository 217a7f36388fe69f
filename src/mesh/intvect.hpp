#pragma once
/// \file intvect.hpp
/// 2D integer index vector, the unit of the block-structured mesh index space
/// (the paper's study is the 2D Sedov case; the mesh substrate is 2D).

#include <algorithm>
#include <compare>
#include <cstdint>
#include <ostream>

namespace amrio::mesh {

inline constexpr int kSpaceDim = 2;

struct IntVect {
  int x = 0;
  int y = 0;

  constexpr IntVect() = default;
  constexpr IntVect(int xx, int yy) : x(xx), y(yy) {}

  constexpr int operator[](int d) const { return d == 0 ? x : y; }
  constexpr int& operator[](int d) { return d == 0 ? x : y; }

  friend constexpr IntVect operator+(IntVect a, IntVect b) {
    return {a.x + b.x, a.y + b.y};
  }
  friend constexpr IntVect operator-(IntVect a, IntVect b) {
    return {a.x - b.x, a.y - b.y};
  }
  friend constexpr IntVect operator*(IntVect a, int s) {
    return {a.x * s, a.y * s};
  }
  friend constexpr IntVect operator*(int s, IntVect a) { return a * s; }

  friend constexpr bool operator==(IntVect a, IntVect b) = default;
  /// Lexicographic (y-major) ordering for use in ordered containers.
  friend constexpr auto operator<=>(IntVect a, IntVect b) {
    if (auto c = a.y <=> b.y; c != 0) return c;
    return a.x <=> b.x;
  }

  /// Component-wise <= (every component), the "allLE" of AMReX.
  constexpr bool all_le(IntVect other) const {
    return x <= other.x && y <= other.y;
  }

  static constexpr IntVect unit() { return {1, 1}; }
  static constexpr IntVect zero() { return {0, 0}; }

  friend constexpr IntVect min(IntVect a, IntVect b) {
    return {std::min(a.x, b.x), std::min(a.y, b.y)};
  }
  friend constexpr IntVect max(IntVect a, IntVect b) {
    return {std::max(a.x, b.x), std::max(a.y, b.y)};
  }
};

inline std::ostream& operator<<(std::ostream& os, IntVect v) {
  return os << '(' << v.x << ',' << v.y << ')';
}

/// Floor division toward -infinity (AMReX coarsening semantics for negative
/// indices).
constexpr int coarsen_index(int i, int ratio) {
  return i >= 0 ? i / ratio : -((-i + ratio - 1) / ratio);
}

}  // namespace amrio::mesh
