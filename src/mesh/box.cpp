#include "mesh/box.hpp"

#include <sstream>

#include "util/assert.hpp"

namespace amrio::mesh {

Box Box::refine(int ratio) const {
  AMRIO_EXPECTS(ratio >= 1);
  if (empty()) return *this;
  return Box(lo_ * ratio, IntVect((hi_.x + 1) * ratio - 1, (hi_.y + 1) * ratio - 1));
}

Box Box::coarsen(int ratio) const {
  AMRIO_EXPECTS(ratio >= 1);
  if (empty()) return *this;
  return Box(IntVect(coarsen_index(lo_.x, ratio), coarsen_index(lo_.y, ratio)),
             IntVect(coarsen_index(hi_.x, ratio), coarsen_index(hi_.y, ratio)));
}

Box Box::align_to(int blocking) const {
  AMRIO_EXPECTS(blocking >= 1);
  if (empty()) return *this;
  auto down = [blocking](int i) {
    return coarsen_index(i, blocking) * blocking;
  };
  auto up = [blocking, &down](int i) { return down(i + blocking - 1); };
  return Box(IntVect(down(lo_.x), down(lo_.y)),
             IntVect(up(hi_.x + 1) - 1, up(hi_.y + 1) - 1));
}

std::pair<Box, Box> Box::chop(int dir, int pos) const {
  AMRIO_EXPECTS(dir >= 0 && dir < kSpaceDim);
  AMRIO_EXPECTS_MSG(lo_[dir] < pos && pos <= hi_[dir],
                    "chop pos " << pos << " outside " << to_string());
  Box left = *this;
  Box right = *this;
  IntVect lhi = hi_;
  lhi[dir] = pos - 1;
  IntVect rlo = lo_;
  rlo[dir] = pos;
  left = Box(lo_, lhi);
  right = Box(rlo, hi_);
  return {left, right};
}

Box bounding_box(const Box& a, const Box& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  return Box(min(a.lo(), b.lo()), max(a.hi(), b.hi()));
}

std::vector<Box> box_difference(const Box& b, const Box& a) {
  std::vector<Box> out;
  if (b.empty()) return out;
  const Box isect = a & b;
  if (isect.empty()) {
    out.push_back(b);
    return out;
  }
  if (isect == b) return out;  // fully covered

  // Peel up to four slabs around the intersection (guillotine decomposition).
  Box rest = b;
  // below
  if (rest.lo(1) < isect.lo(1)) {
    out.emplace_back(IntVect(rest.lo(0), rest.lo(1)),
                     IntVect(rest.hi(0), isect.lo(1) - 1));
    rest = Box(IntVect(rest.lo(0), isect.lo(1)), rest.hi());
  }
  // above
  if (rest.hi(1) > isect.hi(1)) {
    out.emplace_back(IntVect(rest.lo(0), isect.hi(1) + 1),
                     IntVect(rest.hi(0), rest.hi(1)));
    rest = Box(rest.lo(), IntVect(rest.hi(0), isect.hi(1)));
  }
  // left
  if (rest.lo(0) < isect.lo(0)) {
    out.emplace_back(IntVect(rest.lo(0), rest.lo(1)),
                     IntVect(isect.lo(0) - 1, rest.hi(1)));
  }
  // right
  if (rest.hi(0) > isect.hi(0)) {
    out.emplace_back(IntVect(isect.hi(0) + 1, rest.lo(1)),
                     IntVect(rest.hi(0), rest.hi(1)));
  }
  return out;
}

std::string Box::to_string() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Box& b) {
  return os << "((" << b.lo(0) << ',' << b.lo(1) << ")-(" << b.hi(0) << ','
            << b.hi(1) << "))";
}

}  // namespace amrio::mesh
