#include "mesh/boxarray.hpp"

#include <algorithm>
#include <deque>

#include "util/assert.hpp"

namespace amrio::mesh {

BoxArray::BoxArray(std::vector<Box> boxes) : boxes_(std::move(boxes)) {
  for (const auto& b : boxes_) AMRIO_EXPECTS_MSG(b.ok(), "empty box in BoxArray");
}

BoxArray::BoxArray(const Box& single) {
  AMRIO_EXPECTS(single.ok());
  boxes_.push_back(single);
}

std::int64_t BoxArray::num_pts() const {
  std::int64_t total = 0;
  for (const auto& b : boxes_) total += b.num_pts();
  return total;
}

BoxArray BoxArray::max_size(int max_size, int blocking) const {
  AMRIO_EXPECTS(max_size >= 1);
  AMRIO_EXPECTS(blocking >= 1);
  std::vector<Box> out;
  std::deque<Box> work(boxes_.begin(), boxes_.end());
  while (!work.empty()) {
    Box b = work.front();
    work.pop_front();
    int dir = -1;
    for (int d = 0; d < kSpaceDim; ++d) {
      if (b.length(d) > max_size) {
        // chop the longest offending dimension first for squarer pieces
        if (dir < 0 || b.length(d) > b.length(dir)) dir = d;
      }
    }
    if (dir < 0) {
      out.push_back(b);
      continue;
    }
    // Preferred split point: middle, rounded to a blocking multiple.
    const std::int64_t len = b.length(dir);
    std::int64_t half = len / 2;
    if (blocking > 1) {
      half = (half / blocking) * blocking;
      if (half == 0) half = std::min<std::int64_t>(blocking, len - 1);
    }
    const int pos = b.lo(dir) + static_cast<int>(half);
    if (pos <= b.lo(dir) || pos > b.hi(dir)) {
      out.push_back(b);  // cannot split further without breaking blocking
      continue;
    }
    auto [left, right] = b.chop(dir, pos);
    work.push_back(left);
    work.push_back(right);
  }
  return BoxArray(std::move(out));
}

BoxArray BoxArray::refine(int ratio) const {
  std::vector<Box> out;
  out.reserve(boxes_.size());
  for (const auto& b : boxes_) out.push_back(b.refine(ratio));
  return BoxArray(std::move(out));
}

bool BoxArray::covers(const Box& b) const {
  if (b.empty()) return true;
  // Subtract every box from `b`; covered iff nothing remains.
  std::vector<Box> remaining{b};
  for (const auto& mine : boxes_) {
    std::vector<Box> next;
    for (const auto& piece : remaining) {
      auto diff = box_difference(piece, mine);
      next.insert(next.end(), diff.begin(), diff.end());
    }
    remaining = std::move(next);
    if (remaining.empty()) return true;
  }
  return remaining.empty();
}

bool BoxArray::is_disjoint() const {
  for (std::size_t i = 0; i < boxes_.size(); ++i)
    for (std::size_t j = i + 1; j < boxes_.size(); ++j)
      if (boxes_[i].intersects(boxes_[j])) return false;
  return true;
}

}  // namespace amrio::mesh
