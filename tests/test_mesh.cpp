/// Unit + property tests for src/mesh: Box algebra laws, BoxArray chopping,
/// distribution mappings, Fab storage, MultiFab exchange, Geometry.

#include <gtest/gtest.h>

#include <vector>

#include "mesh/boxarray.hpp"
#include "mesh/distribution.hpp"
#include "mesh/fab.hpp"
#include "mesh/geometry.hpp"
#include "mesh/morton.hpp"
#include "mesh/multifab.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace m = amrio::mesh;

// ------------------------------------------------------------------ Box

TEST(Box, DefaultIsEmpty) {
  m::Box b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.num_pts(), 0);
}

TEST(Box, BasicGeometry) {
  m::Box b(0, 0, 31, 15);
  EXPECT_TRUE(b.ok());
  EXPECT_EQ(b.length(0), 32);
  EXPECT_EQ(b.length(1), 16);
  EXPECT_EQ(b.num_pts(), 512);
  EXPECT_TRUE(b.contains({0, 0}));
  EXPECT_TRUE(b.contains({31, 15}));
  EXPECT_FALSE(b.contains({32, 0}));
  EXPECT_FALSE(b.contains({0, -1}));
}

TEST(Box, IntersectionBasics) {
  m::Box a(0, 0, 10, 10);
  m::Box b(5, 5, 15, 15);
  const m::Box i = a & b;
  EXPECT_EQ(i, m::Box(5, 5, 10, 10));
  m::Box c(20, 20, 30, 30);
  EXPECT_TRUE((a & c).empty());
  EXPECT_FALSE(a.intersects(c));
}

TEST(Box, RefineCoarsenRoundTrip) {
  const m::Box b(2, 4, 15, 31);
  EXPECT_EQ(b.refine(2).coarsen(2), b);
  EXPECT_EQ(b.refine(4).coarsen(4), b);
  // refine preserves cell count scaling
  EXPECT_EQ(b.refine(2).num_pts(), b.num_pts() * 4);
}

TEST(Box, CoarsenNegativeIndicesFloor) {
  const m::Box b(-4, -3, 3, 3);
  const m::Box c = b.coarsen(2);
  EXPECT_EQ(c.lo(0), -2);
  EXPECT_EQ(c.lo(1), -2);
  EXPECT_EQ(c.hi(0), 1);
  EXPECT_EQ(c.hi(1), 1);
}

TEST(Box, GrowAndShrink) {
  const m::Box b(4, 4, 7, 7);
  EXPECT_EQ(b.grow(2), m::Box(2, 2, 9, 9));
  EXPECT_EQ(b.grow(-1), m::Box(5, 5, 6, 6));
  EXPECT_TRUE(b.grow(-2).empty());
}

TEST(Box, ChopSplitsExactly) {
  const m::Box b(0, 0, 9, 9);
  const auto [left, right] = b.chop(0, 4);
  EXPECT_EQ(left, m::Box(0, 0, 3, 9));
  EXPECT_EQ(right, m::Box(4, 0, 9, 9));
  EXPECT_EQ(left.num_pts() + right.num_pts(), b.num_pts());
  EXPECT_THROW(b.chop(0, 0), amrio::ContractViolation);
  EXPECT_THROW(b.chop(0, 10), amrio::ContractViolation);
}

TEST(Box, AlignToFixesAlignedBoxes) {
  // an aligned box is its own alignment; any other box grows
  EXPECT_EQ(m::Box(0, 0, 7, 7).align_to(8), m::Box(0, 0, 7, 7));
  EXPECT_NE(m::Box(1, 0, 8, 7).align_to(8), m::Box(1, 0, 8, 7));
  EXPECT_EQ(m::Box(-8, 8, -1, 15).align_to(8), m::Box(-8, 8, -1, 15));
  const m::Box odd(3, 5, 9, 12);
  const m::Box aligned = odd.align_to(4);
  EXPECT_EQ(aligned, m::Box(0, 4, 11, 15));
  EXPECT_EQ(aligned.align_to(4), aligned);
  EXPECT_TRUE(aligned.contains(odd));
}

TEST(Box, DifferenceCoversExactly) {
  const m::Box b(0, 0, 9, 9);
  const m::Box hole(3, 3, 6, 6);
  const auto pieces = box_difference(b, hole);
  std::int64_t total = 0;
  for (const auto& p : pieces) {
    total += p.num_pts();
    EXPECT_TRUE(b.contains(p));
    EXPECT_FALSE(p.intersects(hole));
  }
  EXPECT_EQ(total, b.num_pts() - hole.num_pts());
  // pieces pairwise disjoint
  for (std::size_t i = 0; i < pieces.size(); ++i)
    for (std::size_t j = i + 1; j < pieces.size(); ++j)
      EXPECT_FALSE(pieces[i].intersects(pieces[j]));
}

TEST(Box, DifferenceDisjointAndContained) {
  const m::Box b(0, 0, 4, 4);
  EXPECT_EQ(box_difference(b, m::Box(10, 10, 12, 12)).size(), 1u);
  EXPECT_TRUE(box_difference(b, m::Box(-1, -1, 5, 5)).empty());
}

// Property sweep: random box pairs obey algebraic laws.
class BoxPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(BoxPropertyTest, IntersectionLaws) {
  amrio::util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 50; ++trial) {
    auto rand_box = [&rng]() {
      const int lox = static_cast<int>(rng.uniform_int(40)) - 20;
      const int loy = static_cast<int>(rng.uniform_int(40)) - 20;
      return m::Box(lox, loy, lox + static_cast<int>(rng.uniform_int(20)),
                    loy + static_cast<int>(rng.uniform_int(20)));
    };
    const m::Box a = rand_box();
    const m::Box b = rand_box();
    // commutativity
    EXPECT_EQ(a & b, b & a);
    // idempotence
    EXPECT_EQ(a & a, a);
    // intersection contained in both
    const m::Box i = a & b;
    if (i.ok()) {
      EXPECT_TRUE(a.contains(i));
      EXPECT_TRUE(b.contains(i));
    }
    // bounding box contains both
    const m::Box hull = bounding_box(a, b);
    EXPECT_TRUE(hull.contains(a));
    EXPECT_TRUE(hull.contains(b));
    // refine/coarsen round trip
    EXPECT_EQ(a.refine(2).coarsen(2), a);
    // coarsen-then-refine covers the original
    EXPECT_TRUE(a.coarsen(2).refine(2).contains(a));
    // difference partition: |b \ a| + |a ∩ b| == |b|
    std::int64_t diff_pts = 0;
    for (const auto& p : box_difference(b, a)) diff_pts += p.num_pts();
    EXPECT_EQ(diff_pts + (a & b).num_pts(), b.num_pts());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoxPropertyTest, ::testing::Values(1, 2, 3, 4, 5));

// ------------------------------------------------------------- BoxArray

TEST(BoxArray, MaxSizeRespectsBound) {
  m::BoxArray ba(m::Box(0, 0, 255, 127));
  const auto chopped = ba.max_size(64);
  EXPECT_EQ(chopped.num_pts(), ba.num_pts());
  for (const auto& b : chopped.boxes()) {
    EXPECT_LE(b.length(0), 64);
    EXPECT_LE(b.length(1), 64);
  }
  EXPECT_TRUE(chopped.is_disjoint());
}

TEST(BoxArray, MaxSizePreservesBlocking) {
  m::BoxArray ba(m::Box(0, 0, 127, 127));
  const auto chopped = ba.max_size(32, 8);
  for (const auto& b : chopped.boxes()) EXPECT_EQ(b.align_to(8), b);
}

TEST(BoxArray, Covers) {
  m::BoxArray ba({m::Box(0, 0, 7, 15), m::Box(8, 0, 15, 15)});
  EXPECT_TRUE(ba.covers(m::Box(0, 0, 15, 15)));
  EXPECT_FALSE(ba.covers(m::Box(0, 0, 16, 15)));
}

TEST(BoxArray, IsDisjointDetectsOverlap) {
  EXPECT_TRUE(m::BoxArray({m::Box(0, 0, 3, 3), m::Box(4, 0, 7, 3)}).is_disjoint());
  EXPECT_FALSE(m::BoxArray({m::Box(0, 0, 4, 4), m::Box(4, 4, 7, 7)}).is_disjoint());
}

TEST(BoxArray, RejectsEmptyBox) {
  EXPECT_THROW(m::BoxArray({m::Box()}), amrio::ContractViolation);
}

// ----------------------------------------------------------------- Morton

TEST(Morton, InterleavesBits) {
  EXPECT_EQ(m::morton_encode(0, 0), 0u);
  EXPECT_EQ(m::morton_encode(1, 0), 1u);
  EXPECT_EQ(m::morton_encode(0, 1), 2u);
  EXPECT_EQ(m::morton_encode(1, 1), 3u);
  EXPECT_EQ(m::morton_encode(2, 0), 4u);
}

TEST(Morton, MonotoneAlongDiagonalBlocks) {
  // Z-order property: the four quadrant codes of a 2x2 block are contiguous.
  const auto c00 = m::morton_encode(10, 10);
  const auto c10 = m::morton_encode(11, 10);
  const auto c01 = m::morton_encode(10, 11);
  const auto c11 = m::morton_encode(11, 11);
  EXPECT_LT(c00, c10);
  EXPECT_LT(c10, c01);
  EXPECT_LT(c01, c11);
}

// ---------------------------------------------------------- Distribution

namespace {
m::BoxArray grid_16(int box_side = 8) {
  // A 4x4 lattice of boxes.
  std::vector<m::Box> boxes;
  for (int j = 0; j < 4; ++j)
    for (int i = 0; i < 4; ++i)
      boxes.emplace_back(i * box_side, j * box_side, (i + 1) * box_side - 1,
                         (j + 1) * box_side - 1);
  return m::BoxArray(std::move(boxes));
}

/// Per-rank cell counts through boxes_of, scored the way
/// ablate_distribution scores them (max/mean, 1.0 == balanced).
double cell_imbalance(const m::DistributionMapping& dm, const m::BoxArray& ba) {
  std::vector<double> loads;
  for (int r = 0; r < dm.nranks(); ++r) {
    double cells = 0.0;
    for (const auto i : dm.boxes_of(r))
      cells += static_cast<double>(ba[i].num_pts());
    loads.push_back(cells);
  }
  return amrio::util::imbalance_factor(loads);
}
}  // namespace

class DistributionTest
    : public ::testing::TestWithParam<m::DistributionStrategy> {};

TEST_P(DistributionTest, EveryBoxOwnedByValidRank) {
  const auto ba = grid_16();
  for (int nranks : {1, 3, 4, 16, 32}) {
    const auto dm = m::DistributionMapping::make(ba, nranks, GetParam());
    EXPECT_EQ(dm.size(), ba.size());
    // the ranks' box lists partition the BoxArray: one owner per box
    std::vector<int> owners(ba.size(), 0);
    for (int r = 0; r < nranks; ++r)
      for (const auto i : dm.boxes_of(r)) ++owners.at(i);
    for (const int n : owners) EXPECT_EQ(n, 1);
  }
}

TEST_P(DistributionTest, UniformBoxesBalanceWell) {
  const auto ba = grid_16();
  const auto dm = m::DistributionMapping::make(ba, 4, GetParam());
  EXPECT_LE(cell_imbalance(dm, ba), 1.01);  // 16 equal boxes over 4 ranks
}

INSTANTIATE_TEST_SUITE_P(Strategies, DistributionTest,
                         ::testing::Values(m::DistributionStrategy::kRoundRobin,
                                           m::DistributionStrategy::kKnapsack,
                                           m::DistributionStrategy::kSfc));

TEST(Distribution, KnapsackBeatsRoundRobinOnSkewedWeights) {
  // One huge box + many small: knapsack should spread better.
  std::vector<m::Box> boxes{m::Box(0, 0, 63, 63)};
  for (int i = 0; i < 7; ++i)
    boxes.emplace_back(64 + 8 * i, 0, 64 + 8 * i + 7, 7);
  m::BoxArray ba(std::move(boxes));
  const auto rr = m::DistributionMapping::make(
      ba, 4, m::DistributionStrategy::kRoundRobin);
  const auto ks = m::DistributionMapping::make(
      ba, 4, m::DistributionStrategy::kKnapsack);
  EXPECT_LE(cell_imbalance(ks, ba), cell_imbalance(rr, ba) + 1e-12);
}

TEST(Distribution, StrategyRoundTripNames) {
  for (auto s : {m::DistributionStrategy::kRoundRobin,
                 m::DistributionStrategy::kKnapsack,
                 m::DistributionStrategy::kSfc}) {
    EXPECT_EQ(m::distribution_strategy_from_string(m::to_string(s)), s);
  }
  EXPECT_THROW(m::distribution_strategy_from_string("bogus"),
               std::invalid_argument);
}

// ------------------------------------------------------------------ Fab

TEST(Fab, IndexingComponentMajor) {
  m::Fab fab(m::Box(0, 0, 3, 3), 2);
  fab({1, 2}, 0) = 5.0;
  fab({1, 2}, 1) = -5.0;
  EXPECT_DOUBLE_EQ(fab({1, 2}, 0), 5.0);
  EXPECT_DOUBLE_EQ(fab({1, 2}, 1), -5.0);
  // component 1 starts one whole component after component 0
  EXPECT_DOUBLE_EQ(fab.data()[1 + 2 * 4], 5.0);
  EXPECT_DOUBLE_EQ(fab.data()[16 + 1 + 2 * 4], -5.0);
  EXPECT_EQ(fab.byte_size(), 16u * 2 * 8);
}

TEST(Fab, OutOfRangeThrows) {
  m::Fab fab(m::Box(0, 0, 3, 3), 1);
  EXPECT_THROW(fab({4, 0}, 0), amrio::ContractViolation);
  EXPECT_THROW(fab({0, 0}, 1), amrio::ContractViolation);
}

TEST(Fab, CopyFromIntersection) {
  m::Fab src(m::Box(0, 0, 7, 7), 1);
  src.set_val(3.0);
  m::Fab dst(m::Box(4, 4, 11, 11), 1);
  dst.set_val(0.0);
  dst.copy_from(src, 0, 0, 1);
  EXPECT_DOUBLE_EQ(dst({4, 4}, 0), 3.0);
  EXPECT_DOUBLE_EQ(dst({7, 7}, 0), 3.0);
  EXPECT_DOUBLE_EQ(dst({8, 8}, 0), 0.0);
}

TEST(Fab, MinMaxSumOverRegion) {
  m::Fab fab(m::Box(0, 0, 3, 3), 1);
  fab.set_val(1.0);
  fab({2, 2}, 0) = 10.0;
  const m::Box all(0, 0, 3, 3);
  EXPECT_DOUBLE_EQ(fab.min(all, 0), 1.0);
  EXPECT_DOUBLE_EQ(fab.max(all, 0), 10.0);
  EXPECT_DOUBLE_EQ(fab.sum(all, 0), 15.0 + 10.0);
  // restricted region excludes the spike
  const m::Box corner(0, 0, 1, 1);
  EXPECT_DOUBLE_EQ(fab.max(corner, 0), 1.0);
}

// ------------------------------------------------------------- Geometry

TEST(Geometry, CellSizesAndCorners) {
  m::Geometry g(m::Box(0, 0, 31, 31), {0.0, 0.0}, {1.0, 1.0});
  EXPECT_DOUBLE_EQ(g.cell_size(0), 1.0 / 32);
  const auto lo = g.cell_lo({16, 16});
  EXPECT_DOUBLE_EQ(lo[0], 0.5);
}

TEST(Geometry, RefineHalvesCells) {
  m::Geometry g(m::Box(0, 0, 31, 31), {0.0, 0.0}, {1.0, 1.0});
  const auto fine = g.refine(2);
  EXPECT_DOUBLE_EQ(fine.cell_size(0), g.cell_size(0) / 2);
  EXPECT_EQ(fine.domain().num_pts(), g.domain().num_pts() * 4);
}

// ------------------------------------------------------------- MultiFab

TEST(MultiFab, FillBoundaryExchangesSiblingData) {
  // two adjacent boxes; ghost cells of one must receive valid data of the other
  m::BoxArray ba({m::Box(0, 0, 7, 7), m::Box(8, 0, 15, 7)});
  auto dm = m::DistributionMapping::make(ba, 1, m::DistributionStrategy::kRoundRobin);
  m::MultiFab mf(ba, dm, 1, 2);
  mf.fab(0).set_val(1.0);
  mf.fab(1).set_val(2.0);
  mf.fill_boundary();
  // ghost of box 0 at x=8 must now hold box 1's value
  EXPECT_DOUBLE_EQ(mf.fab(0)({8, 3}, 0), 2.0);
  EXPECT_DOUBLE_EQ(mf.fab(1)({7, 3}, 0), 1.0);
  // valid data untouched
  EXPECT_DOUBLE_EQ(mf.fab(0)({7, 3}, 0), 1.0);
}

TEST(MultiFab, CopyValidFromOverlap) {
  m::BoxArray src_ba(m::Box(0, 0, 15, 15));
  m::BoxArray dst_ba(m::Box(8, 8, 23, 23));
  auto dm1 = m::DistributionMapping::make(src_ba, 1, m::DistributionStrategy::kRoundRobin);
  auto dm2 = m::DistributionMapping::make(dst_ba, 1, m::DistributionStrategy::kRoundRobin);
  m::MultiFab src(src_ba, dm1, 1, 0);
  m::MultiFab dst(dst_ba, dm2, 1, 0);
  src.fab(0).set_val(7.0);
  dst.copy_valid_from(src, 0, 0, 1);
  EXPECT_DOUBLE_EQ(dst.fab(0)({8, 8}, 0), 7.0);
  EXPECT_DOUBLE_EQ(dst.fab(0)({15, 15}, 0), 7.0);
  EXPECT_DOUBLE_EQ(dst.fab(0)({16, 16}, 0), 0.0);
}

TEST(MultiFab, SumOverValidCells) {
  // ghost cells hold 2.0 too but stay out of the sum
  m::BoxArray ba({m::Box(0, 0, 3, 3), m::Box(4, 0, 7, 3)});
  auto dm = m::DistributionMapping::make(ba, 1, m::DistributionStrategy::kRoundRobin);
  m::MultiFab mf(ba, dm, 1, 1);
  for (std::size_t i = 0; i < mf.nfabs(); ++i) mf.fab(i).set_val(2.0);
  mf.fab(1)({5, 1}, 0) = -3.0;
  EXPECT_DOUBLE_EQ(mf.sum(0), 2.0 * 31 - 3.0);
}
