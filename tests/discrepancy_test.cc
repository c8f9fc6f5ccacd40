// Tests for the max-weight rectangle module (core/discrepancy).

#include "stburst/core/discrepancy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "stburst/common/random.h"
#include "stburst/common/simd.h"
#include "stburst/geo/grid.h"

namespace stburst {
namespace {

TEST(MaxWeightRectangle, RejectsMismatchedInput) {
  EXPECT_TRUE(MaxWeightRectangle({{0, 0}}, {1.0, 2.0}).status()
                  .IsInvalidArgument());
}

TEST(MaxWeightRectangle, EmptyInput) {
  auto r = MaxWeightRectangle(std::vector<Point2D>{}, {});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->score, 0.0);
  EXPECT_TRUE(r->rect.empty());
}

TEST(MaxWeightRectangle, AllNegativeGivesEmptyResult) {
  auto r = MaxWeightRectangle({{0, 0}, {1, 1}}, {-1.0, -2.0});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->score, 0.0);
  EXPECT_TRUE(r->rect.empty());
  EXPECT_TRUE(r->points_inside.empty());
}

TEST(MaxWeightRectangle, SinglePositivePoint) {
  auto r = MaxWeightRectangle({{3, 4}}, {2.5});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->score, 2.5);
  EXPECT_TRUE(r->rect.Contains(Point2D{3, 4}));
  EXPECT_EQ(r->points_inside, (std::vector<size_t>{0}));
}

TEST(MaxWeightRectangle, ExcludesHeavyNegativePoint) {
  // Two positives flanking a strong negative: best rect takes one positive.
  std::vector<Point2D> pts = {{0, 0}, {1, 0}, {2, 0}};
  std::vector<double> w = {1.0, -5.0, 1.2};
  auto r = MaxWeightRectangle(pts, w);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->score, 1.2);
  EXPECT_EQ(r->points_inside, (std::vector<size_t>{2}));
}

TEST(MaxWeightRectangle, AbsorbsWeakNegativePoint) {
  // The same geometry with a weak negative: spanning all three wins.
  std::vector<Point2D> pts = {{0, 0}, {1, 0}, {2, 0}};
  std::vector<double> w = {1.0, -0.3, 1.2};
  auto r = MaxWeightRectangle(pts, w);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->score, 1.9, 1e-12);
  EXPECT_EQ(r->points_inside.size(), 3u);
}

TEST(MaxWeightRectangle, TwoDimensionalSelection) {
  // Positive cluster at upper-right; lone positive lower-left with a
  // negative moat between them.
  std::vector<Point2D> pts = {{0, 0}, {5, 5}, {5, 6}, {6, 5}, {3, 3}};
  std::vector<double> w = {0.5, 1.0, 1.0, 1.0, -2.0};
  auto r = MaxWeightRectangle(pts, w);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->score, 3.0);
  std::vector<size_t> inside = r->points_inside;
  std::sort(inside.begin(), inside.end());
  EXPECT_EQ(inside, (std::vector<size_t>{1, 2, 3}));
}

TEST(MaxWeightRectangle, ExcludedWeightPoisonsContainingRects) {
  // The excluded point sits amid the cluster: the best rect must avoid it.
  std::vector<Point2D> pts = {{0, 0}, {1, 0}, {2, 0}};
  std::vector<double> w = {1.0, kExcludedWeight, 1.2};
  auto r = MaxWeightRectangle(pts, w);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->score, 1.2);
  EXPECT_EQ(r->points_inside, (std::vector<size_t>{2}));
}

TEST(MaxWeightRectangle, CoincidentPointsAggregate) {
  std::vector<Point2D> pts = {{1, 1}, {1, 1}, {1, 1}};
  std::vector<double> w = {1.0, 2.0, -0.5};
  auto r = MaxWeightRectangle(pts, w);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->score, 2.5, 1e-12);
  EXPECT_EQ(r->points_inside.size(), 3u);
}

// Brute-force oracle: all candidate rectangles from pairs of point coords.
double BruteForceBest(const std::vector<Point2D>& pts,
                      const std::vector<double>& w) {
  double best = 0.0;
  const size_t n = pts.size();
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = 0; b < n; ++b) {
      for (size_t c = 0; c < n; ++c) {
        for (size_t d = 0; d < n; ++d) {
          Rect rect(pts[a].x, pts[c].y, pts[b].x, pts[d].y);
          double score = 0.0;
          for (size_t i = 0; i < n; ++i) {
            if (rect.Contains(pts[i])) score += w[i];
          }
          best = std::max(best, score);
        }
      }
    }
  }
  return best;
}

// Grid-mode oracle: the best sum over every cell range of the cols x rows
// grid over the points' bounding box, aggregated by UniformGrid itself.
double BruteForceGridBest(const std::vector<Point2D>& pts,
                          const std::vector<double>& w, size_t cols,
                          size_t rows) {
  auto grid = UniformGrid::Create(Rect::BoundingBox(pts), cols, rows);
  EXPECT_TRUE(grid.ok());
  if (!grid.ok()) return 0.0;
  const std::vector<double> cells = grid->AggregateWeights(pts, w);
  double best = 0.0;
  for (size_t r1 = 0; r1 < rows; ++r1) {
    for (size_t r2 = r1; r2 < rows; ++r2) {
      for (size_t c1 = 0; c1 < cols; ++c1) {
        for (size_t c2 = c1; c2 < cols; ++c2) {
          double score = 0.0;
          for (size_t r = r1; r <= r2; ++r) {
            for (size_t c = c1; c <= c2; ++c) score += cells[r * cols + c];
          }
          best = std::max(best, score);
        }
      }
    }
  }
  return best;
}

class MaxRectRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(MaxRectRandomTest, MatchesBruteForce) {
  Rng rng(1000 + GetParam());
  MaxRectOptions grid_opts;
  grid_opts.mode = MaxRectOptions::Mode::kGrid;
  grid_opts.grid_cols = 4;
  grid_opts.grid_rows = 4;
  // Checks both modes against their oracles, and that each reported score
  // equals the sum of weights over the reported members.
  auto check = [&](const std::vector<Point2D>& pts,
                   const std::vector<double>& w, const char* variant,
                   int trial) {
    SCOPED_TRACE(::testing::Message() << "seed " << GetParam() << " trial "
                                      << trial << " " << variant);
    auto r = MaxWeightRectangle(pts, w);
    ASSERT_TRUE(r.ok());
    EXPECT_NEAR(r->score, BruteForceBest(pts, w), 1e-9);
    double sum = 0.0;
    for (size_t i : r->points_inside) sum += w[i];
    EXPECT_NEAR(sum, r->score, 1e-9);

    auto g = MaxWeightRectangle(pts, w, grid_opts);
    ASSERT_TRUE(g.ok());
    EXPECT_NEAR(g->score,
                BruteForceGridBest(pts, w, grid_opts.grid_cols,
                                   grid_opts.grid_rows),
                1e-9);
    double grid_sum = 0.0;
    for (size_t i : g->points_inside) grid_sum += w[i];
    EXPECT_NEAR(grid_sum, g->score, 1e-9);
  };
  for (int trial = 0; trial < 20; ++trial) {
    size_t n = 3 + rng.NextUint64(8);
    std::vector<Point2D> pts(n);
    std::vector<double> w(n);
    for (size_t i = 0; i < n; ++i) {
      pts[i] = Point2D{rng.Uniform(0, 10), rng.Uniform(0, 10)};
      w[i] = rng.Uniform(-2.0, 2.0);
    }
    check(pts, w, "plain", trial);

    // The same layout with R-Bursty's exclusion poison on one point and two
    // extra points coincident with existing ones (cells that aggregate).
    std::vector<Point2D> dup_pts = pts;
    std::vector<double> dup_w = w;
    dup_w[rng.NextUint64(n)] = kExcludedWeight;
    for (int extra = 0; extra < 2; ++extra) {
      dup_pts.push_back(pts[rng.NextUint64(n)]);
      dup_w.push_back(rng.Uniform(-2.0, 2.0));
    }
    check(dup_pts, dup_w, "poisoned+coincident", trial);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxRectRandomTest, ::testing::Range(0, 10));

TEST(MaxWeightRectangleGrid, FindsClusterOnCoarseGrid) {
  MaxRectOptions opts;
  opts.mode = MaxRectOptions::Mode::kGrid;
  opts.grid_cols = 8;
  opts.grid_rows = 8;
  // Positive cluster in one corner, negatives elsewhere.
  std::vector<Point2D> pts;
  std::vector<double> w;
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    pts.push_back(Point2D{rng.Uniform(0, 2), rng.Uniform(0, 2)});
    w.push_back(1.0);
  }
  for (int i = 0; i < 20; ++i) {
    pts.push_back(Point2D{rng.Uniform(5, 10), rng.Uniform(5, 10)});
    w.push_back(-0.5);
  }
  auto r = MaxWeightRectangle(pts, w, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->score, 20.0, 1e-9);
  EXPECT_EQ(r->points_inside.size(), 20u);
}

TEST(MaxWeightRectangleGrid, CollinearPointsFallBackToExact) {
  MaxRectOptions opts;
  opts.mode = MaxRectOptions::Mode::kGrid;
  std::vector<Point2D> pts = {{0, 1}, {1, 1}, {2, 1}};
  std::vector<double> w = {1.0, -5.0, 2.0};
  auto r = MaxWeightRectangle(pts, w, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->score, 2.0);
}

// The grid can only merge points into coarser selectable sets: every set of
// points a grid rectangle selects is also the point set of some geometric
// rectangle, so the exact sweep dominates any grid resolution; and because a
// 2x-finer grid's cell boundaries refine the coarser one's, doubling the
// resolution can never lose score either.
TEST(MaxWeightRectangleGrid, ScoreMonotoneInModeAndResolution) {
  Rng rng(42);
  for (int trial = 0; trial < 10; ++trial) {
    const size_t n = 40 + rng.NextUint64(60);
    std::vector<Point2D> pts(n);
    std::vector<double> w(n);
    for (size_t i = 0; i < n; ++i) {
      pts[i] = Point2D{rng.Uniform(0, 50), rng.Uniform(0, 50)};
      w[i] = rng.Uniform(-1.5, 2.0);
    }
    auto exact = MaxWeightRectangle(pts, w);
    ASSERT_TRUE(exact.ok());

    double prev = 0.0;
    for (size_t g : {4u, 8u, 16u, 32u}) {
      MaxRectOptions opts;
      opts.mode = MaxRectOptions::Mode::kGrid;
      opts.grid_cols = g;
      opts.grid_rows = g;
      auto grid = MaxWeightRectangle(pts, w, opts);
      ASSERT_TRUE(grid.ok());
      EXPECT_LE(grid->score, exact->score + 1e-9)
          << "trial " << trial << " grid " << g;
      EXPECT_GE(grid->score, prev - 1e-9)
          << "trial " << trial << " grid " << g;
      // The reported score must match the members the binning selected.
      double sum = 0.0;
      for (size_t i : grid->points_inside) sum += w[i];
      EXPECT_NEAR(sum, grid->score, 1e-9);
      prev = grid->score;
    }
  }
}

TEST(MaxWeightRectangleGrid, RejectsZeroResolution) {
  MaxRectOptions opts;
  opts.mode = MaxRectOptions::Mode::kGrid;
  opts.grid_cols = 0;
  EXPECT_TRUE(MaxWeightRectangle({{0, 0}}, {1.0}, opts).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(SpatialBinning::Create({{0, 0}}, opts).status()
                  .IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Shared spatial binning: solving many weight vectors against one binning
// must equal building the matrix per call, result for result.
// ---------------------------------------------------------------------------

void ExpectSameResult(const MaxRectResult& a, const MaxRectResult& b) {
  EXPECT_EQ(a.score, b.score);  // exact: same floats, same fold order
  EXPECT_EQ(a.rect, b.rect);
  EXPECT_EQ(a.points_inside, b.points_inside);
}

std::vector<Point2D> RandomPoints(Rng& rng, size_t n) {
  std::vector<Point2D> pts(n);
  for (size_t i = 0; i < n; ++i) {
    pts[i] = Point2D{rng.Uniform(0, 30), rng.Uniform(0, 30)};
    // Some coincident points, so cells aggregate several weights.
    if (i > 0 && rng.Bernoulli(0.15)) pts[i] = pts[rng.NextUint64(i)];
  }
  return pts;
}

std::vector<double> RandomWeights(Rng& rng, size_t n) {
  std::vector<double> w(n);
  for (double& v : w) {
    v = rng.Uniform(-2.0, 2.0);
    if (rng.Bernoulli(0.1)) v = 0.0;              // zero-weight points
    if (rng.Bernoulli(0.05)) v = kExcludedWeight;  // R-Bursty exclusions
  }
  return w;
}

class SpatialBinningParityTest : public ::testing::TestWithParam<int> {};

TEST_P(SpatialBinningParityTest, SharedBinningMatchesPerCallConstruction) {
  Rng rng(4000 + GetParam());
  for (int mode = 0; mode < 2; ++mode) {
    MaxRectOptions opts;
    if (mode == 1) {
      opts.mode = MaxRectOptions::Mode::kGrid;
      opts.grid_cols = 16;
      opts.grid_rows = 12;
    }
    const size_t n = 5 + rng.NextUint64(60);
    std::vector<Point2D> pts = RandomPoints(rng, n);
    auto binning = SpatialBinning::Create(pts, opts);
    ASSERT_TRUE(binning.ok());
    EXPECT_EQ(binning->num_points(), n);
    // One binning, many snapshots — the mining access pattern.
    for (int snapshot = 0; snapshot < 12; ++snapshot) {
      std::vector<double> w = RandomWeights(rng, n);
      auto per_call = MaxWeightRectangle(pts, w, opts);
      auto shared = MaxWeightRectangle(*binning, w);
      ASSERT_TRUE(per_call.ok());
      ASSERT_TRUE(shared.ok());
      ExpectSameResult(*per_call, *shared);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpatialBinningParityTest,
                         ::testing::Range(0, 8));

TEST(SpatialBinning, DegenerateLayoutsMatchPerCall) {
  // Collinear and single-point layouts, where grid mode falls back to the
  // exact compression; the binned path must take the identical fallback.
  const std::vector<std::vector<Point2D>> layouts = {
      {{0, 1}, {1, 1}, {2, 1}, {3, 1}},          // horizontal line
      {{2, 0}, {2, 1}, {2, 5}, {2, 9}},          // vertical line
      {{4, 4}},                                  // single point
      {{1, 1}, {1, 1}, {1, 1}},                  // fully coincident
  };
  Rng rng(99);
  for (const auto& pts : layouts) {
    for (int mode = 0; mode < 2; ++mode) {
      MaxRectOptions opts;
      if (mode == 1) opts.mode = MaxRectOptions::Mode::kGrid;
      auto binning = SpatialBinning::Create(pts, opts);
      ASSERT_TRUE(binning.ok());
      for (int snapshot = 0; snapshot < 6; ++snapshot) {
        std::vector<double> w = RandomWeights(rng, pts.size());
        auto per_call = MaxWeightRectangle(pts, w, opts);
        auto shared = MaxWeightRectangle(*binning, w);
        ASSERT_TRUE(per_call.ok());
        ASSERT_TRUE(shared.ok());
        ExpectSameResult(*per_call, *shared);
      }
    }
  }
}

TEST(SpatialBinning, RejectsMismatchedWeights) {
  auto binning = SpatialBinning::Create({{0, 0}, {1, 1}});
  ASSERT_TRUE(binning.ok());
  EXPECT_TRUE(MaxWeightRectangle(*binning, std::vector<double>{1.0})
                  .status()
                  .IsInvalidArgument());
}

TEST(SpatialBinning, EmptyPointSet) {
  auto binning = SpatialBinning::Create({});
  ASSERT_TRUE(binning.ok());
  EXPECT_EQ(binning->rows(), 0u);
  auto r = MaxWeightRectangle(*binning, std::span<const double>{});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rect.empty());
}

TEST(SpatialBinning, RejectsNonFinitePositions) {
  // A NaN or infinite coordinate has no cell: the sort/lower_bound and the
  // grid's clamp could otherwise bin it one past the last column or row.
  const double bad_values[] = {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()};
  for (int mode = 0; mode < 2; ++mode) {
    MaxRectOptions opts;
    if (mode == 1) {
      opts.mode = MaxRectOptions::Mode::kGrid;
      opts.grid_cols = 4;
      opts.grid_rows = 4;
    }
    for (double bad : bad_values) {
      for (int axis = 0; axis < 2; ++axis) {
        std::vector<Point2D> pts = {{0, 0}, {5, 3}, {2, 7}, {9, 9}};
        (axis == 0 ? pts[2].x : pts[2].y) = bad;
        SCOPED_TRACE(::testing::Message() << "mode " << mode << " value "
                                          << bad << " axis " << axis);
        EXPECT_TRUE(SpatialBinning::Create(pts, opts).status()
                        .IsInvalidArgument());
        EXPECT_TRUE(MaxWeightRectangle(pts, {1.0, 1.0, 1.0, 1.0}, opts)
                        .status()
                        .IsInvalidArgument());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// SIMD dispatch: the AVX2 SolveCells path must produce rectangles, scores,
// and member lists bit-identical to scalar — AddInto is element-wise, so no
// fold is reassociated.
// ---------------------------------------------------------------------------

// Runs fn under scalar and under AVX2, asserting the results match
// exactly; restores the active ISA afterwards.
template <typename Fn>
void ExpectIsaInvariant(const Fn& fn) {
  const simd::Isa previous = simd::SetIsaForTest(simd::Isa::kScalar);
  MaxRectResult scalar = fn();
  simd::SetIsaForTest(simd::Isa::kAvx2);
  MaxRectResult vectorized = fn();
  simd::SetIsaForTest(previous);
  EXPECT_EQ(scalar.score, vectorized.score);
  EXPECT_EQ(scalar.rect, vectorized.rect);
  EXPECT_EQ(scalar.points_inside, vectorized.points_inside);
}

TEST(SolveCellsSimd, AllIsaLevelsBitIdentical) {
  if (!simd::Avx2Supported()) {
    GTEST_SKIP() << "CPU lacks AVX2; dispatch is scalar-only here";
  }
  Rng rng(31337);
  // Shapes spanning the deployed range: tiny, 1-D/collinear (exact-mode
  // single row/column), odd widths around the 4-lane boundary, a dense
  // exact matrix, and a 64x64 grid.
  struct Shape {
    size_t n;
    MaxRectOptions opts;
    bool collinear;
  };
  std::vector<Shape> shapes;
  for (size_t n : {1u, 3u, 4u, 5u, 17u, 63u, 200u}) {
    shapes.push_back({n, MaxRectOptions{}, false});
  }
  shapes.push_back({33, MaxRectOptions{}, true});  // 1-D layout
  {
    MaxRectOptions grid;
    grid.mode = MaxRectOptions::Mode::kGrid;
    shapes.push_back({4096, grid, false});
  }
  for (const Shape& shape : shapes) {
    std::vector<Point2D> pts(shape.n);
    for (size_t i = 0; i < shape.n; ++i) {
      pts[i] = Point2D{rng.Uniform(0, 100),
                       shape.collinear ? 7.0 : rng.Uniform(0, 100)};
    }
    auto binning = SpatialBinning::Create(pts, shape.opts);
    ASSERT_TRUE(binning.ok());
    for (int snapshot = 0; snapshot < 5; ++snapshot) {
      std::vector<double> w = RandomWeights(rng, shape.n);
      ExpectIsaInvariant([&] {
        auto r = MaxWeightRectangle(*binning, w);
        EXPECT_TRUE(r.ok());
        return r.ok() ? *r : MaxRectResult{};
      });
    }
  }
}

}  // namespace
}  // namespace stburst
