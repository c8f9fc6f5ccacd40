// Tests for the max-weight rectangle module (core/discrepancy).

#include "stburst/core/discrepancy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "stburst/common/random.h"
#include "stburst/core/rbursty.h"
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
// Bit-exact differential oracle: the solver against the dense sweep it
// replaced, which scatters the weights into a zeroed rows x cols matrix,
// adds full rows into the column sums and runs Kadane over every column.
// Score, rectangle and members must match bit for bit, for single solves
// and for R-Bursty's iterated extractions.
// ---------------------------------------------------------------------------

MaxRectResult DenseSweep(const SpatialBinning& b,
                         const std::vector<double>& w) {
  MaxRectResult result;
  const size_t rows = b.rows();
  const size_t cols = b.cols();
  if (rows == 0 || cols == 0) return result;
  std::vector<double> cells(rows * cols, 0.0);
  std::vector<bool> written(rows * cols, false);
  std::vector<size_t> touched;  // cells in the order the scatter writes them
  for (size_t i = 0; i < w.size(); ++i) {
    if (w[i] == 0.0) continue;
    const size_t idx = size_t{b.point_rows()[i]} * cols + b.point_cols()[i];
    if (!written[idx]) touched.push_back(idx);
    written[idx] = true;
    cells[idx] += w[i];
  }
  std::vector<double> row_pos_mass(rows, 0.0);
  for (size_t idx : touched) {
    if (cells[idx] > 0.0) row_pos_mass[idx / cols] += cells[idx];
  }
  std::vector<size_t> positive_rows;
  for (size_t r = 0; r < rows; ++r) {
    if (row_pos_mass[r] > 0.0) positive_rows.push_back(r);
  }
  if (positive_rows.empty()) return result;
  std::vector<double> suffix_pos_mass(rows + 1, 0.0);
  for (size_t r = rows; r-- > 0;) {
    suffix_pos_mass[r] = suffix_pos_mass[r + 1] + row_pos_mass[r];
  }

  double best = 0.0;
  size_t best_r1 = 0, best_r2 = 0, best_c1 = 0, best_c2 = 0;
  bool found = false;
  std::vector<double> col_sums(cols);
  for (size_t anchor = 0; anchor < positive_rows.size(); ++anchor) {
    const size_t r1 = positive_rows[anchor];
    if (suffix_pos_mass[r1] <= best) break;
    std::fill(col_sums.begin(), col_sums.end(), 0.0);
    double band_pos_mass = 0.0;
    size_t next_positive = anchor;
    for (size_t r2 = r1; r2 <= positive_rows.back(); ++r2) {
      band_pos_mass += row_pos_mass[r2];
      const bool evaluate =
          positive_rows[next_positive] == r2 && band_pos_mass > best;
      if (positive_rows[next_positive] == r2) ++next_positive;
      for (size_t c = 0; c < cols; ++c) col_sums[c] += cells[r2 * cols + c];
      if (evaluate) {
        double run = 0.0;
        size_t run_start = 0;
        for (size_t c = 0; c < cols; ++c) {
          if (run <= 0.0) {
            run = col_sums[c];
            run_start = c;
          } else {
            run += col_sums[c];
          }
          if (run > best) {
            best = run;
            best_r1 = r1;
            best_r2 = r2;
            best_c1 = run_start;
            best_c2 = c;
            found = true;
          }
        }
      }
      if (next_positive >= positive_rows.size()) break;
    }
  }
  if (!found) return result;
  result.score = best;
  result.rect = Rect(b.col_lo()[best_c1], b.row_lo()[best_r1],
                     b.col_hi()[best_c2], b.row_hi()[best_r2]);
  for (size_t i = 0; i < w.size(); ++i) {
    if (b.point_rows()[i] >= best_r1 && b.point_rows()[i] <= best_r2 &&
        b.point_cols()[i] >= best_c1 && b.point_cols()[i] <= best_c2) {
      result.points_inside.push_back(i);
    }
  }
  return result;
}

// R-Bursty's extraction loop (core/rbursty.cc) over the dense sweep.
std::vector<BurstyRectangle> DenseRBursty(const SpatialBinning& b,
                                          std::vector<double> w,
                                          size_t max_rectangles) {
  std::vector<BurstyRectangle> out;
  while (out.size() < max_rectangles) {
    const MaxRectResult best = DenseSweep(b, w);
    if (best.score <= 0.0) break;
    BurstyRectangle rect{best.rect, best.score, {}};
    for (size_t idx : best.points_inside) {
      rect.streams.push_back(static_cast<StreamId>(idx));
      w[idx] = kExcludedWeight;
    }
    out.push_back(std::move(rect));
  }
  return out;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectBitIdentical(const Rect& a, const Rect& b) {
  EXPECT_TRUE(SameBits(a.min_x(), b.min_x()) &&
              SameBits(a.min_y(), b.min_y()) &&
              SameBits(a.max_x(), b.max_x()) && SameBits(a.max_y(), b.max_y()))
      << a.ToString() << " vs " << b.ToString();
}

// The occupied-cell lists: row-ordered, ascending columns within a row,
// ascending points within a cell, each point in exactly one cell, and that
// cell is the point's own.
void ExpectValidCellLists(const SpatialBinning& b) {
  const auto row_begin = b.row_cell_begin();
  const auto cell_cols = b.cell_cols();
  const auto point_begin = b.cell_point_begin();
  const auto points = b.cell_points();
  ASSERT_EQ(row_begin.size(), b.rows() + 1);
  ASSERT_EQ(row_begin.front(), 0u);
  ASSERT_EQ(row_begin.back(), cell_cols.size());
  ASSERT_EQ(point_begin.size(), cell_cols.size() + 1);
  ASSERT_EQ(point_begin.front(), 0u);
  ASSERT_EQ(point_begin.back(), b.num_points());
  ASSERT_EQ(points.size(), b.num_points());
  std::vector<int> seen(b.num_points(), 0);
  for (size_t r = 0; r < b.rows(); ++r) {
    ASSERT_LE(row_begin[r], row_begin[r + 1]);
    for (size_t k = row_begin[r]; k < row_begin[r + 1]; ++k) {
      ASSERT_LT(cell_cols[k], b.cols());
      if (k > row_begin[r]) {
        ASSERT_LT(cell_cols[k - 1], cell_cols[k]);
      }
      ASSERT_LT(point_begin[k], point_begin[k + 1]) << "empty cell " << k;
      for (size_t p = point_begin[k]; p < point_begin[k + 1]; ++p) {
        if (p > point_begin[k]) {
          ASSERT_LT(points[p - 1], points[p]);
        }
        const uint32_t i = points[p];
        ASSERT_LT(i, b.num_points());
        EXPECT_EQ(b.point_rows()[i], r);
        EXPECT_EQ(b.point_cols()[i], cell_cols[k]);
        ++seen[i];
      }
    }
  }
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], 1) << "point " << i;
  }
}

struct Pack {
  std::string name;
  std::vector<Point2D> points;
  MaxRectOptions options;
  std::vector<std::vector<double>> planes;
};

MaxRectOptions GridOptions(size_t g) {
  MaxRectOptions opts;
  opts.mode = MaxRectOptions::Mode::kGrid;
  opts.grid_cols = g;
  opts.grid_rows = g;
  return opts;
}

std::vector<Pack> AdversarialPacks() {
  Rng rng(2604);
  std::vector<Pack> packs;
  auto uniform_planes = [&rng](Pack& pack, int count, double lo, double hi) {
    for (int p = 0; p < count; ++p) {
      std::vector<double> w(pack.points.size());
      for (double& v : w) v = rng.Uniform(lo, hi);
      pack.planes.push_back(std::move(w));
    }
  };
  {
    // Ties: a small lattice with repeats and weights on a 1/64 grid, so
    // many rectangles score exactly alike.
    Pack pack{"ties_1_64", {}, {}, {}};
    for (int i = 0; i < 48; ++i) {
      pack.points.push_back(Point2D{static_cast<double>(rng.NextUint64(6)),
                                    static_cast<double>(rng.NextUint64(6))});
    }
    for (int p = 0; p < 60; ++p) {
      std::vector<double> w(pack.points.size());
      for (double& v : w) {
        v = (static_cast<double>(rng.NextUint64(257)) - 128.0) / 64.0;
      }
      pack.planes.push_back(std::move(w));
    }
    packs.push_back(std::move(pack));
  }
  {
    Pack pack{"excluded", RandomPoints(rng, 40), {}, {}};
    uniform_planes(pack, 40, -1.0, 1.5);
    for (auto& w : pack.planes) {
      for (double& v : w) {
        if (rng.Bernoulli(0.2)) v = kExcludedWeight;
      }
    }
    packs.push_back(std::move(pack));
  }
  {
    // Coincident points on three rows of eight positions, many of weight 0:
    // rows hold several positive cells whose first nonzero point is not
    // their first point, and cell sums round in point order.
    Pack pack{"coincident", {}, {}, {}};
    for (int i = 0; i < 72; ++i) {
      pack.points.push_back(Point2D{static_cast<double>(rng.NextUint64(8)),
                                    static_cast<double>(rng.NextUint64(3))});
    }
    uniform_planes(pack, 80, -1.0, 2.0);
    for (auto& w : pack.planes) {
      for (double& v : w) {
        if (rng.Bernoulli(0.3)) v = 0.0;
      }
    }
    // One cell whose first point weighs 0 and whose later points write it.
    pack.points.insert(pack.points.end(), {{9, 1}, {9, 1}, {9, 1}});
    for (auto& w : pack.planes) w.insert(w.end(), {0.0, 0.7, 0.4});
    packs.push_back(std::move(pack));
  }
  {
    // Row 1's positive cells sum to 1 + 2^-52 in column order but to 1 in
    // the order the scatter first writes them (the x = 4 cell first), and
    // the dense sweep's anchor bound uses the latter: it stops at row 1,
    // whose mass no longer beats row 0's lone 1, and reports that 1.
    const double tiny = std::ldexp(1.0, -53);
    packs.push_back(
        Pack{"first_write_order",
             {{4, 1}, {2, 1}, {3, 1}, {0, 0}, {2, 0}, {3, 0}, {4, 0}},
             {},
             {{1.0, tiny, tiny, 1.0, -100.0, -100.0, -100.0}}});
  }
  {
    Pack row{"single_row", {}, {}, {}};
    Pack col{"single_column", {}, {}, {}};
    for (int i = 0; i < 30; ++i) {
      const double at = static_cast<double>(rng.NextUint64(20));
      row.points.push_back(Point2D{at, 5.0});
      col.points.push_back(Point2D{5.0, at});
    }
    uniform_planes(row, 40, -1.0, 1.0);
    uniform_planes(col, 40, -1.0, 1.0);
    packs.push_back(std::move(row));
    packs.push_back(std::move(col));
  }
  {
    // batch_mine's shape: 181 distinct streams, dense negative weights and
    // one to three positives.
    Pack pack{"corpus_shape", {}, {}, {}};
    for (int i = 0; i < 181; ++i) {
      pack.points.push_back(Point2D{rng.Uniform(0, 100), rng.Uniform(0, 100)});
    }
    for (int p = 0; p < 60; ++p) {
      std::vector<double> w(pack.points.size());
      for (double& v : w) v = -rng.Uniform(0.01, 0.4);
      for (uint64_t k = 1 + rng.NextUint64(3); k > 0; --k) {
        w[rng.NextUint64(w.size())] = rng.Uniform(0.2, 3.0);
      }
      pack.planes.push_back(std::move(w));
    }
    packs.push_back(std::move(pack));
  }
  {
    Pack pack{"grid_4x4", RandomPoints(rng, 200), GridOptions(4), {}};
    uniform_planes(pack, 30, -1.0, 1.0);
    packs.push_back(std::move(pack));
  }
  {
    Pack pack{"grid_64x64", RandomPoints(rng, 4000), GridOptions(64), {}};
    uniform_planes(pack, 4, -1.0, 1.0);
    packs.push_back(std::move(pack));
  }
  return packs;
}

TEST(DenseSweepOracle, SolverAndRBurstyAreBitIdentical) {
  constexpr size_t kMaxRectangles = 12;
  RBurstyOptions rbursty_opts;
  rbursty_opts.max_rectangles = kMaxRectangles;
  for (const Pack& pack : AdversarialPacks()) {
    SCOPED_TRACE(pack.name);
    auto binning = SpatialBinning::Create(pack.points, pack.options);
    ASSERT_TRUE(binning.ok());
    ExpectValidCellLists(*binning);
    size_t found = 0;
    for (size_t p = 0; p < pack.planes.size(); ++p) {
      SCOPED_TRACE(::testing::Message() << "plane " << p);
      const std::vector<double>& w = pack.planes[p];
      const MaxRectResult want = DenseSweep(*binning, w);
      auto got = MaxWeightRectangle(*binning, w);
      ASSERT_TRUE(got.ok());
      EXPECT_TRUE(SameBits(got->score, want.score))
          << got->score << " vs " << want.score;
      ExpectBitIdentical(got->rect, want.rect);
      EXPECT_EQ(got->points_inside, want.points_inside);
      if (want.score > 0.0) ++found;

      const std::vector<BurstyRectangle> want_rects =
          DenseRBursty(*binning, w, kMaxRectangles);
      auto got_rects = RBursty(*binning, w, rbursty_opts);
      ASSERT_TRUE(got_rects.ok());
      ASSERT_EQ(got_rects->size(), want_rects.size());
      for (size_t i = 0; i < want_rects.size(); ++i) {
        EXPECT_TRUE(SameBits((*got_rects)[i].score, want_rects[i].score));
        ExpectBitIdentical((*got_rects)[i].rect, want_rects[i].rect);
        EXPECT_EQ((*got_rects)[i].streams, want_rects[i].streams);
      }
    }
    EXPECT_GT(found, 0u) << "the pack never has a positive rectangle";
  }
}

}  // namespace
}  // namespace stburst
