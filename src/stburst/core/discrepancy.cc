#include "stburst/core/discrepancy.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "stburst/common/logging.h"
#include "stburst/common/simd.h"
#include "stburst/geo/grid.h"

namespace stburst {

namespace {

// Per-thread scratch of the solver. `cells` is the dense rows x cols weight
// matrix; it is kept all-zero *between* solves (the touched-cell reset
// below), so a solve only pays for the cells its points actually occupy —
// never an O(rows · cols) clear. `cell_epoch` stamps which cells were
// written during the current solve, which both dedupes the touched list
// (coincident points share a cell) and distinguishes "first write" (store)
// from "accumulate" (add).
//
// LocalScratch sizes every buffer before the scatter, so nothing between the
// first weight landing in `cells` and the reset that clears it allocates: no
// std::bad_alloc can leave weights behind for the thread's next solve.
//
// Buffers stabilize at the largest binning each thread sees: R-Bursty and
// STLocal solve once per snapshot per term against a fixed binning, and the
// batch miner's workers share one binning across the whole vocabulary.
struct SolveScratch {
  std::vector<double> cells;        // row-major; all-zero between solves
  std::vector<uint32_t> cell_epoch; // epoch of the last write per cell
  uint32_t epoch = 0;               // current solve's stamp
  std::vector<size_t> touched;      // unique cell indices written this solve
  std::vector<double> col_sums;
  std::vector<double> row_pos_mass;    // positive cell mass per row
  std::vector<double> suffix_pos_mass; // positive mass in rows >= r
  std::vector<size_t> positive_rows;
};

SolveScratch& LocalScratch(size_t rows, size_t cols, size_t num_points) {
  thread_local SolveScratch scratch;
  const size_t ncells = rows * cols;
  // Grown one at a time, so a throw between the two never leaves `cells`
  // larger than the stamps that guard it.
  if (scratch.cell_epoch.size() < ncells) scratch.cell_epoch.resize(ncells, 0);
  if (scratch.cells.size() < ncells) scratch.cells.resize(ncells, 0.0);
  scratch.touched.reserve(std::min(num_points, ncells));
  scratch.col_sums.reserve(cols);
  scratch.row_pos_mass.reserve(rows);
  scratch.suffix_pos_mass.reserve(rows + 1);
  scratch.positive_rows.reserve(rows);
  if (++scratch.epoch == 0) {  // stamp wrapped: invalidate every old stamp
    std::fill(scratch.cell_epoch.begin(), scratch.cell_epoch.end(), 0u);
    scratch.epoch = 1;
  }
  scratch.touched.clear();
  return scratch;
}

// The winning rectangle in cell coordinates: rows [r1, r2], columns
// [c1, c2]. `found` is false when no rectangle has positive weight.
struct BestBand {
  double score = 0.0;
  size_t r1 = 0, r2 = 0, c1 = 0, c2 = 0;
  bool found = false;
};

// Kadane sweep over row bands with two admissible-pruning levels:
//  - anchor level: the positive mass in rows >= r1 bounds every rectangle
//    anchored at r1; suffix mass is non-increasing in r1, so once it cannot
//    beat the incumbent no later anchor can either and the sweep stops.
//  - band level: the positive mass inside [r1, r2] bounds the band's Kadane
//    score; bands that cannot beat the incumbent only accumulate column
//    sums (one simd::AddInto pass) and skip the max-subarray bookkeeping.
// Tie-breaking (strict improvement only) keeps the pruned solver's output
// independent of how many bands the bounds let it skip.
//
// The across-column pass (the col_sums + row update of every band row) goes
// through simd::AddInto — lanes are independent columns, no fold is
// reassociated, so the AVX2 and scalar paths are bit-identical (tested).
// The Kadane recurrence itself is a loop-carried dependency and stays
// scalar.
//
// Works in LocalScratch's pre-sized buffers only, so it cannot throw.
BestBand SolveCells(const SpatialBinning& b, SolveScratch& scratch) noexcept {
  BestBand best;
  const size_t rows = b.rows();
  const size_t cols = b.cols();
  if (rows == 0 || cols == 0) return best;
  const double* cells = scratch.cells.data();

  // Positive mass per row, from the touched cells alone: untouched cells
  // are zero by the scratch invariant, so this is the same per-row total
  // the old full matrix scan produced at O(points) instead of
  // O(rows · cols) — the win that makes quiet snapshots (no positive
  // cell anywhere) cost only the scatter.
  std::vector<double>& row_pos_mass = scratch.row_pos_mass;
  row_pos_mass.assign(rows, 0.0);
  for (size_t idx : scratch.touched) {
    const double v = cells[idx];
    if (v > 0.0) row_pos_mass[idx / cols] += v;
  }
  // Rows hosting positive mass: an optimal rectangle can be shrunk until
  // its top and bottom edges touch positive cells.
  std::vector<size_t>& positive_rows = scratch.positive_rows;
  positive_rows.clear();
  for (size_t r = 0; r < rows; ++r) {
    if (row_pos_mass[r] > 0.0) positive_rows.push_back(r);
  }
  if (positive_rows.empty()) return best;
  const size_t last_positive_row = positive_rows.back();

  std::vector<double>& suffix_pos_mass = scratch.suffix_pos_mass;
  suffix_pos_mass.assign(rows + 1, 0.0);
  for (size_t r = rows; r-- > 0;) {
    suffix_pos_mass[r] = suffix_pos_mass[r + 1] + row_pos_mass[r];
  }

  std::vector<double>& col_sums = scratch.col_sums;
  col_sums.resize(cols);
  for (size_t anchor = 0; anchor < positive_rows.size(); ++anchor) {
    const size_t r1 = positive_rows[anchor];
    if (suffix_pos_mass[r1] <= best.score) break;  // nor can any later anchor

    std::fill(col_sums.begin(), col_sums.end(), 0.0);
    double band_pos_mass = 0.0;
    size_t next_positive = anchor;
    // Extend the band downward through every row (non-positive rows inside
    // the band still contribute their weight), evaluating only when the
    // band's bottom edge also touches a positive row.
    for (size_t r2 = r1; r2 <= last_positive_row; ++r2) {
      const double* row = cells + r2 * cols;
      band_pos_mass += row_pos_mass[r2];
      const bool evaluate =
          positive_rows[next_positive] == r2 && band_pos_mass > best.score;
      if (positive_rows[next_positive] == r2) ++next_positive;

      simd::AddInto(col_sums.data(), row, cols);
      if (evaluate) {
        // Max-subarray recurrence over the freshly accumulated column sums.
        double run = 0.0;
        size_t run_start = 0;
        for (size_t c = 0; c < cols; ++c) {
          const double v = col_sums[c];
          if (run <= 0.0) {
            run = v;
            run_start = c;
          } else {
            run += v;
          }
          if (run > best.score) {
            best = {run, r1, r2, run_start, c, true};
          }
        }
      }
      if (next_positive >= positive_rows.size()) break;
    }
  }
  return best;
}

}  // namespace

StatusOr<SpatialBinning> SpatialBinning::Create(
    const std::vector<Point2D>& points, const MaxRectOptions& options) {
  for (const Point2D& p : points) {
    if (!std::isfinite(p.x) || !std::isfinite(p.y)) {
      return Status::InvalidArgument("point coordinates must be finite");
    }
  }
  SpatialBinning b;
  if (options.mode == MaxRectOptions::Mode::kGrid) {
    if (options.grid_cols == 0 || options.grid_rows == 0) {
      return Status::InvalidArgument("grid resolution must be positive");
    }
    Rect bounds = Rect::BoundingBox(points);
    if (bounds.empty()) return b;  // no points: zero-cell binning
    if (bounds.width() > 0.0 && bounds.height() > 0.0) {
      STB_ASSIGN_OR_RETURN(
          UniformGrid grid,
          UniformGrid::Create(bounds, options.grid_cols, options.grid_rows));
      b.rows_ = grid.rows();
      b.cols_ = grid.cols();
      b.point_col_.resize(points.size());
      b.point_row_.resize(points.size());
      for (size_t i = 0; i < points.size(); ++i) {
        size_t col, row;
        grid.CellCoords(points[i], &col, &row);
        b.point_col_[i] = static_cast<uint32_t>(col);
        b.point_row_[i] = static_cast<uint32_t>(row);
      }
      b.col_lo_.resize(b.cols_);
      b.col_hi_.resize(b.cols_);
      b.row_lo_.resize(b.rows_);
      b.row_hi_.resize(b.rows_);
      for (size_t c = 0; c < b.cols_; ++c) {
        Rect r = grid.CellRect(c, 0);
        b.col_lo_[c] = r.min_x();
        b.col_hi_[c] = r.max_x();
      }
      for (size_t r = 0; r < b.rows_; ++r) {
        Rect rr = grid.CellRect(0, r);
        b.row_lo_[r] = rr.min_y();
        b.row_hi_[r] = rr.max_y();
      }
      return b;
    }
    // Degenerate map (all points collinear): fall through to the exact
    // compression, which handles 1-D layouts natively.
  }
  std::vector<double>& xs = b.col_lo_;
  std::vector<double>& ys = b.row_lo_;
  xs.reserve(points.size());
  ys.reserve(points.size());
  for (const Point2D& p : points) {
    xs.push_back(p.x);
    ys.push_back(p.y);
  }
  std::sort(xs.begin(), xs.end());
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());
  std::sort(ys.begin(), ys.end());
  ys.erase(std::unique(ys.begin(), ys.end()), ys.end());
  b.cols_ = xs.size();
  b.rows_ = ys.size();
  b.col_hi_ = xs;
  b.row_hi_ = ys;
  b.point_col_.resize(points.size());
  b.point_row_.resize(points.size());
  auto index_of = [](const std::vector<double>& v, double key) {
    return static_cast<uint32_t>(
        std::lower_bound(v.begin(), v.end(), key) - v.begin());
  };
  for (size_t i = 0; i < points.size(); ++i) {
    b.point_col_[i] = index_of(xs, points[i].x);
    b.point_row_[i] = index_of(ys, points[i].y);
  }
  return b;
}

StatusOr<MaxRectResult> MaxWeightRectangle(const SpatialBinning& binning,
                                           std::span<const double> weights) {
  if (weights.size() != binning.num_points()) {
    return Status::InvalidArgument("weights length does not match binning");
  }
  const size_t rows = binning.rows();
  const size_t cols = binning.cols();
  if (rows == 0 || cols == 0) return MaxRectResult{};

  const size_t n = weights.size();
  SolveScratch& scratch = LocalScratch(rows, cols, n);
  // O(points) weight scatter: first touch of a cell stores, later touches
  // accumulate — the fold over a cell's coincident points runs in point
  // order, matching a scatter into a zeroed matrix.
  const std::span<const uint32_t> point_rows = binning.point_rows();
  const std::span<const uint32_t> point_cols = binning.point_cols();
  for (size_t i = 0; i < n; ++i) {
    const double w = weights[i];
    if (w == 0.0) continue;
    const size_t idx = static_cast<size_t>(point_rows[i]) * cols + point_cols[i];
    if (scratch.cell_epoch[idx] != scratch.epoch) {
      scratch.cell_epoch[idx] = scratch.epoch;
      scratch.cells[idx] = w;
      scratch.touched.push_back(idx);
    } else {
      scratch.cells[idx] += w;
    }
  }

  const BestBand best = SolveCells(binning, scratch);

  // Touched-cell reset: restore the all-zero invariant at O(points). It
  // runs before anything that can allocate (the member list below).
  for (size_t idx : scratch.touched) scratch.cells[idx] = 0.0;

  MaxRectResult result;
  if (!best.found) return result;
  result.score = best.score;
  result.rect = Rect(binning.col_lo()[best.c1], binning.row_lo()[best.r1],
                     binning.col_hi()[best.c2], binning.row_hi()[best.r2]);
  // Members come from the binned indices: exactly the points whose mass the
  // winning cells aggregated — no geometric rescan.
  for (size_t i = 0; i < n; ++i) {
    if (point_rows[i] >= best.r1 && point_rows[i] <= best.r2 &&
        point_cols[i] >= best.c1 && point_cols[i] <= best.c2) {
      result.points_inside.push_back(i);
    }
  }
  return result;
}

StatusOr<MaxRectResult> MaxWeightRectangle(const std::vector<Point2D>& points,
                                           const std::vector<double>& weights,
                                           const MaxRectOptions& options) {
  if (points.size() != weights.size()) {
    return Status::InvalidArgument("points/weights length mismatch");
  }
  if (points.empty()) return MaxRectResult{};
  STB_ASSIGN_OR_RETURN(SpatialBinning binning,
                       SpatialBinning::Create(points, options));
  return MaxWeightRectangle(binning, weights);
}

}  // namespace stburst
