#include "stburst/core/discrepancy.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>

#include "stburst/geo/grid.h"

namespace stburst {

namespace {

constexpr uint32_t kNoColumn = std::numeric_limits<uint32_t>::max();

// Per-thread scratch of the solver, resized per solve and fully rewritten
// by it, so nothing carries over from one solve to the next. Buffers
// stabilize at the largest binning each thread sees: R-Bursty and STLocal
// solve once per snapshot per term against a fixed binning, and the batch
// miner's workers share one binning across the whole vocabulary.
struct SolveScratch {
  std::vector<double> cell_sums;        // per occupied cell
  std::vector<uint32_t> row_first;      // per row: first/last column of a
  std::vector<uint32_t> row_last;       //   cell not <= 0 (kNoColumn/0: none)
  std::vector<uint32_t> positive_rows;  // rows holding a positive cell
  std::vector<double> positive_mass;    // per positive row: its positive mass
  std::vector<double> suffix_mass;      // per positive row: mass from it down
  std::vector<std::pair<uint32_t, double>> row_positives;  // one row's cells
  std::vector<double> col_sums;
};

// The winning rectangle in cell coordinates: rows [r1, r2], columns
// [c1, c2]. `found` is false when no rectangle has positive weight.
struct BestBand {
  double score = 0.0;
  size_t r1 = 0, r2 = 0, c1 = 0, c2 = 0;
  bool found = false;
};

// Index of the first point of cell k whose weight is not zero: the point
// whose scatter into a zeroed matrix would first write the cell.
uint32_t FirstWrite(const SpatialBinning& b, std::span<const double> weights,
                    size_t k) {
  const std::span<const uint32_t> points = b.cell_points();
  for (uint32_t p = b.cell_point_begin()[k];; ++p) {
    if (weights[points[p]] != 0.0) return points[p];
  }
}

// Sums every occupied cell and derives, per row, the column range of its
// cells that are not <= 0 and, per row holding a positive cell, its
// positive mass.
//
// A cell's fold starts at +0.0 and adds its points in ascending index: the
// bits a scatter into a zeroed matrix leaves there. A row's positive mass
// adds its positive cells in the order that scatter first writes them, so
// the pruning bounds below compare the very same numbers as the dense
// sweep.
void SumCells(const SpatialBinning& b, std::span<const double> weights,
              SolveScratch& s) {
  const std::span<const uint32_t> row_begin = b.row_cell_begin();
  const std::span<const uint32_t> cell_cols = b.cell_cols();
  const std::span<const uint32_t> point_begin = b.cell_point_begin();
  const std::span<const uint32_t> points = b.cell_points();
  s.cell_sums.resize(cell_cols.size());
  s.row_first.resize(b.rows());
  s.row_last.resize(b.rows());
  s.positive_rows.clear();
  s.positive_mass.clear();
  for (size_t r = 0; r < b.rows(); ++r) {
    uint32_t first = kNoColumn;
    uint32_t last = 0;
    s.row_positives.clear();
    for (size_t k = row_begin[r]; k < row_begin[r + 1]; ++k) {
      double v = 0.0;
      for (size_t p = point_begin[k]; p < point_begin[k + 1]; ++p) {
        v += weights[points[p]];
      }
      s.cell_sums[k] = v;
      // NaN counts here too: a column holding one is not known to be <= 0.
      if (!(v <= 0.0)) {
        if (first == kNoColumn) first = cell_cols[k];
        last = cell_cols[k];
        if (v > 0.0) s.row_positives.emplace_back(FirstWrite(b, weights, k), v);
      }
    }
    s.row_first[r] = first;
    s.row_last[r] = last;
    if (s.row_positives.empty()) continue;
    std::sort(s.row_positives.begin(), s.row_positives.end());
    double mass = 0.0;
    for (const auto& [write, v] : s.row_positives) mass += v;
    s.positive_rows.push_back(static_cast<uint32_t>(r));
    s.positive_mass.push_back(mass);
  }
}

// Kadane sweep over row bands with two admissible-pruning levels:
//  - anchor level: the positive mass in rows >= r1 bounds every rectangle
//    anchored at r1; suffix mass is non-increasing in r1, so once it cannot
//    beat the incumbent no later anchor can either and the sweep stops.
//  - band level: the positive mass inside [r1, r2] bounds the band's Kadane
//    score; bands that cannot beat the incumbent only accumulate column
//    sums and skip the max-subarray pass.
// Tie-breaking (strict improvement only) keeps the pruned solver's output
// independent of how many bands the bounds let it skip.
BestBand SolveCells(const SpatialBinning& b, SolveScratch& s) {
  BestBand best;
  const size_t num_positive = s.positive_rows.size();
  if (num_positive == 0) return best;

  s.suffix_mass.resize(num_positive);
  double suffix = 0.0;
  for (size_t i = num_positive; i-- > 0;) {
    suffix += s.positive_mass[i];
    s.suffix_mass[i] = suffix;
  }

  const std::span<const uint32_t> row_begin = b.row_cell_begin();
  const std::span<const uint32_t> cell_cols = b.cell_cols();
  const double* cell_sums = s.cell_sums.data();
  s.col_sums.resize(b.cols());
  double* col_sums = s.col_sums.data();
  for (size_t anchor = 0; anchor < num_positive; ++anchor) {
    if (s.suffix_mass[anchor] <= best.score) break;  // nor can a later one
    const size_t r1 = s.positive_rows[anchor];

    std::fill_n(col_sums, b.cols(), 0.0);
    double band_mass = 0.0;
    size_t next_positive = anchor;
    uint32_t lo = kNoColumn;  // band's first/last column holding a cell
    uint32_t hi = 0;          // not <= 0
    // Extend the band downward through every row (rows without a positive
    // cell still contribute their weight), evaluating only when the band's
    // bottom edge also touches a positive row.
    for (size_t r2 = r1;; ++r2) {
      for (size_t k = row_begin[r2]; k < row_begin[r2 + 1]; ++k) {
        col_sums[cell_cols[k]] += cell_sums[k];
      }
      lo = std::min(lo, s.row_first[r2]);
      hi = std::max(hi, s.row_last[r2]);
      if (s.positive_rows[next_positive] != r2) continue;
      band_mass += s.positive_mass[next_positive];
      if (band_mass > best.score) {
        // Max-subarray recurrence over the band's positive column range.
        double run = 0.0;
        size_t run_start = lo;
        for (size_t c = lo; c <= hi; ++c) {
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
      if (++next_positive == num_positive) break;
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
      b.IndexCells();
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
  b.IndexCells();
  return b;
}

void SpatialBinning::IndexCells() {
  // Two stable counting sorts, by column and then by row, leave the points
  // ordered by (row, column, index); each run of one (row, column) is a
  // cell.
  const size_t n = point_row_.size();
  std::vector<uint32_t> by_col(n);
  {
    std::vector<uint32_t> start(cols_ + 1, 0);
    for (uint32_t c : point_col_) ++start[c + 1];
    for (size_t c = 0; c < cols_; ++c) start[c + 1] += start[c];
    for (size_t i = 0; i < n; ++i) {
      by_col[start[point_col_[i]]++] = static_cast<uint32_t>(i);
    }
  }
  std::vector<uint32_t> start(rows_ + 1, 0);
  for (uint32_t r : point_row_) ++start[r + 1];
  for (size_t r = 0; r < rows_; ++r) start[r + 1] += start[r];
  cell_points_.resize(n);
  for (uint32_t i : by_col) cell_points_[start[point_row_[i]]++] = i;

  row_cell_begin_.assign(rows_ + 1, 0);
  cell_col_.clear();
  cell_point_begin_.clear();
  for (size_t k = 0; k < n; ++k) {
    const uint32_t i = cell_points_[k];
    if (k == 0 || point_row_[i] != point_row_[cell_points_[k - 1]] ||
        point_col_[i] != point_col_[cell_points_[k - 1]]) {
      cell_col_.push_back(point_col_[i]);
      cell_point_begin_.push_back(static_cast<uint32_t>(k));
      ++row_cell_begin_[point_row_[i] + 1];
    }
  }
  cell_point_begin_.push_back(static_cast<uint32_t>(n));
  for (size_t r = 0; r < rows_; ++r) {
    row_cell_begin_[r + 1] += row_cell_begin_[r];
  }
}

StatusOr<MaxRectResult> MaxWeightRectangle(const SpatialBinning& binning,
                                           std::span<const double> weights) {
  if (weights.size() != binning.num_points()) {
    return Status::InvalidArgument("weights length does not match binning");
  }
  if (binning.rows() == 0 || binning.cols() == 0) return MaxRectResult{};

  thread_local SolveScratch scratch;
  SumCells(binning, weights, scratch);
  const BestBand best = SolveCells(binning, scratch);

  MaxRectResult result;
  if (!best.found) return result;
  result.score = best.score;
  result.rect = Rect(binning.col_lo()[best.c1], binning.row_lo()[best.r1],
                     binning.col_hi()[best.c2], binning.row_hi()[best.r2]);
  // Members come from the binned indices: exactly the points whose mass the
  // winning cells aggregated — no geometric rescan.
  const std::span<const uint32_t> point_rows = binning.point_rows();
  const std::span<const uint32_t> point_cols = binning.point_cols();
  for (size_t i = 0; i < weights.size(); ++i) {
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
