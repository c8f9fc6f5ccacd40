// Maximum bichromatic-discrepancy rectangle (paper §4, reference [5]).
//
// Given planar points with real weights (positive where a stream's observed
// frequency exceeds its expected one, negative otherwise), find the
// axis-oriented rectangle maximizing the total weight of the points inside.
// This is R-Bursty's inner module.
//
// Two modes, one sweep:
//  - kExact: rows and columns are the coordinate-compressed point
//    coordinates, so the answer is exact over all rectangles.
//  - kGrid: rows and columns are the cells of a fixed g x g grid over the
//    bounding box (the paper's §2 explicitly endorses grid partitioning of
//    the map). Used for the Figure 8 scalability sweeps with up to 128k
//    streams.
//
// The binning (bounds, grid geometry, coordinate compression, each point's
// cell, and each row's occupied cells) depends only on the point set and
// the options — never on the weights. Stream positions are fixed across
// every term and snapshot of a corpus, so SpatialBinning lets callers pay
// for that geometry once. R-Bursty shares one binning across its iterative
// extractions, STLocal across every snapshot of a term, and the batch miner
// across the entire vocabulary (see docs/ARCHITECTURE.md, "Shared spatial
// binning").
//
// A solve touches occupied cells only; there is no rows x cols matrix:
//  1. Each occupied cell sums its points' weights in ascending point order.
//  2. Row bands are anchored at rows holding a positive cell (an optimal
//     rectangle can be shrunk until its top and bottom edges touch positive
//     cells). Each band step adds only the new row's occupied cells into
//     running column sums.
//  3. Kadane's max-subarray pass runs only from the band's first to its last
//     column holding a positive cell. A column outside that range sums to
//     <= 0: before the range the running sum never rises above 0, so Kadane
//     restarts at its first column; after it no column can strictly beat the
//     best score.
// Every sum is the same floating-point operation, in the same order, as a
// scatter into a zeroed dense matrix followed by full-row adds and a
// full-width Kadane, so the rectangle, score bits and members equal that
// dense sweep's (tests/discrepancy_test.cc keeps it as the reference).
// With P positive rows, C columns, n points and W <= C the widest Kadane
// range, a solve is O(n + P · (C + n + P · W)).

#ifndef STBURST_CORE_DISCREPANCY_H_
#define STBURST_CORE_DISCREPANCY_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "stburst/common/statusor.h"
#include "stburst/geo/point.h"
#include "stburst/geo/rect.h"

namespace stburst {

/// Weight assigned to streams already reported by R-Bursty: any rectangle
/// containing such a stream is disqualified (the paper's "set B = −∞").
/// Finite so the arithmetic stays IEEE-clean; far beyond any real score.
inline constexpr double kExcludedWeight = -1e18;

struct MaxRectOptions {
  enum class Mode { kExact, kGrid };
  Mode mode = Mode::kExact;
  /// Grid resolution for kGrid mode.
  size_t grid_cols = 64;
  size_t grid_rows = 64;
};

/// The best rectangle found: its tight geometry, its score, and the indices
/// of all input points inside it. When no positive-score rectangle exists,
/// `rect` is empty, `score` is 0, and `points_inside` is empty.
struct MaxRectResult {
  Rect rect;
  double score = 0.0;
  std::vector<size_t> points_inside;
};

/// The weight-independent half of the rectangle solver: a rows x cols cell
/// geometry over the plane, the cell of every input point, and each row's
/// occupied cells, built once from a fixed point set and reused for any
/// number of weight vectors.
///
/// In kExact mode rows/columns are the coordinate-compressed point
/// coordinates; in kGrid mode they are uniform grid cells over the bounding
/// box (degenerate layouts — empty or collinear point sets, where the box
/// has no area — fall back to the exact compression, which handles 1-D
/// natively). Immutable after Create and safe to share across any number of
/// threads concurrently; valid for as long as the point set it was built
/// from stays fixed (it holds no reference to the points).
class SpatialBinning {
 public:
  /// An empty binning (zero points, zero cells); assign from Create.
  SpatialBinning() = default;

  /// Builds the binning for `points` under `options`. InvalidArgument for a
  /// non-finite (NaN or infinite) coordinate, or for a zero grid resolution
  /// in kGrid mode. O(n log n) in kExact mode (the coordinate sort), O(n +
  /// rows + cols) otherwise.
  static StatusOr<SpatialBinning> Create(const std::vector<Point2D>& points,
                                         const MaxRectOptions& options = {});

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t num_points() const { return point_row_.size(); }

  /// Geometry views (length cols()/rows()): the planar extent of each
  /// column in x and each row in y (lo == hi in exact mode).
  std::span<const double> col_lo() const { return col_lo_; }
  std::span<const double> col_hi() const { return col_hi_; }
  std::span<const double> row_lo() const { return row_lo_; }
  std::span<const double> row_hi() const { return row_hi_; }

  /// Cell of each input point (length num_points()).
  std::span<const uint32_t> point_rows() const { return point_row_; }
  std::span<const uint32_t> point_cols() const { return point_col_; }

  /// Occupied cells, row-major. Row r's cells are the indices
  /// [row_cell_begin()[r], row_cell_begin()[r + 1]) in ascending column
  /// (length rows() + 1). Cell k lies in column cell_cols()[k] and holds the
  /// points cell_points()[cell_point_begin()[k] .. cell_point_begin()[k + 1])
  /// in ascending index. Every point lies in exactly one cell.
  std::span<const uint32_t> row_cell_begin() const { return row_cell_begin_; }
  std::span<const uint32_t> cell_cols() const { return cell_col_; }
  std::span<const uint32_t> cell_point_begin() const {
    return cell_point_begin_;
  }
  std::span<const uint32_t> cell_points() const { return cell_points_; }

 private:
  // Builds the occupied-cell lists from point_row_/point_col_.
  void IndexCells();

  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> col_lo_, col_hi_;  // x-extent of each column
  std::vector<double> row_lo_, row_hi_;  // y-extent of each row
  std::vector<uint32_t> point_row_, point_col_;  // cell of each input point
  std::vector<uint32_t> row_cell_begin_;    // rows_ + 1 offsets into cells
  std::vector<uint32_t> cell_col_;          // column of each occupied cell
  std::vector<uint32_t> cell_point_begin_;  // cells + 1 offsets into points
  std::vector<uint32_t> cell_points_;       // point indices, grouped by cell
};

/// Finds the maximum-weight axis-oriented rectangle over the weighted
/// points. `points` and `weights` must have equal length. Weights equal to
/// kExcludedWeight poison any rectangle containing their point.
///
/// Builds a fresh binning per call; when solving repeatedly over a fixed
/// point set (the mining hot paths), create a SpatialBinning once and use
/// the overload below instead.
StatusOr<MaxRectResult> MaxWeightRectangle(const std::vector<Point2D>& points,
                                           const std::vector<double>& weights,
                                           const MaxRectOptions& options = {});

/// Solves against a prebuilt binning: sums `weights` (one per binned point,
/// length binning.num_points()) over the occupied cells and runs the sweep
/// (see the file comment for its cost). No allocations in steady state
/// (per-thread scratch). Identical output to the per-call overload built
/// from the same points and options (tested). Thread-safe: many threads may
/// solve against one shared binning concurrently.
StatusOr<MaxRectResult> MaxWeightRectangle(const SpatialBinning& binning,
                                           std::span<const double> weights);

}  // namespace stburst

#endif  // STBURST_CORE_DISCREPANCY_H_
