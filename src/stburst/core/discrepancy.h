// Maximum bichromatic-discrepancy rectangle (paper §4, reference [5]).
//
// Given planar points with real weights (positive where a stream's observed
// frequency exceeds its expected one, negative otherwise), find the
// axis-oriented rectangle maximizing the total weight of the points inside.
// This is R-Bursty's inner module.
//
// Two modes:
//  - kExact: coordinate-compressed Kadane sweep over row bands. Candidate
//    bands are anchored at rows containing positive-weight points (an
//    optimal rectangle can always be shrunk until each horizontal edge
//    touches a positive point), giving O(P · R · C) for P positive rows, R
//    total rows, C columns — comfortably fast for the hundreds of streams
//    the paper's real datasets have and exact for result-quality
//    experiments.
//  - kGrid: aggregates weights onto a fixed g x g grid first (the paper's §2
//    explicitly endorses grid partitioning of the map), then runs the same
//    sweep in O(n + g^3) independent of the stream count. Used for the
//    Figure 8 scalability sweeps with up to 128k streams.
//
// The binning (bounds, grid geometry, coordinate compression, and each
// point's cell) depends only on the point set and the options — never on
// the weights. Stream positions are fixed across every term and snapshot
// of a corpus, so SpatialBinning lets callers pay for that geometry once:
// each solve is then an O(points) weight scatter plus the sweep.
// R-Bursty shares one binning across its iterative extractions, STLocal
// across every snapshot of a term, and the batch miner across the entire
// vocabulary (see docs/ARCHITECTURE.md, "Shared spatial binning").

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
/// geometry over the plane plus the cell of every input point, built once
/// from a fixed point set and reused for any number of weight vectors.
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
  /// in kGrid mode. O(n log n).
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

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> col_lo_, col_hi_;  // x-extent of each column
  std::vector<double> row_lo_, row_hi_;  // y-extent of each row
  std::vector<uint32_t> point_row_, point_col_;  // cell of each input point
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

/// Solves against a prebuilt binning: scatters `weights` (one per binned
/// point, length binning.num_points()) into the cells and runs the sweep.
/// O(points) scatter + O(P · R · C) sweep, no allocations in steady state
/// (per-thread scratch). Identical output to the per-call overload built
/// from the same points and options (tested). Thread-safe: many threads may
/// solve against one shared binning concurrently.
StatusOr<MaxRectResult> MaxWeightRectangle(const SpatialBinning& binning,
                                           std::span<const double> weights);

}  // namespace stburst

#endif  // STBURST_CORE_DISCREPANCY_H_
