// Temporal burstiness (paper §3, Eq. 1; reference [14]).
//
// Given the frequency sequence Y of a term in one stream, the burstiness of
// an interval I is
//     B_T(I) = sum_{i in I} Y[i] / W  -  |I| / N,
// with W the total frequency and N the sequence length — the discrepancy
// between the interval's share of occurrences and its share of the timeline.
// Since B_T is additive over the per-timestamp scores s_i = Y[i]/W − 1/N,
// the non-overlapping maximal bursty intervals of [14] are exactly the
// Ruzzo–Tompa maximal segments of s, extracted in linear time.
//
// A (term, stream) row of a live window is almost all zeros, and a zero
// cell scores exactly −1/N. BurstyIntervalExtractor therefore reads a row
// as its occupied cells: the scores before the first one reduce to a
// cached running sum, the zeros after the last one cannot open or extend a
// segment, and only the zeros in between are fed one by one. The span
// entries gather a dense row's nonzero cells and call the same routine, so
// every caller gets the bits the dense score loop would give.

#ifndef STBURST_CORE_TEMPORAL_H_
#define STBURST_CORE_TEMPORAL_H_

#include <cstddef>
#include <span>
#include <vector>

#include "stburst/core/getmax.h"
#include "stburst/core/interval.h"

namespace stburst {

/// A bursty temporal interval with its B_T score (always in (0, 1] for
/// extracted intervals).
struct BurstyInterval {
  Interval interval;
  double burstiness = 0.0;
};

/// B_T(I) of Eq. 1 for an arbitrary interval. Returns 0 when the sequence
/// has no mass or the interval is invalid/out of range. Takes a span so
/// zero-copy TermSeries rows flow in without materializing a vector.
double TemporalBurstiness(std::span<const double> y, const Interval& interval);

/// One occupied cell of a row: its column and its value.
struct RowCell {
  size_t column = 0;
  double value = 0.0;
};

/// The one bursty-interval extraction routine, over a row given as its
/// occupied cells. Holds reusable scratch, so keep one per thread (the
/// batch miner keeps one per worker); it is not safe for concurrent use.
class BurstyIntervalExtractor {
 public:
  /// Appends to `out` (which is NOT cleared) the non-overlapping maximal
  /// bursty intervals of the length-`length` row whose cells are `cells`
  /// and zero elsewhere, each with its B_T score, in timeline order.
  /// Intervals scoring <= min_burstiness are dropped.
  ///
  /// `cells` must have strictly increasing columns, all below `length`. A
  /// listed cell may hold any value, zero included; it is scored like the
  /// same cell of the dense row. Output is bit-identical to running
  /// Ruzzo–Tompa over every one of the row's `length` scores.
  /// Complexity: O(cells + zero cells between the first and the last
  /// cell), plus a one-off O(first column) while the cached running sums
  /// for this `length` grow.
  void Append(std::span<const RowCell> cells, size_t length,
              double min_burstiness, std::vector<BurstyInterval>* out);

 private:
  // leading_[k] is the in-order sum of k zero-cell scores −1/length_: the
  // Ruzzo–Tompa running total before a first occupied cell at column k.
  // Grown on demand, dropped when the length changes.
  size_t length_ = 0;
  std::vector<double> leading_;
  OnlineMaxSegments getmax_;
  std::vector<Segment> segments_;
};

/// The non-overlapping maximal bursty intervals of `y`, each with its B_T
/// score, in timeline order. Intervals scoring <= min_burstiness are
/// dropped. Linear time.
std::vector<BurstyInterval> ExtractBurstyIntervals(std::span<const double> y,
                                                   double min_burstiness = 0.0);

/// Allocation-free variant: appends the extracted intervals to `out`
/// (which is NOT cleared). A wrapper: it gathers the cells of `y` that are
/// != 0.0 (negative and NaN cells included; −0.0 scores like +0.0) and
/// runs a per-thread BurstyIntervalExtractor over them, so its output is
/// the extractor's, bit for bit.
void AppendBurstyIntervals(std::span<const double> y, double min_burstiness,
                           std::vector<BurstyInterval>* out);

}  // namespace stburst

#endif  // STBURST_CORE_TEMPORAL_H_
