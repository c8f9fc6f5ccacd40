// STComb — combinatorial spatiotemporal pattern mining (paper §3).
//
// Pipeline: (1) extract each stream's non-overlapping bursty temporal
// intervals (Eq. 1, [14]); (2) the eligible subsets of the pooled intervals
// are exactly the cliques of their interval graph (Lemma 1 / Prop. 1); (3)
// the highest-scoring subset (HSS) is the maximum-weight clique, found by
// maxClique; (4) multiple non-overlapping patterns are obtained by
// iterating maxClique and deleting each reported clique's intervals.

#ifndef STBURST_CORE_STCOMB_H_
#define STBURST_CORE_STCOMB_H_

#include <cstddef>
#include <vector>

#include "stburst/core/pattern.h"
#include "stburst/core/temporal.h"
#include "stburst/stream/frequency.h"
#include "stburst/stream/types.h"

namespace stburst {

/// A bursty temporal interval attributed to its stream of origin — the unit
/// STComb pools across streams. Any temporal burst detector that reports
/// non-overlapping per-stream intervals can produce these (§3: the
/// methodology "is compatible with any framework that reports
/// non-overlapping bursty intervals").
struct StreamInterval {
  StreamId stream = kInvalidStream;
  Interval interval;
  double burstiness = 0.0;
};

struct StCombOptions {
  /// Per-stream intervals with B_T at or below this are discarded upfront.
  double min_interval_burstiness = 0.0;
  /// Stop after this many patterns (the HSS problem alone needs 1).
  size_t max_patterns = static_cast<size_t>(-1);
  /// A pattern must contain at least this many streams to be reported.
  size_t min_streams = 1;
};

/// Combinatorial pattern miner. Stateless; safe to share across threads.
class StComb {
 public:
  explicit StComb(StCombOptions options = {});

  /// Full pipeline over a term's dense stream x time frequency matrix.
  /// Patterns are returned in descending score order.
  std::vector<CombinatorialPattern> MinePatterns(const TermSeries& series) const;

  /// Pattern mining from precomputed per-stream intervals. Intervals of the
  /// same stream must be pairwise non-overlapping.
  ///
  /// Each round stabs the leftmost point of maximal live weight, compared
  /// exactly on fixed-point images of the weights (a power-of-two grid 44
  /// bits below the largest weight; weights less than one step apart tie),
  /// and reports every live interval it stabs. Patterns come out by score
  /// descending, then timeframe, then streams: a total order, so under the
  /// precondition the result does not depend on the pool's order. Cost
  /// O(m + span) or O(m log m) to rank the endpoints, then O(leaves +
  /// members' leaf runs) per round (stcomb.cc).
  std::vector<CombinatorialPattern> MineFromIntervals(
      std::vector<StreamInterval> intervals) const;

  /// Step (1) alone: per-stream bursty intervals of a term.
  std::vector<StreamInterval> ExtractStreamIntervals(
      const TermSeries& series) const;

  const StCombOptions& options() const { return options_; }

 private:
  StCombOptions options_;
};

}  // namespace stburst

#endif  // STBURST_CORE_STCOMB_H_
