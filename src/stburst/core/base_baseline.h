// Base — the baseline pattern miner the paper compares against (§6.2.2).
//
// Per stream: compute the burstiness series (Eq. 7), binarize at zero,
// gap-fill interior zero-runs shorter than ℓ, and take the remaining
// one-runs as the stream's bursty intervals. Then process the streams in
// order, merging each interval into an existing pattern whose interval has
// temporal Jaccard >= δ (the merged pattern keeps the intersection of the
// two intervals), or opening a new pattern otherwise.

#ifndef STBURST_CORE_BASE_BASELINE_H_
#define STBURST_CORE_BASE_BASELINE_H_

#include <vector>

#include "stburst/core/expected.h"
#include "stburst/core/interval.h"
#include "stburst/stream/frequency.h"
#include "stburst/stream/types.h"

namespace stburst {

/// A Base pattern: the streams that contributed intervals plus the running
/// intersection of those intervals.
struct BasePattern {
  std::vector<StreamId> streams;  // sorted
  Interval timeframe;
};

struct BaseOptions {
  /// ℓ: interior zero-runs shorter than this are flipped to ones.
  int gap_fill = 2;
  /// δ: minimum temporal Jaccard for merging an interval into a pattern.
  double merge_jaccard = 0.5;
};

/// The per-stream binarized bursty intervals (the miner's first stage,
/// exposed for testing and tuning).
std::vector<Interval> BaseBinarizedIntervals(const std::vector<double>& burstiness,
                                             int gap_fill);

/// Runs the full Base miner over one term's frequency matrix, scoring every
/// stream with the one model `model_factory` builds for the call. Streams
/// are processed in id order (the paper uses a random order; pass a
/// shuffled `order` to emulate it).
std::vector<BasePattern> BaseMine(const TermSeries& series,
                                  const ExpectedModelFactory& model_factory,
                                  const BaseOptions& options = {},
                                  const std::vector<StreamId>* order = nullptr);

}  // namespace stburst

#endif  // STBURST_CORE_BASE_BASELINE_H_
