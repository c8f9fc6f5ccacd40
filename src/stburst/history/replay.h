// ReplayRange: historical backtesting over the cold tier.
//
// The tier keeps bucket-resolution aggregates of every evicted span, which
// is enough to re-run a stored stretch of history against *today's* models:
// reconstruct the bucket-level frequency matrix of a term
// (ColdTier::ReplaySeries), score it per stream with a caller-supplied
// expected-model factory, and extract the maximal bursty intervals exactly
// as the live pipeline does (core/temporal.h, Ruzzo–Tompa). Resolution is
// the bucket width — a 4-week bucket feed replays at month granularity —
// which is the precision/space trade the tier makes by design.

#ifndef STBURST_HISTORY_REPLAY_H_
#define STBURST_HISTORY_REPLAY_H_

#include <cstdint>
#include <vector>

#include "stburst/common/statusor.h"
#include "stburst/core/expected.h"
#include "stburst/history/cold_tier.h"
#include "stburst/stream/types.h"

namespace stburst {

/// One bursty stretch found by a replay, in absolute bucket coordinates:
/// buckets [bucket_begin, bucket_end) cover timestamps
/// [bucket_begin * bucket_width, bucket_end * bucket_width).
struct ReplayedInterval {
  StreamId stream = 0;
  uint32_t bucket_begin = 0;
  uint32_t bucket_end = 0;
  double burstiness = 0.0;

  friend bool operator==(const ReplayedInterval& a, const ReplayedInterval& b) {
    return a.stream == b.stream && a.bucket_begin == b.bucket_begin &&
           a.bucket_end == b.bucket_end && a.burstiness == b.burstiness;
  }
};

/// Re-runs the stored span [bucket_begin, bucket_end) of `term` against the
/// model `factory` builds (once per call, applied to every stream below the
/// tier's stream_upper_bound()) and returns every bursty interval found,
/// ordered by (stream, bucket_begin).
/// Fails if the requested span is empty, reaches outside the covered bucket
/// range [tier.bucket_lower_bound(), tier.bucket_upper_bound()), or is too
/// large to replay (ColdTier::ReplaySeries).
StatusOr<std::vector<ReplayedInterval>> ReplayRange(
    const ColdTier& tier, TermId term, uint32_t bucket_begin,
    uint32_t bucket_end, const ExpectedModelFactory& factory);

}  // namespace stburst

#endif  // STBURST_HISTORY_REPLAY_H_
