// ColdTier: the long-horizon half of the tiered history subsystem.
//
// Eviction has dropped snapshots past the retention window since the feed
// runtime gained a window (retention rules 1-7, docs/ARCHITECTURE.md), which
// caps every expected-model baseline at the window length. The cold tier
// closes that gap: when `FeedRuntime::Tick` evicts postings, they are folded
// into per-(term, stream, bucket) coarse aggregates — bucket width is
// configurable (e.g. 4 weeks) — holding the frequency sum, the maximum
// single-cell frequency, and the number of non-zero (stream, time) cells
// folded. Baselines then draw from hot window + cold tier seamlessly via
// `LongHorizonBaseline` (history/long_horizon.h), and stored spans can be
// re-run against today's models via `ReplayRange` (history/replay.h).
//
// The tier covers the timeline span [covered_start(), folded_until())
// exactly: every evicted cell in that span is represented in some bucket,
// and no cell outside it is. covered_start() is where folding began — 0 for
// a feed whose whole history passed through eviction, later when Create
// applied the retention window to a deep seed collection (that prefix was
// dropped, not folded, and the tier says so instead of faking zero
// observations). Folding is idempotent — postings below folded_until() are
// skipped.
//
// Storage model: one row set, held in process memory, per term sorted by
// (stream, bucket). It lives and dies with the runtime that owns it.
//
// Thread-safety: externally synchronized, like the rest of the tick state.
// The FeedRuntime mutates the tier only inside the tick transaction.

#ifndef STBURST_HISTORY_COLD_TIER_H_
#define STBURST_HISTORY_COLD_TIER_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "stburst/common/status.h"
#include "stburst/common/statusor.h"
#include "stburst/stream/frequency.h"
#include "stburst/stream/types.h"

namespace stburst {

/// Whether the runtime keeps a cold tier. kOff disables folding entirely
/// (eviction drops history); kInMemory folds into a tier held in process
/// memory.
enum class HistoryMode { kOff = 0, kInMemory = 1 };

/// One coarse aggregate cell: everything the tier remembers about
/// (term, stream) inside one bucket of `bucket_width` timestamps.
struct ColdRow {
  StreamId stream = 0;
  /// Absolute bucket index: time / bucket_width. Buckets never shift when
  /// the hot window slides, so a row keeps its identity across folds.
  uint32_t bucket = 0;
  /// Sum of folded cell frequencies (integer-valued for document-driven
  /// feeds, so partial sums are exact in double — see frequency.h).
  double sum = 0.0;
  /// Maximum single (stream, time) cell frequency folded into the bucket.
  double max = 0.0;
  /// Number of non-zero (stream, time) cells folded into the bucket.
  uint64_t count = 0;

  friend bool operator==(const ColdRow& a, const ColdRow& b) {
    return a.stream == b.stream && a.bucket == b.bucket && a.sum == b.sum &&
           a.max == b.max && a.count == b.count;
  }
};

/// Captured pre-fold tier state for one `FoldEvicted` call, restored exactly
/// by `RollbackFold`.
struct ColdFoldUndo {
  Timestamp folded_until = 0;
  uint32_t stream_upper_bound = 0;
  uint32_t term_upper_bound = 0;
  /// Per touched term, the term's rows before the fold.
  std::vector<std::pair<TermId, std::vector<ColdRow>>> saved_rows;
};

class ColdTier {
 public:
  /// Opens an empty tier of `bucket_width` timestamps per bucket (must be
  /// > 0) whose coverage begins, and so far ends, at `covered_start` (must
  /// be >= 0). FeedRuntime::Create passes the live window's start: any
  /// deeper seed history was dropped un-folded, so coverage honestly begins
  /// there.
  static StatusOr<ColdTier> Open(Timestamp bucket_width,
                                 Timestamp covered_start);

  Timestamp bucket_width() const { return bucket_width_; }
  /// First timestamp the tier covers (see the class comment).
  Timestamp covered_start() const { return covered_start_; }
  /// First timestamp NOT covered: aggregates cover [covered_start(),
  /// folded_until()) exactly.
  Timestamp folded_until() const { return folded_until_; }
  /// Covered timestamps = observations per stream the aggregates stand for
  /// (zeros included) — the denominator LongHorizonBaseline seeds with.
  Timestamp covered_length() const { return folded_until_ - covered_start_; }

  /// One past the largest stream id / term id with any folded cell.
  uint32_t stream_upper_bound() const { return stream_ub_; }
  uint32_t term_upper_bound() const {
    return static_cast<uint32_t>(rows_.size());
  }
  /// Bucket index range that may hold rows:
  /// [bucket_lower_bound(), bucket_upper_bound()). The boundary buckets may
  /// be partially covered when covered_start()/folded_until() fall inside a
  /// bucket.
  uint32_t bucket_lower_bound() const;
  uint32_t bucket_upper_bound() const;

  /// Folds evicted postings (the `FrequencyEvictUndo::removed` capture of a
  /// tick's eviction, or any per-term posting list in canonical
  /// (stream, time) order) into the tier and advances folded_until() to
  /// `cutoff`. Postings with time < folded_until() (already covered) or
  /// time >= cutoff are skipped. Returns the number of terms that
  /// contributed at least one cell. `undo`, when non-null, captures the
  /// pre-fold state for RollbackFold.
  size_t FoldEvicted(
      std::span<const std::pair<TermId, std::vector<TermPosting>>> removed,
      Timestamp cutoff, ColdFoldUndo* undo);

  /// Restores the tier to its exact pre-FoldEvicted state. Consumes `undo`.
  void RollbackFold(ColdFoldUndo&& undo);

  /// Rows for one term, sorted by (stream, bucket); empty for terms past
  /// term_upper_bound(). Valid until the next FoldEvicted or RollbackFold.
  const std::vector<ColdRow>& TermRows(TermId term) const;

  /// Sum of folded frequency for (term, stream) over the whole covered
  /// span — the numerator of a long-horizon mean whose denominator is
  /// covered_length() observations (zeros included).
  double StreamSum(TermId term, StreamId stream) const;

  /// Bucket-resolution frequency matrix for `term` over bucket indices
  /// [bucket_begin, bucket_end), one row per stream below
  /// stream_upper_bound(): cell (s, b - bucket_begin) holds the folded sum
  /// for stream s in bucket b. OutOfRange, with nothing allocated, when the
  /// matrix would exceed kMaxReplayCells cells or INT32_MAX buckets: the
  /// span is the caller's, and a narrow bucket over a long covered span can
  /// ask for billions of buckets.
  StatusOr<TermSeries> ReplaySeries(TermId term, uint32_t bucket_begin,
                                    uint32_t bucket_end) const;

  /// Cells (streams x buckets) one ReplaySeries may materialize: 128 MiB of
  /// doubles, e.g. 10k streams over 30 years of weekly buckets.
  static constexpr uint64_t kMaxReplayCells = uint64_t{1} << 24;

 private:
  ColdTier() = default;

  Timestamp bucket_width_ = 1;
  Timestamp covered_start_ = 0;
  Timestamp folded_until_ = 0;
  uint32_t stream_ub_ = 0;
  /// Indexed by TermId; each term's rows sorted by (stream, bucket). Its
  /// size is the term upper bound.
  std::vector<std::vector<ColdRow>> rows_;
};

}  // namespace stburst

#endif  // STBURST_HISTORY_COLD_TIER_H_
