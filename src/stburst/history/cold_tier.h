// ColdTier: the persistent half of the tiered history subsystem.
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
// observations). Folding is idempotent under the invariant — postings below
// folded_until() are skipped — which makes restart-with-replay-overlap
// safe.
//
// Storage model: one row set, held in memory, per term sorted by
// (stream, bucket). A tier opened with a path also checkpoints it: the file
// (layout documented field-by-field in docs/STORAGE.md) is nothing but the
// serialization of that row set. Open decodes it into memory; Publish writes
// it to `<path>.tmp`, fsyncs, and atomically renames it over `<path>`, so a
// crash mid-write recovers the previous checkpoint untouched. A tier without
// a path never touches disk.
//
// Thread-safety: externally synchronized, like the rest of the tick state.
// The FeedRuntime mutates the tier only inside the tick transaction.

#ifndef STBURST_HISTORY_COLD_TIER_H_
#define STBURST_HISTORY_COLD_TIER_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "stburst/common/status.h"
#include "stburst/common/statusor.h"
#include "stburst/stream/frequency.h"
#include "stburst/stream/types.h"

namespace stburst {

/// Whether the runtime keeps a cold tier. kOff disables folding entirely
/// (eviction drops history); kInMemory folds into a tier held in process
/// memory, which a non-empty `history_path` also checkpoints to a file after
/// each folding tick and recovers on restart.
enum class HistoryMode { kOff = 0, kInMemory = 1 };

/// One coarse aggregate cell: everything the tier remembers about
/// (term, stream) inside one bucket of `bucket_width` timestamps.
struct ColdRow {
  StreamId stream = 0;
  /// Absolute bucket index: time / bucket_width. Buckets never shift when
  /// the hot window slides, so rows are stable identities across restarts.
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
/// by `RollbackFold`. Folds only mutate memory (a checkpoint file changes
/// only at Publish), so rollback is pure memory.
struct ColdFoldUndo {
  Timestamp folded_until = 0;
  uint32_t stream_upper_bound = 0;
  uint32_t term_upper_bound = 0;
  /// Per touched term, the term's rows before the fold.
  std::vector<std::pair<TermId, std::vector<ColdRow>>> saved_rows;
};

class ColdTier {
 public:
  /// Opens a tier of `bucket_width` timestamps per bucket (must be > 0).
  /// An empty `path` keeps the tier in memory only. Otherwise the tier is
  /// checkpointed to `path`: an existing file is read, validated (magic,
  /// version, header + payload checksums, structure), decoded into memory,
  /// and required to have the same bucket width; a missing file leaves the
  /// tier empty until the first `Publish()` writes it. A path is rejected on
  /// big-endian hosts (the format is little-endian, see docs/STORAGE.md).
  static StatusOr<ColdTier> Open(Timestamp bucket_width, std::string path);

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

  /// Runtime-attach handshake: called once by FeedRuntime::Create with the
  /// live window's start. An empty tier adopts it as covered_start (Create
  /// dropped any deeper seed history un-folded, so coverage honestly begins
  /// there); a reopened tier must already reach it (folded_until() >=
  /// window_start), else there is an unrecoverable gap between the
  /// persisted aggregates and the live window and the attach fails with
  /// InvalidArgument. Overlap (folded_until() > window_start after a
  /// restart replayed extra history) is fine: folds skip covered times.
  Status AttachAt(Timestamp window_start);

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
  /// matrix would exceed kMaxReplayCells cells or INT32_MAX buckets: a
  /// tier's covered span comes from its header, so a file can claim
  /// billions of buckets.
  StatusOr<TermSeries> ReplaySeries(TermId term, uint32_t bucket_begin,
                                    uint32_t bucket_end) const;

  /// Cells (streams x buckets) one ReplaySeries may materialize: 128 MiB of
  /// doubles, e.g. 10k streams over 30 years of weekly buckets.
  static constexpr uint64_t kMaxReplayCells = uint64_t{1} << 24;

  /// Writes the row set to `<path>.tmp`, fsyncs it, atomically renames it
  /// over `path`, and fsyncs the directory. OK and does nothing without a
  /// path. On failure the previous file and the in-memory rows are both
  /// intact, and the next call writes the whole row set again.
  Status Publish();

 private:
  ColdTier() = default;

  // Reads, validates (docs/STORAGE.md checks 1-11) and decodes `path_` into
  // this tier's watermarks and rows. Returns the file's bucket width, or 0
  // when the file does not exist.
  StatusOr<uint32_t> Load();

  std::string path_;  // empty <=> memory only
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
