// Term-frequency views over a collection.
//
// Dx[i][t] (paper Eq. 6) — the total frequency of term t in the documents
// stream Dx reported at timestamp i — is the sole input the mining
// algorithms need. TermSeries is the dense n-streams x L-timestamps matrix
// of those values for one term; FrequencyIndex materializes it from a
// document Collection. The synthetic generators construct TermSeries
// directly, bypassing documents.
//
// FrequencyIndex keeps one canonical representation (per-term postings
// sorted by (stream, time), one entry per nonzero cell) and has one ingest
// path: AppendSnapshot(collection) catches the index up with every timestamp
// the collection gained since the index last saw it, touching only the terms
// that appear in the new snapshots. Build(collection) is that append onto an
// empty index. AppendSnapshot and EvictBefore each return the terms whose
// postings they changed, so downstream consumers (the batch miner, search
// indexes) can re-derive only what changed; the index itself keeps no record
// of them.

#ifndef STBURST_STREAM_FREQUENCY_H_
#define STBURST_STREAM_FREQUENCY_H_

#include <span>
#include <vector>

#include "stburst/common/statusor.h"
#include "stburst/stream/collection.h"
#include "stburst/stream/types.h"

namespace stburst {

class ThreadPool;

/// Dense frequency matrix for a single term: rows are streams, columns are
/// timestamps. Values are real (generators inject fractional frequencies).
class TermSeries {
 public:
  /// Zero-initialized n x L matrix. L must be non-negative. Either dimension
  /// may be zero — n = 0 for a collection with no streams, L = 0 for an
  /// empty window (a fully evicted feed) — and the matrix then holds no
  /// cells.
  TermSeries(size_t num_streams, Timestamp timeline_length);

  size_t num_streams() const { return num_streams_; }
  Timestamp timeline_length() const { return timeline_length_; }

  double at(StreamId stream, Timestamp time) const {
    return data_[Index(stream, time)];
  }
  void set(StreamId stream, Timestamp time, double value) {
    data_[Index(stream, time)] = value;
  }
  void add(StreamId stream, Timestamp time, double delta) {
    data_[Index(stream, time)] += delta;
  }

  /// Frequency sequence of one stream over the whole timeline (length L):
  /// a zero-copy view into the row-major buffer, valid until the series is
  /// mutated or destroyed.
  std::span<const double> StreamRow(StreamId stream) const {
    return {data_.data() + Index(stream, 0), static_cast<size_t>(timeline_length_)};
  }

  /// Element-wise sum across streams (length L): the single merged stream
  /// the TB baseline operates on (§6.3).
  std::vector<double> AggregateOverStreams() const;

  /// Sum of all entries.
  double Total() const;

  /// Resets every entry to zero without reallocating — lets the batch miner
  /// reuse one scratch matrix across terms.
  void Clear();

 private:
  size_t Index(StreamId stream, Timestamp time) const;

  size_t num_streams_;
  Timestamp timeline_length_;
  std::vector<double> data_;  // row-major: stream * L + time
};

/// One (stream, time, count) observation for a term.
struct TermPosting {
  StreamId stream;
  Timestamp time;
  double count;
};

/// Captured pre-eviction postings that FrequencyIndex::RollbackEvict uses to
/// undo one EvictBefore exactly — O(evicted postings), holding only the
/// removed entries per touched term. Consumed by the restore.
struct FrequencyEvictUndo {
  Timestamp window_start = 0;
  Timestamp cutoff = 0;
  /// Per touched term, the evicted postings in canonical (stream, time)
  /// order. Terms the eviction left untouched do not appear.
  std::vector<std::pair<TermId, std::vector<TermPosting>>> removed;
};

/// Sparse per-term frequency postings over a document collection.
///
/// Thread-safety: Build and AppendSnapshot may fan their splice across worker
/// threads but are externally exclusive (the collection, including its
/// vocabulary, must not be mutated while they run). After Build /
/// AppendSnapshot return, all const accessors are safe to call concurrently
/// from any number of threads; AppendSnapshot and EvictBefore are writers
/// and must be externally serialized against the readers (quiesce mining,
/// append, re-mine — see docs/ARCHITECTURE.md).
class FrequencyIndex {
 public:
  /// An empty index: no terms, no streams, zero-length timeline. Exists so
  /// owners (FeedRuntime) can hold an index member and assign from Build().
  FrequencyIndex() = default;

  /// Builds canonical per-term postings for every retained timestamp of
  /// `collection`: an AppendSnapshot onto an empty index whose window starts
  /// at collection.window_start().
  ///
  /// `num_threads`: 1 (default) runs serially on the calling thread; 0 means
  /// hardware concurrency. With T > 1 the splice of the gathered postings is
  /// fanned across a transient pool, never larger than the hardware offers
  /// (oversubscribing a CPU-bound loop only thrashes); the document scan
  /// stays serial.
  ///
  /// Determinism: output is bit-identical for every thread count. A cell's
  /// count folds once, over its documents in DocumentsAt() filing order, and
  /// terms splice independently.
  /// Complexity: O(V + tokens + nnz) work, O(V + nnz) transient space.
  static FrequencyIndex Build(const Collection& collection,
                              size_t num_threads = 1);

  /// Incrementally extends the index with every timestamp `collection`
  /// gained since this index was built or last caught up (the result of one
  /// or more Collection::Append calls). Postings are extended in place; only
  /// terms occurring in the new snapshots are touched, and those terms are
  /// returned (sorted, unique) — the slots a miner must re-derive.
  ///
  /// Contract: `collection` must be the same logical collection the index
  /// was built from, with documents added only at appended timestamps —
  /// late additions to pre-existing timestamps are not picked up (rebuild
  /// instead). New streams and new vocabulary terms are absorbed. Returns
  /// InvalidArgument if the collection's timeline or vocabulary is behind
  /// the index. Equivalence: after any sequence of appends the index is
  /// bit-identical to Build(collection) from scratch, and both match a
  /// sort-and-merge reference (tested).
  ///
  /// `pool`: when non-null, the per-term splice of the gathered postings is
  /// fanned across the pool (the gather scan stays serial — it is a single
  /// pass over the new documents). The splice is per-term independent, so
  /// output is bit-identical with or without a pool, at any pool size
  /// (tested). Feeds with 10^4+ documents per tick are splice-dominated and
  /// benefit; tiny ticks do not. A term whose bucket is empty takes its
  /// gathered list whole, so a fresh Build's splice is one move per term.
  /// Complexity: O(V + new tokens + Σ postings(t) over touched terms t).
  StatusOr<std::vector<TermId>> AppendSnapshot(const Collection& collection,
                                               ThreadPool* pool = nullptr);

  /// The index dimensions an AppendSnapshot may grow — everything
  /// RollbackAppend needs to undo one. Capture before the append.
  struct AppendCheckpoint {
    Timestamp timeline_length = 0;
    size_t num_terms = 0;
    size_t num_streams = 0;
  };

  /// Snapshot of the current dimensions, for RollbackAppend.
  AppendCheckpoint CheckpointBeforeAppend() const {
    return AppendCheckpoint{timeline_length_, postings_.size(), num_streams_};
  }

  /// Undoes every AppendSnapshot since `checkpoint` was captured, including
  /// one that failed partway through its parallel splice: every appended
  /// posting carries a timestamp >= checkpoint.timeline_length and splices
  /// never merge into pre-existing cells, so dropping those postings (and
  /// the terms the append grew the vocabulary by) restores the exact
  /// pre-append postings. No interleaved evictions allowed between capture
  /// and rollback. No-throw; O(all retained postings): every term's
  /// posting list is scanned, touched by the append or not.
  void RollbackAppend(const AppendCheckpoint& checkpoint);

  /// Drops all postings older than `cutoff`, advancing window_start(), and
  /// returns the terms that lost postings (sorted, unique: their standing
  /// mining slots reference evicted timestamps). Their buckets are shrunk
  /// when the slack exceeds ~25%, so a steadily evicting feed's postings
  /// memory plateaus at O(window · active terms) instead of growing with the
  /// feed. Terms untouched by the cutoff are not returned: their windowed
  /// series content is unchanged, and patterns are reported in absolute
  /// timestamps, so on a length-preserving window slide (evicting as many
  /// timestamps as were appended since the slot was mined — FeedRuntime's
  /// steady state) their standing results remain exact. An eviction that
  /// shrinks the net window length shifts the burstiness baseline 1/N for
  /// every term, so untouched quiet slots then carry the standard staleness
  /// drift until re-mined (see the retention contract in
  /// docs/ARCHITECTURE.md); re-mine the full vocabulary after first applying
  /// a window to deep history.
  ///
  /// `pool`: when non-null the per-term scan is fanned across the pool;
  /// output is identical with or without it. cutoff <= window_start() is a
  /// no-op returning no terms; cutoff beyond the timeline is OutOfRange
  /// (state untouched). O(retained + evicted postings) work.
  ///
  /// `undo`, when non-null, receives the evicted postings per touched term
  /// (workers append under a mutex; the set of captured terms is complete
  /// even when a worker throws mid-pass, because ParallelFor quiesces before
  /// rethrowing). RollbackEvict restores them exactly.
  StatusOr<std::vector<TermId>> EvictBefore(
      Timestamp cutoff, ThreadPool* pool = nullptr,
      FrequencyEvictUndo* undo = nullptr);

  /// Restores the postings captured by the matching EvictBefore, consuming
  /// the undo. Valid after a completed eviction or one that threw partway:
  /// every term in the undo is re-merged (evicted entries all predate the
  /// cutoff, so the merge reconstructs the original canonical bucket), terms
  /// not in the undo were never touched.
  void RollbackEvict(FrequencyEvictUndo&& undo);

  /// First retained timestamp (0 until EvictBefore advances it). Postings
  /// hold absolute timestamps in [window_start(), timeline_length()).
  Timestamp window_start() const { return window_start_; }

  /// Number of retained timestamps — the dense-series width the miners
  /// operate over.
  Timestamp window_length() const { return timeline_length_ - window_start_; }

  /// Bytes held by the posting buckets (capacity, not size — the number the
  /// allocator actually charges). The retention tests pin the live-memory
  /// plateau with this.
  size_t PostingsMemoryBytes() const;

  size_t num_terms() const { return postings_.size(); }
  size_t num_streams() const { return num_streams_; }
  Timestamp timeline_length() const { return timeline_length_; }

  /// Sparse postings for a term; empty for out-of-range ids.
  const std::vector<TermPosting>& postings(TermId term) const;

  /// Materializes the dense matrix for one term over the retained window:
  /// num_streams() x window_length(), column j holding the frequencies of
  /// absolute timestamp window_start() + j. Before any eviction this is the
  /// full timeline, unchanged.
  TermSeries DenseSeries(TermId term) const;

  /// Fills a caller-owned scratch matrix (dimensions must match
  /// num_streams() x window_length()) with the term's dense frequencies.
  /// Allocation-free; the batch miner calls this once per term per worker.
  void FillSeries(TermId term, TermSeries* series) const;

  /// Total corpus frequency of a term. O(postings(term)).
  double TotalCount(TermId term) const;

 private:
  size_t num_streams_ = 0;
  Timestamp timeline_length_ = 0;
  Timestamp window_start_ = 0;  // first retained timestamp
  std::vector<std::vector<TermPosting>> postings_;  // indexed by TermId
  static const std::vector<TermPosting> kEmpty;
};

}  // namespace stburst

#endif  // STBURST_STREAM_FREQUENCY_H_
