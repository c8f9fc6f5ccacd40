// Batch mining engine: whole-vocabulary spatiotemporal pattern mining.
//
// The paper evaluates its miners one term at a time; real deployments (and
// the bench harnesses) sweep the entire vocabulary. MineAllTerms fans the
// per-term STComb / STLocal pipelines across a thread pool and returns a
// result slot per TermId, so the output is deterministic — independent of
// thread count and scheduling — while the per-term hot paths run on
// per-worker scratch:
//  - combinatorial mining hands each (term, stream) row's postings, as its
//    occupied cells, straight to BurstyIntervalExtractor (core/temporal.h):
//    no dense n x L matrix and no zero-filled row, and a row costs its
//    postings plus the zero cells between its first and last posting;
//  - regional mining reuses one dense scratch matrix per worker, and every
//    worker scores its rows with the one expected model the call built.
//
// For a live feed, StageRemineTerms keeps a BatchMineResult current without
// a full sweep: pass the terms FrequencyIndex::AppendSnapshot (and
// EvictBefore) returned, and only those slots are mined, into staging the
// owner moves in (FeedRuntime commits them at the end of its tick;
// docs/ARCHITECTURE.md walks the full append → re-mine cycle).

#ifndef STBURST_CORE_BATCH_MINER_H_
#define STBURST_CORE_BATCH_MINER_H_

#include <cstddef>
#include <vector>

#include "stburst/common/statusor.h"
#include "stburst/core/expected.h"
#include "stburst/core/pattern.h"
#include "stburst/core/stcomb.h"
#include "stburst/core/stlocal.h"
#include "stburst/geo/point.h"
#include "stburst/stream/frequency.h"

namespace stburst {

class ThreadPool;

struct BatchMinerOptions {
  /// Per-term combinatorial mining configuration (§3).
  StCombOptions stcomb;
  /// Per-term regional mining configuration (§4). Requires `positions` and
  /// `model_factory` when mine_regional is set.
  StLocalOptions stlocal;

  bool mine_combinatorial = true;
  bool mine_regional = false;

  /// Worker threads; 0 means hardware concurrency. 1 runs fully serial on
  /// the calling thread (the parity baseline). Ignored when `pool` is set.
  size_t num_threads = 0;

  /// Persistent thread pool to fan the per-term work across. When null
  /// (default), each call builds and joins a transient pool of
  /// `num_threads` workers — fine for one-shot sweeps, but a per-tick
  /// StageRemineTerms pays thread spawn/join every snapshot; a long-running
  /// feed (FeedRuntime) supplies its standing pool here instead. The pool
  /// is only borrowed for the duration of the call; output is identical
  /// either way and at any pool size. Not owned.
  ThreadPool* pool = nullptr;

  /// Planar stream positions (indexed by StreamId); regional mining only.
  /// Each MineAllTerms/StageRemineTerms call bins them once
  /// under stlocal.rbursty.rect and shares that binning across its terms.
  std::vector<Point2D> positions;
  /// Builds the expected-frequency model of a regional run; regional mining
  /// only. Each MineAllTerms/StageRemineTerms call invokes it once, on the
  /// calling thread, and every worker reads the one const model it returns.
  ExpectedModelFactory model_factory;
};

/// Mining output of one term. Slots for skipped or patternless terms carry
/// empty vectors.
struct TermPatterns {
  TermId term = kInvalidTerm;
  /// True when the term was actually mined; false means the term was
  /// skipped (no postings in the corpus).
  bool mined = false;
  std::vector<CombinatorialPattern> combinatorial;
  std::vector<SpatiotemporalWindow> regional;
};

struct BatchMineResult {
  /// One slot per vocabulary term, indexed by TermId.
  std::vector<TermPatterns> terms;
  /// Terms actually mined (slots with mined == true).
  size_t terms_mined = 0;
  /// Terms not mined: no postings in the corpus. Invariant: terms_mined +
  /// terms_skipped == terms.size().
  size_t terms_skipped = 0;
  /// Worker count the last (re-)mining call actually ran with.
  size_t threads_used = 0;
};

/// Mines every vocabulary term of `index` (StageRemineTerms over every
/// TermId) and returns per-term patterns in TermId order.
///
/// Windowed indexes: mining operates over the index's retained window
/// (burstiness normalized by window mass and window length), and every
/// pattern timeframe is reported in absolute timestamps — so results from
/// an evicting feed compare directly across ticks even as the window
/// slides (the retention contract in docs/ARCHITECTURE.md).
///
/// Determinism: output is identical for every thread count (slots are
/// TermId-addressed; no cross-term state).
/// Thread-safety: `index` and `options` are read concurrently by the
/// workers and must not be mutated during the call.
/// Complexity: O(Σ per-term mining) work over options.num_threads workers;
/// a term's interval extraction is O(its postings + the zero cells inside
/// each of its rows' posting spans). Per-worker scratch is O(L) (+ O(n·L)
/// when mine_regional).
StatusOr<BatchMineResult> MineAllTerms(const FrequencyIndex& index,
                                       const BatchMinerOptions& options = {});

/// Mines only `terms` (typically the terms FrequencyIndex::AppendSnapshot
/// returned) into `staged` — one compact slot per entry of the returned
/// (sorted, unique) term list, parallel to it — touching no standing
/// result. Each staged slot is identical to what a fresh MineAllTerms over
/// the current index would produce for its term (tested), at a cost
/// proportional to the feed instead of the corpus. A transactional owner
/// (FeedRuntime) stages against its live BatchMineResult and commits by
/// moving the slots in (growing the result for new vocabulary) only after
/// the whole tick succeeded; a failure (non-OK, or an exception out of a
/// mining worker) leaves `staged` safe to discard and the owner's result
/// untouched.
///
/// Staleness contract: interval burstiness is normalized by timeline length,
/// so a term with no new postings still drifts slightly as the timeline
/// grows; slots left out deliberately keep the patterns of their last mine
/// ("current as of the term's last activity" — the incremental-maintenance
/// trade, discussed in docs/ARCHITECTURE.md). A watched term that needs
/// exact per-snapshot semantics is staged after every tick on the
/// runtime's index (examples/live_feed.cpp).
///
/// Options and validation as for MineAllTerms; stage with the options the
/// standing result was mined with. Duplicate ids in `terms` are ignored; unknown ids are InvalidArgument.
///
/// `extracted_rows`, when non-null, receives the number of (term, stream)
/// rows the combinatorial step extracted bursty intervals from: the
/// distinct streams of each staged term's postings, summed (0 without
/// combinatorial mining). Exact and thread-count independent.
StatusOr<std::vector<TermId>> StageRemineTerms(
    const FrequencyIndex& index, const std::vector<TermId>& terms,
    const BatchMinerOptions& options, std::vector<TermPatterns>* staged,
    size_t* extracted_rows = nullptr);

}  // namespace stburst

#endif  // STBURST_CORE_BATCH_MINER_H_
