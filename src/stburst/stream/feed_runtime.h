// FeedRuntime — the long-running live-feed mining service.
//
// FeedRuntime owns the whole live stack — the Collection, the
// FrequencyIndex, one persistent ThreadPool, and a standing BatchMineResult
// of STComb patterns — and drives the full tick cycle. It is the paper's
// combinatorial search instance (§5: "a separate instance … for each
// type"): its options hold STComb's settings and nothing else, so a
// regional runtime cannot be configured; regional windows come from the
// batch miner (MineAllTerms). The tick cycle:
//
//   Tick(snapshot):
//     0. ValidateSnapshotDocuments        reject or quarantine malformed
//                                         documents (on_invalid policy)
//     1. Collection::Append               file the new documents
//     2. FrequencyIndex::AppendSnapshot   per-term splice fanned across the pool
//     3. retention eviction               drop timestamps older than the window
//                                         (collection + index, in lockstep)
//     4. staged re-mine of the dirty set  appended + evicted terms, on the pool
//     5. background refresh sweep         re-mine the stalest quiet terms,
//                                         prioritized by mass × staleness,
//                                         under the per-tick budget
//     6. search snapshot build + publish  [optional] the next read-plane
//                                         generation, built off to the side
//                                         as the Successor of the current
//                                         index (re-scored terms' pattern
//                                         cells found across the pool, then
//                                         each touched cell's documents
//                                         read once) and published to
//                                         readers with one locked swap
//
// Every tick is transactional (the failure and recovery contract in
// docs/ARCHITECTURE.md): steps 4–6 mine, score, and build into staging
// state — including the entire next search snapshot — and publish in one
// commit tail, while steps 1–3 record undo state that a failure — a Status
// error or an exception (std::bad_alloc included) out of any step, on any
// pool worker — rolls back exactly. After a failed Tick every accessor
// (result(), search_snapshot() and its generation, collection(), index())
// answers bit-identically to a runtime that never saw the snapshot — an
// unpublished snapshot is simply dropped, readers never knew it existed —
// and the next clean Tick converges to batch parity. A tick carries no
// state into the next one beyond what it committed: the dirty set of step 4
// is the return value of steps 2 and 3, and every tick scores exactly the
// terms it re-mined.
//
// With a retention window W, live memory is O(V + W · active terms) and a
// long-running feed plateaus (tested: peak postings memory stays within
// 1.5x of the steady state); without one, memory grows with the feed.
// Every step is deterministic: the standing result after any tick is
// bit-identical at any thread count (tested at 1/2/4/8).
//
// docs/ARCHITECTURE.md covers the retention/eviction contract, the refresh
// scheduling policy, and the read plane (snapshot lifecycle, lifetime,
// memory ordering); examples/live_feed.cpp runs the runtime
// end to end.

#ifndef STBURST_STREAM_FEED_RUNTIME_H_
#define STBURST_STREAM_FEED_RUNTIME_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "stburst/common/parallel.h"
#include "stburst/common/published_ptr.h"
#include "stburst/common/statusor.h"
#include "stburst/core/batch_miner.h"
#include "stburst/history/cold_tier.h"
#include "stburst/index/index_snapshot.h"
#include "stburst/index/inverted_index.h"
#include "stburst/index/pattern_index.h"
#include "stburst/index/threshold_algorithm.h"
#include "stburst/stream/collection.h"
#include "stburst/stream/frequency.h"
#include "stburst/stream/tokenizer.h"
#include "stburst/stream/types.h"

namespace stburst {

/// Whether the runtime keeps a search index (§5) over its standing STComb
/// patterns. A regional engine is built from the batch miner's windows.
enum class SearchServing {
  kNone,           ///< no search index is maintained
  kCombinatorial,  ///< score against the standing STComb patterns
};

/// What Tick does with a snapshot document that fails validation (unknown
/// stream, token outside the vocabulary, duplicate event report). NaN or
/// negative frequencies are structurally unrepresentable — counts are token
/// multiplicities — so the malformed inputs that exist are exactly these.
enum class InvalidDocPolicy {
  /// The whole tick fails with InvalidArgument and nothing is ingested —
  /// the strict default: a malformed snapshot points at a broken producer
  /// and deserves a loud error, not silent data loss.
  kRejectTick,
  /// Quarantine: the offending documents are dropped (counted in
  /// FeedTickStats::rejected_documents) and the rest of the snapshot
  /// ingests normally — the keep-serving choice for feeds with untrusted
  /// producers.
  kDropDocument,
};

/// What a FeedRuntime's re-mines are configured by: STComb's options only.
/// The runtime supplies the thread pool itself.
struct FeedMinerOptions {
  StCombOptions stcomb;
};

struct FeedRuntimeOptions {
  /// Per-term mining configuration of the initial sweep and every re-mine.
  FeedMinerOptions miner;

  /// Workers of the persistent pool (0 = hardware concurrency, 1 = fully
  /// serial on the calling thread). Shared by the index build, the append
  /// splice, eviction, every re-mine, and the search-snapshot build — no
  /// per-tick thread spawn/join.
  size_t num_threads = 1;

  /// Retention window W in timestamps: after each tick, timestamps older
  /// than timeline_length - W are evicted from the collection, the index,
  /// and the standing result (burstiness re-normalized to the window;
  /// pattern timeframes stay absolute). 0 keeps the full history
  /// (unbounded memory — the PR-2 behavior).
  Timestamp retention_window = 0;

  /// Tiered history (docs/ARCHITECTURE.md "Tiered history", retention rule
  /// 8): what eviction does with the snapshots it drops. kOff discards them
  /// (the pre-tier behavior); kInMemory folds them into an in-memory
  /// ColdTier of per-(term, stream, bucket) aggregates. The tier feeds
  /// LongHorizonBaseline (history/long_horizon.h) and ReplayRange
  /// (history/replay.h); folding happens inside the tick transaction and
  /// rolls back with it (fault site `history.fold`). Without a retention
  /// window nothing is ever evicted, so the tier stays empty.
  HistoryMode history_mode = HistoryMode::kOff;

  /// Aggregation bucket width in timestamps (e.g. 4 for 4-week buckets on a
  /// weekly feed). Must be > 0 when history is on.
  Timestamp history_bucket_width = 4;

  /// Maintain a bursty-document search read plane (paper §5) over the
  /// standing result. Each tick that changes search state builds the next
  /// immutable IndexSnapshot off to the side — the InvertedIndex::Successor
  /// of the current index (evicted documents' postings dropped, exactly
  /// the terms re-mined this tick re-derived) — and publishes it with one
  /// swap under the publication slot's mutex; Search() is
  /// always window-consistent with result() (tested: equal to a
  /// from-scratch BurstySearchEngine build over the retained collection
  /// and standing patterns). Readers hold snapshots across ticks without
  /// blocking either side; each published generation bumps
  /// search_snapshot()->generation by one.
  SearchServing search_serving = SearchServing::kNone;

  /// Background refresh budget: quiet terms re-mined per tick, stalest
  /// first (priority = total windowed mass × ticks since last mine, ties to
  /// the smaller TermId). Only terms whose burstiness normalization
  /// drifted qualify — i.e. the retained window length changed since their
  /// last mine. On a length-preserving steady-state slide a quiet term's
  /// slot would be identical to a re-mine only in exact arithmetic; in
  /// floating point it can differ by rounding and occasionally in
  /// structure. The sweep skips such slots by policy, so it drains to zero
  /// instead of re-mining near-no-ops forever, and the drift it leaves is
  /// measured by the `audit.quiet_slots_*` metrics of bench/e2e. Counted in
  /// terms, not wall clock, so the sweep is deterministic at any thread
  /// count. 0 disables the sweep (quiet slots keep the plain staleness
  /// contract of docs/ARCHITECTURE.md indefinitely).
  size_t refresh_budget = 0;

  /// What Tick does with snapshot documents that fail validation.
  InvalidDocPolicy on_invalid = InvalidDocPolicy::kRejectTick;
};

/// What one Tick did — sizes for monitoring, wall time for dashboards.
struct FeedTickStats {
  Timestamp time = 0;          ///< timestamp assigned to the snapshot
  size_t documents = 0;        ///< documents filed from the snapshot
  size_t rejected_documents = 0;  ///< documents dropped by validation
                                  ///< (kDropDocument policy only)
  size_t dirty_terms = 0;      ///< terms re-mined for new/evicted postings
  size_t refreshed_terms = 0;  ///< quiet terms re-mined by the sweep
  size_t extracted_rows = 0;   ///< (term, stream) rows the re-mines
                               ///< extracted bursty intervals from: the
                               ///< distinct streams of every re-mined
                               ///< term's postings, summed
  size_t search_terms = 0;     ///< terms whose search postings were re-derived
  size_t search_tokens_scanned = 0;  ///< document tokens the re-derivation
                                     ///< read (ScoreTermsByCell)
  size_t folded_terms = 0;     ///< terms whose evicted postings the cold
                               ///< tier folded this tick (history on only)
  bool evicted = false;        ///< whether retention advanced the window
  double seconds = 0.0;        ///< wall time of the whole tick
};

/// One quiet term the refresh sweep could re-mine this tick, with the
/// priority the scheduling policy assigns it (windowed mass × ticks since
/// its last mine). Produced by FeedRuntime::RefreshCandidates and ranked by
/// FeedRuntime::SelectRefreshTargets.
struct RefreshCandidate {
  TermId term = kInvalidTerm;
  double priority = 0.0;
};

/// The pure validation half of FeedRuntime's step 0, usable by any owner of
/// a snapshot stream (for example to screen a snapshot before it reaches a
/// runtime). kRejectTick returns InvalidArgument on the first malformed
/// document; kDropDocument compacts the offenders out of `snapshot` and
/// adds their count to `*rejected`. Malformed means: unknown stream id
/// (>= num_streams), token outside [0, vocabulary_size), or the same stream
/// re-reporting the same explicit event id within this snapshot.
Status ValidateSnapshotDocuments(size_t num_streams, size_t vocabulary_size,
                                 InvalidDocPolicy policy, Snapshot* snapshot,
                                 size_t* rejected);

/// The long-running runtime. Single-writer: Tick must be externally
/// serialized against itself and against non-read-plane accessors
/// (result(), collection(), index(), mutable_vocabulary()). The read plane
/// is the exception: search_snapshot() and Search() with pre-resolved
/// TermIds are safe from any number of threads concurrently with a running
/// Tick — readers see the last published snapshot until the tick's single
/// publication swap, never intermediate state. To read the index itself,
/// hold search_snapshot() and use its ->index: the held snapshot keeps it
/// alive across any number of publishing ticks. (String-query
/// Search only reads the frozen vocabulary, so it too is tick-safe; it
/// must not overlap a mutable_vocabulary()->Intern burst.)
class FeedRuntime {
 public:
  /// Takes ownership of the historical collection, puts it in time order
  /// (Collection::SortByTime — renumbering the documents of a history filed
  /// out of time order, a no-op otherwise), applies the retention window to
  /// it, builds the frequency index, and runs the initial whole-vocabulary
  /// sweep. The collection may be empty of documents (a cold start).
  static StatusOr<FeedRuntime> Create(Collection collection,
                                      FeedRuntimeOptions options);

  FeedRuntime(FeedRuntime&&) = default;
  FeedRuntime& operator=(FeedRuntime&&) = default;

  /// Runs the full tick cycle on one snapshot, transactionally: on error
  /// (validation under kRejectTick, a Status failure from any step, or an
  /// exception — std::bad_alloc included — thrown on any pool worker) the
  /// snapshot's effects are rolled back and every accessor keeps answering
  /// from the pre-tick state — result(), search_snapshot() (the same
  /// object, generation unchanged; the half-built successor is dropped
  /// unpublished), collection(), index() are bit-identical to a runtime
  /// that never saw the snapshot — and the next clean Tick converges to
  /// batch parity. The narrow exception: a failure inside the final commit
  /// tail (after staged state started publishing — in practice only a true
  /// OOM during the bookkeeping moves) wedges the runtime, and every later
  /// Tick returns FailedPrecondition; rebuild via Create. The
  /// fault-injection sweep (tests/fault_injection_test.cc) proves the
  /// rollback contract for every registered failure site.
  StatusOr<FeedTickStats> Tick(Snapshot snapshot);

  /// One in-flight tick's staged state and undo log, opaque and move-only.
  /// Produced by PrepareTickIngest and consumed by exactly one of
  /// CommitTick or AbortTick; dropping one without either leaks no memory
  /// but leaves the runtime with the tick's ingestion applied and nothing
  /// staged — always finish the protocol.
  class TickTransaction {
   public:
    TickTransaction(TickTransaction&&) noexcept;
    TickTransaction& operator=(TickTransaction&&) noexcept;
    ~TickTransaction();

   private:
    friend class FeedRuntime;
    TickTransaction();
    struct Impl;
    std::unique_ptr<Impl> impl_;
  };

  /// Per-phase Tick, for instrumented callers that time or inspect each
  /// phase of a tick (bench/e2e/bench_e2e.cc attributes tick latency this
  /// way). The protocol is
  ///
  ///   PrepareTickIngest → RefreshCandidates / SelectRefreshTargets →
  ///   StageTickDerived → CommitTick | AbortTick
  ///
  /// and Tick() itself is exactly this composition (tested bit for bit), so
  /// a caller that only wants the tick never needs it. Each phase is
  /// individually transactional: a non-OK PrepareTickIngest has already
  /// rolled itself back; a non-OK StageTickDerived leaves the transaction
  /// intact and the caller MUST AbortTick it; CommitTick either commits,
  /// rolls back cleanly, or — on a failure after publication began — wedges
  /// the runtime, exactly like Tick. CommitTick of a transaction that
  /// StageTickDerived never staged successfully rolls it back and returns
  /// FailedPrecondition.
  ///
  /// PrepareTickIngest runs validation and the mutation phase (append,
  /// index splice, retention eviction) plus the dirty re-mine into staging.
  StatusOr<TickTransaction> PrepareTickIngest(Snapshot snapshot);

  /// Every quiet term the refresh sweep could touch this tick (the tick's
  /// dirty set is excluded — it is being re-mined anyway), with priorities.
  /// Pure; unordered. Pair with SelectRefreshTargets.
  std::vector<RefreshCandidate> RefreshCandidates(
      const TickTransaction& tx) const;

  /// The deterministic selection rule of the refresh sweep: the `budget`
  /// highest-priority candidates in priority order, ties to the smaller
  /// TermId. Static: it reads no runtime state.
  static std::vector<TermId> SelectRefreshTargets(
      std::vector<RefreshCandidate> candidates, size_t budget);

  /// Stages the tick's derived state: the refresh re-mine of
  /// `refresh_targets`, the search re-scoring of every term the tick
  /// re-mines, and the next search snapshot — publishing nothing. On
  /// failure the caller must AbortTick the transaction.
  Status StageTickDerived(TickTransaction* tx,
                          std::vector<TermId> refresh_targets);

  /// Publishes the staged state and returns the tick's stats. On a clean
  /// pre-publication failure the transaction is rolled back; a failure
  /// after publication began wedges the runtime (see Tick). A transaction
  /// with nothing staged (StageTickDerived never ran, or failed) is rolled
  /// back with FailedPrecondition: committing its ingest alone would
  /// publish a collection the search snapshot does not match.
  StatusOr<FeedTickStats> CommitTick(TickTransaction tx);

  /// Rolls the transaction back to the exact pre-tick state. No-throw.
  void AbortTick(TickTransaction tx);

  /// True once a commit-tail failure wedged the runtime (every further
  /// Tick / PrepareTickIngest returns FailedPrecondition).
  bool wedged() const { return wedged_; }

  const Collection& collection() const { return collection_; }
  const FrequencyIndex& index() const { return index_; }
  /// The standing mining result: one slot per TermId, timeframes absolute.
  const BatchMineResult& result() const { return result_; }
  /// Convenience: the standing slot of one term (empty slot for unknown
  /// ids).
  const TermPatterns& patterns(TermId term) const;

  /// Interning point for tokenizing snapshots before Tick. New terms are
  /// absorbed by the next tick; do not mutate anything else mid-cycle.
  Vocabulary* mutable_vocabulary() { return collection_.mutable_vocabulary(); }

  /// The currently published search snapshot — one `shared_ptr` copy under
  /// the publication slot's mutex. Hold it as long as you like: it stays bit-identical while
  /// ticks publish successors, and is freed when the last holder releases
  /// it. Window-consistent with result() as of the tick that published it;
  /// null when search serving is off. Safe from any thread concurrently
  /// with Tick.
  std::shared_ptr<const IndexSnapshot> search_snapshot() const {
    return search_snapshot_.Load();
  }

  /// Top-k bursty documents for a raw query string (tokenized against the
  /// collection's vocabulary; unknown words are dropped) over the current
  /// search snapshot. Requires search serving; safe concurrently with Tick
  /// (but not with vocabulary interning — see the class comment).
  TopKResult Search(const std::string& query, size_t k) const;

  /// Top-k for pre-resolved term ids: one snapshot load + TA over the
  /// immutable snapshot, no further lock. Safe from any number of threads
  /// concurrently with Tick; the result's generation tells which snapshot
  /// answered.
  TopKResult Search(const std::vector<TermId>& query, size_t k) const;

  Timestamp window_start() const { return index_.window_start(); }

  /// The cold history tier evicted snapshots fold into; null when
  /// options.history_mode == kOff. Borrowable by LongHorizonBaseline /
  /// ReplayRange between ticks (single-writer rules apply: the tier mutates
  /// inside Tick).
  const ColdTier* history() const { return history_.get(); }

  /// Ticks since `term`'s slot was last (re-)mined: 0 right after its mine,
  /// growing while it stays quiet. The refresh sweep drains the largest
  /// mass × staleness products first.
  Timestamp staleness(TermId term) const;

 private:
  // Undo log of one in-flight tick; defined in feed_runtime.cc.
  struct FeedTickUndo;

  FeedRuntime(Collection collection, FeedRuntimeOptions options);

  /// The guarded phase bodies: each stages or publishes its slice of the
  /// tick, recording undo state before every mutation. Exceptions escape to
  /// the public phase wrappers, which map them to Status (bad_alloc,
  /// injected faults, everything else) exactly like Tick always did.
  Status PrepareIngestGuarded(Snapshot snapshot, TickTransaction::Impl* tx);
  Status StageDerivedGuarded(TickTransaction::Impl* tx,
                             std::vector<TermId> refresh_targets);
  Status CommitGuarded(TickTransaction::Impl* tx);

  /// Restores the exact pre-tick state recorded in `undo` (reverse order of
  /// the tick's mutations). No-throw.
  void RollbackTick(FeedTickUndo* undo);

  /// Re-derives the search postings of every term in `terms` (distinct;
  /// slot via `slot_for`) with ScoreTermsByCell: each slot's STComb
  /// patterns are read in place across the standing pool, then each
  /// touched cell's documents are read once. Returns index-addressed lists,
  /// deterministic at any thread count; `*tokens_scanned` (when non-null)
  /// receives the document tokens read. The staging half of the search
  /// update; the lists become the replaced terms of the next
  /// InvertedIndex::Successor.
  std::vector<std::vector<Posting>> StageSearchPostings(
      const std::vector<TermId>& terms,
      const std::function<const TermPatterns&(TermId)>& slot_for,
      size_t* tokens_scanned) const;

  FeedRuntimeOptions options_;
  Collection collection_;
  // The standing pool every phase fans across; null when fully serial.
  std::unique_ptr<ThreadPool> pool_;
  // What every mine runs with: options_.miner.stcomb on pool_ (inline on
  // the calling thread when serial).
  BatchMinerOptions mine_options_;
  FrequencyIndex index_;
  BatchMineResult result_;
  // Cold history tier (options_.history_mode != kOff): evicted postings
  // fold into it inside the tick transaction. unique_ptr keeps the off
  // case free.
  std::unique_ptr<ColdTier> history_;
  // The read plane (options_.search_serving != kNone): the published
  // snapshot slot readers load from, and the tokenizer for string queries.
  PublishedPtr<IndexSnapshot> search_snapshot_;
  Tokenizer tokenizer_;
  // Per-term bookkeeping for the refresh policy, indexed by TermId.
  std::vector<Timestamp> last_mined_;   // timeline length at last (re-)mine
  std::vector<Timestamp> last_window_;  // window length at last (re-)mine
  std::vector<double> mass_;            // windowed TotalCount at last mine
  // Set when a failure struck inside a commit tail (partial publish — no
  // rollback possible); every further Tick refuses with FailedPrecondition.
  bool wedged_ = false;
};

}  // namespace stburst

#endif  // STBURST_STREAM_FEED_RUNTIME_H_
