// FeedRuntime — the long-running live-feed mining service.
//
// PR 2 left the live path as loose parts the caller had to wire per tick
// (Append → AppendSnapshot → TakeDirtyTerms → RemineTerms), with three
// structural leaks for a feed that runs for weeks: postings and online
// histories grew without bound, quiet terms went stale forever, and every
// re-mine paid a thread spawn/join. FeedRuntime owns the whole live stack —
// the Collection, the FrequencyIndex, one persistent ThreadPool, and a
// standing BatchMineResult — and drives the full tick cycle:
//
//   Tick(snapshot):
//     0. ValidateSnapshot                 reject or quarantine malformed
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
//                                         on a private copy of the current
//                                         index (per-term re-scoring fanned
//                                         across the pool) and published to
//                                         readers with one atomic swap
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
// and the next clean Tick converges to batch parity. Under a tick deadline
// the runtime degrades instead of falling behind: the refresh sweep is
// shed first, search re-scoring deferred second (see
// FeedRuntimeOptions::tick_deadline_seconds).
//
// With a retention window W, live memory is O(V + W · active terms) and a
// long-running feed plateaus (tested: peak postings memory stays within
// 1.5x of the steady state); without one, memory grows with the feed.
// Every step is deterministic: the standing result after any tick is
// bit-identical at any thread count (tested at 1/2/4/8).
//
// docs/ARCHITECTURE.md covers the retention/eviction contract, the refresh
// scheduling policy, and the read plane (snapshot lifecycle, memory
// ordering, cache invalidation); examples/live_feed.cpp runs the runtime
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
#include "stburst/index/query_cache.h"
#include "stburst/index/threshold_algorithm.h"
#include "stburst/stream/collection.h"
#include "stburst/stream/frequency.h"
#include "stburst/stream/tokenizer.h"
#include "stburst/stream/types.h"

namespace stburst {

/// Which mined pattern type the runtime's optional search index scores
/// documents against (§5: one engine instance per pattern type).
enum class SearchServing {
  kNone,           ///< no search index is maintained
  kCombinatorial,  ///< score against the standing STComb patterns
  kRegional,       ///< score against the standing STLocal windows
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

struct FeedRuntimeOptions {
  /// Per-term mining configuration. `miner.pool` and `miner.num_threads`
  /// are overridden by the runtime (it supplies its own standing pool).
  BatchMinerOptions miner;

  /// Workers of the persistent pool (0 = hardware concurrency, 1 = fully
  /// serial on the calling thread). Shared by the index build, the append
  /// splice, eviction, every re-mine, and the search-snapshot build — no
  /// per-tick thread spawn/join.
  size_t num_threads = 1;

  /// Pin the pool's workers to cores (ThreadPoolOptions::pin_threads) — for
  /// dedicated hosts where the runtime owns the machine. Ignored when the
  /// runtime is serial.
  bool pin_threads = false;

  /// Retention window W in timestamps: after each tick, timestamps older
  /// than timeline_length - W are evicted from the collection, the index,
  /// and the standing result (burstiness re-normalized to the window;
  /// pattern timeframes stay absolute). 0 keeps the full history
  /// (unbounded memory — the PR-2 behavior).
  Timestamp retention_window = 0;

  /// Tiered history (docs/ARCHITECTURE.md "Tiered history", retention rule
  /// 9): what eviction does with the snapshots it drops. kOff discards them
  /// (the pre-tier behavior); kInMemory folds them into a process-local
  /// ColdTier of per-(term, stream, bucket) aggregates; kMmap additionally
  /// publishes each folded generation to `history_path` (atomic
  /// rename-on-publish; format in docs/STORAGE.md) so a restarted runtime
  /// recovers months of baseline without replay. The tier feeds
  /// LongHorizonBaseline (history/long_horizon.h) and ReplayRange
  /// (history/replay.h); folding happens inside the tick transaction and
  /// rolls back with it (fault site `history.fold`). Without a retention
  /// window nothing is ever evicted, so the tier stays empty.
  HistoryMode history_mode = HistoryMode::kOff;

  /// Aggregation bucket width in timestamps (e.g. 4 for 4-week buckets on a
  /// weekly feed). Must be > 0 when history is on; must match the existing
  /// file when reopening an mmap tier (aggregates cannot be re-bucketed).
  Timestamp history_bucket_width = 4;

  /// Published tier file for kMmap (required there, ignored otherwise).
  std::string history_path;

  /// Maintain a bursty-document search read plane (paper §5) over the
  /// standing result. Each tick that changes search state builds the next
  /// immutable IndexSnapshot off to the side — a private copy of the
  /// current index, edited on the incremental fast path (evicted
  /// documents' postings dropped, exactly the terms re-mined this tick
  /// re-derived) — and publishes it with one atomic swap; Search() is
  /// always window-consistent with result() (tested: equal to a
  /// from-scratch BurstySearchEngine build over the retained collection
  /// and standing patterns). Readers hold snapshots across ticks without
  /// blocking either side; each published generation bumps
  /// search_snapshot()->generation by one.
  SearchServing search_serving = SearchServing::kNone;

  /// Capacity (entries) of the query-result cache; 0 disables it. Entries
  /// are keyed on (snapshot generation, query terms, k), so a published
  /// tick invalidates the whole cache for free — stale generations can
  /// never be looked up again and age out of the LRU. Cached lookups take
  /// one reader-only mutex the tick path never touches; leave 0 for the
  /// mutex-free query path (PublishedPtr slot + frozen data only).
  /// Requires search_serving.
  size_t search_cache_entries = 0;

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

  /// Soft per-tick deadline in seconds; 0 disables it. When a tick is over
  /// deadline it degrades instead of falling further behind, shedding work
  /// in a fixed ladder: (1) the refresh sweep is skipped; (2) search
  /// re-scoring is deferred — the terms carry over and are scored by the
  /// next tick that has headroom. Search *eviction* is never deferred (a
  /// deferred drop would serve dead DocIds), and correctness work (append,
  /// eviction, dirty re-mine) always runs: degradation trades freshness of
  /// derived state, never consistency. Degraded ticks set
  /// FeedTickStats::degraded.
  double tick_deadline_seconds = 0.0;

  /// Clock the deadline reads, in seconds (only the difference between
  /// calls matters). Null uses a monotonic wall clock; tests inject a
  /// scripted clock to drive the degradation ladder deterministically.
  std::function<double()> clock;
};

/// What one Tick did — sizes for monitoring, wall time for dashboards.
struct FeedTickStats {
  Timestamp time = 0;          ///< timestamp assigned to the snapshot
  size_t documents = 0;        ///< documents filed from the snapshot
  size_t rejected_documents = 0;  ///< documents dropped by validation
                                  ///< (kDropDocument policy only)
  size_t dirty_terms = 0;      ///< terms re-mined for new/evicted postings
  size_t refreshed_terms = 0;  ///< quiet terms re-mined by the sweep
  size_t search_terms = 0;     ///< terms whose search postings were re-derived
  size_t folded_terms = 0;     ///< terms whose evicted postings the cold
                               ///< tier folded this tick (history on only)
  bool evicted = false;        ///< whether retention advanced the window
  bool degraded = false;       ///< deadline ladder shed work this tick
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
/// is the exception: search_snapshot(), search_index(), and Search() with
/// pre-resolved TermIds are safe from any number of threads concurrently
/// with a running Tick — readers see the last published snapshot until the
/// tick's single publication swap, never intermediate state. (String-query
/// Search only reads the frozen vocabulary, so it too is tick-safe; it
/// must not overlap a mutable_vocabulary()->Intern burst.)
class FeedRuntime {
 public:
  /// Takes ownership of the historical collection, builds the sharded
  /// index, runs the initial whole-vocabulary sweep, and applies the
  /// retention window to the history. The collection may be empty of
  /// documents (a cold start).
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
  /// the runtime, exactly like Tick.
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
  /// `refresh_targets` (deadline rung 1 may shed it), the search re-scoring
  /// (rung 2 may defer it), and the next search snapshot — publishing
  /// nothing. On failure the caller must AbortTick the transaction.
  Status StageTickDerived(TickTransaction* tx,
                          std::vector<TermId> refresh_targets);

  /// Publishes the staged state and returns the tick's stats. On a clean
  /// pre-publication failure the transaction is rolled back; a failure
  /// after publication began wedges the runtime (see Tick).
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

  /// The standing pool, usable by callers between ticks (e.g. to fan a
  /// search-index rebuild); nullptr when the runtime is serial.
  ThreadPool* pool() { return pool_.get(); }

  /// The currently published search snapshot — one atomic acquire load, no
  /// locks. Hold it as long as you like: it stays bit-identical while
  /// ticks publish successors, and is freed when the last holder releases
  /// it. Window-consistent with result() as of the tick that published it;
  /// null when search serving is off. Safe from any thread concurrently
  /// with Tick.
  std::shared_ptr<const IndexSnapshot> search_snapshot() const {
    return search_snapshot_.Load();
  }

  /// Compatibility view of the current snapshot's index; nullptr when
  /// search serving is off. The pointee is pinned by the runtime's own
  /// reference, so the pointer stays valid at least until the next
  /// publishing Tick — callers that hold results across ticks should hold
  /// search_snapshot() instead. Cached query results are keyed by its
  /// generation(), which moves once per tick that edited search state.
  const InvertedIndex* search_index() const;

  /// Top-k bursty documents for a raw query string (tokenized against the
  /// collection's vocabulary; unknown words are dropped) over the current
  /// search snapshot. Requires search serving; safe concurrently with Tick
  /// (but not with vocabulary interning — see the class comment).
  TopKResult Search(const std::string& query, size_t k) const;

  /// Top-k for pre-resolved term ids: one atomic snapshot load + TA over
  /// the immutable snapshot (plus one cache mutex when
  /// search_cache_entries > 0). Safe from any number of threads
  /// concurrently with Tick; the result's generation tells which snapshot
  /// answered.
  TopKResult Search(const std::vector<TermId>& query, size_t k) const;

  /// Query-cache counters; all-zero when the cache is disabled.
  QueryCacheStats search_cache_stats() const;

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

  /// Step 0 of Tick, pure (no runtime state touched): enforces the
  /// on_invalid policy. kRejectTick returns InvalidArgument on the first
  /// malformed document; kDropDocument filters them out of `snapshot` and
  /// counts them into `stats->rejected_documents`.
  Status ValidateSnapshot(Snapshot* snapshot, FeedTickStats* stats) const;

  /// The guarded phase bodies: each stages or publishes its slice of the
  /// tick, recording undo state before every mutation. Exceptions escape to
  /// the public phase wrappers, which map them to Status (bad_alloc,
  /// injected faults, everything else) exactly like Tick always did.
  Status PrepareIngestGuarded(Snapshot snapshot, TickTransaction::Impl* tx);
  Status StageDerivedGuarded(TickTransaction::Impl* tx,
                             std::vector<TermId> refresh_targets);
  Status CommitGuarded(TickTransaction::Impl* tx);

  /// Whether the tick whose deadline clock `tx` carries is over
  /// options_.tick_deadline_seconds; false with no deadline configured.
  /// Calls options_.clock at most once (the scripted-clock contract).
  bool TickOverDeadline(const TickTransaction::Impl& tx) const;

  /// Restores the exact pre-tick state recorded in `undo` (reverse order of
  /// the tick's mutations). No-throw.
  void RollbackTick(FeedTickUndo* undo);

  /// Scores `term`'s retained documents against `slot`, appending the
  /// positive search postings to `out`. Const and scratch-parameterized so
  /// StageSearchPostings can run it on pool workers.
  void ScoreSearchTerm(TermId term, const TermPatterns& slot,
                       std::vector<TermPattern>* scratch,
                       std::vector<Posting>* out) const;

  /// Scores every term in `terms` (slot via `slot_for`) across the
  /// standing pool into index-addressed result slots — deterministic at
  /// any thread count. The staging half of the search update; the builder
  /// commits each list with InvertedIndex::ReplaceTerm.
  std::vector<std::vector<Posting>> StageSearchPostings(
      const std::vector<TermId>& terms,
      const std::function<const TermPatterns&(TermId)>& slot_for) const;

  FeedRuntimeOptions options_;
  Collection collection_;
  // The standing pool every phase fans across; null when fully serial.
  std::unique_ptr<ThreadPool> pool_;
  // Standing stream-position binning for regional mining (null otherwise):
  // built once at Create — stream positions never move — and lent to every
  // re-mine via options_.miner.binning, so no tick rebuilds the geometry.
  std::unique_ptr<SpatialBinning> binning_;
  FrequencyIndex index_;
  BatchMineResult result_;
  // Cold history tier (options_.history_mode != kOff): evicted postings
  // fold into it inside the tick transaction; kMmap generations publish in
  // the commit tail. unique_ptr keeps the runtime movable and the off case
  // free.
  std::unique_ptr<ColdTier> history_;
  // The read plane (options_.search_serving != kNone): the published
  // snapshot slot readers load from, the optional query-result cache
  // (null when search_cache_entries == 0), and the tokenizer for string
  // queries.
  PublishedPtr<IndexSnapshot> search_snapshot_;
  std::unique_ptr<QueryResultCache> search_cache_;
  Tokenizer tokenizer_;
  // Per-term bookkeeping for the refresh policy, indexed by TermId.
  std::vector<Timestamp> last_mined_;   // timeline length at last (re-)mine
  std::vector<Timestamp> last_window_;  // window length at last (re-)mine
  std::vector<double> mass_;            // windowed TotalCount at last mine
  // Degradation ladder: terms whose search re-scoring a deadline-pressed
  // tick deferred (sorted, unique); the next tick with headroom scores
  // them. Empty in steady state.
  std::vector<TermId> deferred_search_terms_;
  // Set when a failure struck inside a commit tail (partial publish — no
  // rollback possible); every further Tick refuses with FailedPrecondition.
  bool wedged_ = false;
};

}  // namespace stburst

#endif  // STBURST_STREAM_FEED_RUNTIME_H_
