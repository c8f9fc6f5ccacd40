#include "stburst/stream/feed_runtime.h"

#include <algorithm>
#include <exception>
#include <new>
#include <unordered_set>
#include <utility>

#include "stburst/common/fault_injection.h"
#include "stburst/common/logging.h"
#include "stburst/common/string_util.h"
#include "stburst/common/timer.h"
#include "stburst/index/search_engine.h"

namespace stburst {

namespace {
const TermPatterns kEmptyPatterns;
}  // namespace

// The undo log of one in-flight tick. Every `*_appended` / `*_evicted` flag
// is set immediately BEFORE its mutating call, so a failure anywhere inside
// the call (including a partial mutation cut short by an exception) is
// still rolled back; the per-structure rollbacks are built to clean up
// partial applications. `committing` flips once the commit tail starts
// publishing staged state — past that point rollback is impossible and a
// failure wedges the runtime instead. The search read plane needs no undo
// entry at all: its next generation is built entirely off to the side and
// an unpublished IndexSnapshot is simply dropped.
struct FeedRuntime::FeedTickUndo {
  Timestamp old_timeline = 0;
  size_t old_num_documents = 0;
  FrequencyIndex::AppendCheckpoint freq_checkpoint;
  std::vector<TermId> pre_dirty;
  bool pre_dirty_captured = false;
  bool collection_appended = false;
  bool index_appended = false;
  bool collection_evicted = false;
  bool freq_evicted = false;
  bool history_folded = false;
  bool bookkeeping_resized = false;
  bool committing = false;
  CollectionEvictUndo collection_undo;
  FrequencyEvictUndo freq_undo;
  ColdFoldUndo history_undo;
  size_t old_result_terms = 0;
  size_t old_bookkeeping_terms = 0;
};

// Everything one in-flight tick stages between PrepareTickIngest and
// CommitTick/AbortTick: the undo log, the running stats, the deadline
// clock, and the staged mining / scoring / snapshot state. Lives behind
// TickTransaction's pimpl so the header stays free of the undo types.
struct FeedRuntime::TickTransaction::Impl {
  FeedTickUndo undo;
  FeedTickStats stats;
  Timer timer;                 // starts at PrepareTickIngest
  double clock_start = 0.0;    // options_.clock() at PrepareTickIngest
  EvictionReport eviction;
  std::vector<TermId> dirty_todo;
  std::vector<TermPatterns> staged_dirty;
  std::vector<TermId> refresh_todo;
  std::vector<TermPatterns> staged_refresh;
  std::vector<TermId> score_terms;
  std::vector<std::vector<Posting>> staged_postings;
  std::vector<TermId> deferred_next;
  std::shared_ptr<IndexSnapshot> next_snapshot;
  bool touch_search = false;
};

FeedRuntime::TickTransaction::TickTransaction() = default;
FeedRuntime::TickTransaction::TickTransaction(TickTransaction&&) noexcept =
    default;
FeedRuntime::TickTransaction& FeedRuntime::TickTransaction::operator=(
    TickTransaction&&) noexcept = default;
FeedRuntime::TickTransaction::~TickTransaction() = default;

namespace {

// The tick phases' shared exception-to-Status mapping: every phase body may
// throw (std::bad_alloc from any container, an injected fault from a pool
// worker), and every phase must surface the identical Status a monolithic
// Tick always produced.
template <typename Fn>
Status GuardTickPhase(Fn&& fn) {
  try {
    return fn();
  } catch (const std::bad_alloc&) {
    return Status::Internal("allocation failure during tick");
  }
#ifdef STBURST_FAULT_INJECTION
  catch (const fault::FaultInjected& e) {
    return Status::Internal(e.what());
  }
#endif
  catch (const std::exception& e) {
    return Status::Internal(
        StringPrintf("exception during tick: %s", e.what()));
  }
}

}  // namespace

FeedRuntime::FeedRuntime(Collection collection, FeedRuntimeOptions options)
    : options_(std::move(options)), collection_(std::move(collection)) {
  const size_t threads = ResolveThreadCount(options_.num_threads);
  // The calling thread participates in every ParallelFor, so threads - 1
  // pool workers give the requested parallelism; serial runtimes hold no
  // pool at all (ParallelFor(nullptr, ...) runs inline).
  if (threads > 1) {
    pool_ = std::make_unique<ThreadPool>(
        ThreadPoolOptions{threads - 1, options_.pin_threads});
  }
  // The miner always runs on the standing pool (or inline when serial);
  // a caller-supplied transient-pool configuration would reintroduce the
  // per-tick spawn/join this runtime exists to remove.
  options_.miner.pool = pool_.get();
  options_.miner.num_threads = 1;
}

StatusOr<FeedRuntime> FeedRuntime::Create(Collection collection,
                                          FeedRuntimeOptions options) {
  if (options.retention_window < 0) {
    return Status::InvalidArgument("retention window must be non-negative");
  }
  // A search index over a pattern type the miner never produces would
  // silently serve zero results forever.
  if (options.search_serving == SearchServing::kCombinatorial &&
      !options.miner.mine_combinatorial) {
    return Status::InvalidArgument(
        "search_serving = kCombinatorial requires miner.mine_combinatorial");
  }
  if (options.search_serving == SearchServing::kRegional &&
      !options.miner.mine_regional) {
    return Status::InvalidArgument(
        "search_serving = kRegional requires miner.mine_regional");
  }
  // A cache with nothing to cache points at a misconfigured caller.
  if (options.search_cache_entries > 0 &&
      options.search_serving == SearchServing::kNone) {
    return Status::InvalidArgument(
        "search_cache_entries requires search_serving");
  }
  if (options.history_mode != HistoryMode::kOff &&
      options.history_bucket_width <= 0) {
    return Status::InvalidArgument(
        "history_bucket_width must be positive when history is on");
  }
  if (options.history_mode == HistoryMode::kMmap &&
      options.history_path.empty()) {
    return Status::InvalidArgument(
        "history_mode = kMmap requires history_path");
  }
  FeedRuntime runtime(std::move(collection), std::move(options));

  // Apply retention to the history before the initial sweep, so the sweep
  // mines exactly the retained window (and pays only for it).
  const Timestamp window = runtime.options_.retention_window;
  if (window > 0 && runtime.collection_.timeline_length() > window) {
    STB_RETURN_NOT_OK(runtime.collection_.EvictBefore(
        runtime.collection_.timeline_length() - window));
  }

  // Attach the cold history tier: fresh tiers adopt the live window's start
  // as their coverage origin; reopened mmap tiers must reach it (no gap
  // between the persisted aggregates and the live window). Folding begins
  // with the first evicting Tick — Create's own deep-history eviction above
  // is a declared drop, not a fold, and covered_start() records that.
  if (runtime.options_.history_mode != HistoryMode::kOff) {
    StatusOr<ColdTier> tier =
        runtime.options_.history_mode == HistoryMode::kMmap
            ? ColdTier::OpenOrCreate(runtime.options_.history_path,
                                     runtime.options_.history_bucket_width)
            : ColdTier::CreateInMemory(runtime.options_.history_bucket_width);
    if (!tier.ok()) return tier.status();
    runtime.history_ = std::make_unique<ColdTier>(std::move(tier).value());
    STB_RETURN_NOT_OK(
        runtime.history_->AttachAt(runtime.collection_.window_start()));
  }

  // Stream positions are fixed for the runtime's lifetime, so the regional
  // miners' cell geometry is too: build it once and lend it to every
  // (re-)mine below. Heap-owned so the pointer survives moves of `runtime`.
  if (runtime.options_.miner.mine_regional &&
      runtime.options_.miner.binning == nullptr) {
    STB_ASSIGN_OR_RETURN(
        SpatialBinning binning,
        SpatialBinning::Create(runtime.options_.miner.positions,
                               runtime.options_.miner.stlocal.rbursty.rect));
    runtime.binning_ = std::make_unique<SpatialBinning>(std::move(binning));
    runtime.options_.miner.binning = runtime.binning_.get();
  }

  runtime.index_ = FrequencyIndex::BuildWithPool(runtime.collection_,
                                                 runtime.pool_.get());
  STB_ASSIGN_OR_RETURN(runtime.result_,
                       MineAllTerms(runtime.index_, runtime.options_.miner));

  const Timestamp now = runtime.collection_.timeline_length();
  runtime.last_mined_.assign(runtime.index_.num_terms(), now);
  runtime.last_window_.assign(runtime.index_.num_terms(),
                              runtime.index_.window_length());
  runtime.mass_.resize(runtime.index_.num_terms());
  for (TermId t = 0; t < runtime.index_.num_terms(); ++t) {
    runtime.mass_[t] = runtime.index_.TotalCount(t);
  }

  // Initial search snapshot (generation 1): retention was already applied
  // above, so the postings cover exactly the retained window and every
  // DocId is live. Scored across the pool like every later tick.
  if (runtime.options_.search_serving != SearchServing::kNone) {
    std::vector<TermId> all(runtime.index_.num_terms());
    for (size_t t = 0; t < all.size(); ++t) all[t] = static_cast<TermId>(t);
    std::vector<std::vector<Posting>> staged = runtime.StageSearchPostings(
        all,
        [&](TermId term) -> const TermPatterns& { return runtime.patterns(term); });
    auto first = std::make_shared<IndexSnapshot>();
    for (size_t i = 0; i < all.size(); ++i) {
      first->index.ReplaceTerm(all[i], std::move(staged[i]));
    }
    first->index.Finalize();
    first->generation = first->index.generation();
    first->window_start = runtime.index_.window_start();
    first->doc_id_base = runtime.collection_.doc_id_base();
    runtime.search_snapshot_.Publish(std::move(first));
    if (runtime.options_.search_cache_entries > 0) {
      runtime.search_cache_ = std::make_unique<QueryResultCache>(
          runtime.options_.search_cache_entries);
    }
  }
  return runtime;
}

StatusOr<FeedTickStats> FeedRuntime::Tick(Snapshot snapshot) {
  // Exactly the per-phase protocol an instrumented caller drives. Each
  // phase maps its own exceptions, so Tick reports the same errors as the
  // phases run one by one.
  STB_ASSIGN_OR_RETURN(TickTransaction tx,
                       PrepareTickIngest(std::move(snapshot)));
  std::vector<TermId> refresh_targets;
  if (options_.refresh_budget > 0) {
    refresh_targets =
        SelectRefreshTargets(RefreshCandidates(tx), options_.refresh_budget);
  }
  const Status staged = StageTickDerived(&tx, std::move(refresh_targets));
  if (!staged.ok()) {
    AbortTick(std::move(tx));
    return staged;
  }
  return CommitTick(std::move(tx));
}

StatusOr<FeedRuntime::TickTransaction> FeedRuntime::PrepareTickIngest(
    Snapshot snapshot) {
  if (wedged_) {
    return Status::FailedPrecondition(
        "runtime wedged by a commit-tail failure; rebuild via Create");
  }
  TickTransaction tx;
  tx.impl_ = std::make_unique<TickTransaction::Impl>();
  const Status status = GuardTickPhase([&] {
    return PrepareIngestGuarded(std::move(snapshot), tx.impl_.get());
  });
  if (!status.ok()) {
    // A prepare failure never reaches the commit tail, so rollback is
    // always possible: the caller gets a clean error and an untouched
    // runtime, with no transaction to dispose of.
    RollbackTick(&tx.impl_->undo);
    return status;
  }
  return tx;
}

Status FeedRuntime::StageTickDerived(TickTransaction* tx,
                                     std::vector<TermId> refresh_targets) {
  return GuardTickPhase([&] {
    return StageDerivedGuarded(tx->impl_.get(), std::move(refresh_targets));
  });
}

StatusOr<FeedTickStats> FeedRuntime::CommitTick(TickTransaction tx) {
  TickTransaction::Impl* impl = tx.impl_.get();
  const Status status =
      GuardTickPhase([&] { return CommitGuarded(impl); });
  if (status.ok()) return std::move(impl->stats);
  if (impl->undo.committing) {
    // Staged state was partially published; there is no pre-tick state left
    // to restore. Refuse all further work instead of serving a mix.
    wedged_ = true;
    return Status::Internal(StringPrintf(
        "commit tail failed (%.*s); runtime wedged — rebuild via Create",
        static_cast<int>(status.message().size()), status.message().data()));
  }
  RollbackTick(&impl->undo);
  return status;
}

void FeedRuntime::AbortTick(TickTransaction tx) {
  if (tx.impl_ == nullptr) return;
  RollbackTick(&tx.impl_->undo);
}

Status ValidateSnapshotDocuments(size_t num_streams, size_t vocabulary_size,
                                 InvalidDocPolicy policy, Snapshot* snapshot,
                                 size_t* rejected) {
  const size_t vocab = vocabulary_size;
  // Duplicate = the same stream re-reporting the same explicit event id
  // within one snapshot. Documents without an event id are never flagged
  // (identical content from a no-id producer is plausible, a repeated event
  // id is by definition the same report twice). NaN / negative frequencies
  // need no check: counts are token multiplicities, structurally
  // non-negative integers (see the validation table in
  // docs/ARCHITECTURE.md).
  std::unordered_set<uint64_t> seen_events;
  auto invalid_reason = [&](const SnapshotDocument& doc) -> const char* {
    if (doc.stream >= num_streams) return "unknown stream id";
    for (TermId term : doc.tokens) {
      // kInvalidTerm is the all-ones sentinel, caught by the range check.
      if (term >= vocab) return "token outside the vocabulary";
    }
    if (doc.event_id != kNoEvent) {
      const uint64_t key = (static_cast<uint64_t>(doc.stream) << 32) |
                           static_cast<uint32_t>(doc.event_id);
      if (!seen_events.insert(key).second) return "duplicate event report";
    }
    return nullptr;
  };

  if (policy == InvalidDocPolicy::kRejectTick) {
    for (size_t i = 0; i < snapshot->size(); ++i) {
      const char* reason = invalid_reason((*snapshot)[i]);
      if (reason != nullptr) {
        return Status::InvalidArgument(
            StringPrintf("snapshot document %zu rejected: %s", i, reason));
      }
    }
    return Status::OK();
  }
  // kDropDocument: quarantine the offenders in place, keep the rest.
  size_t out = 0;
  for (size_t i = 0; i < snapshot->size(); ++i) {
    if (invalid_reason((*snapshot)[i]) == nullptr) {
      if (out != i) (*snapshot)[out] = std::move((*snapshot)[i]);
      ++out;
    }
  }
  *rejected += snapshot->size() - out;
  snapshot->resize(out);
  return Status::OK();
}

Status FeedRuntime::ValidateSnapshot(Snapshot* snapshot,
                                     FeedTickStats* stats) const {
  return ValidateSnapshotDocuments(collection_.num_streams(),
                                   collection_.vocabulary().size(),
                                   options_.on_invalid, snapshot,
                                   &stats->rejected_documents);
}

bool FeedRuntime::TickOverDeadline(const TickTransaction::Impl& tx) const {
  if (options_.tick_deadline_seconds <= 0.0) return false;
  const double elapsed = options_.clock
                             ? options_.clock() - tx.clock_start
                             : tx.timer.ElapsedSeconds();
  return elapsed > options_.tick_deadline_seconds;
}

Status FeedRuntime::PrepareIngestGuarded(Snapshot snapshot,
                                         TickTransaction::Impl* tx) {
  // The deadline clock starts with the tick, before validation — exactly
  // where the monolithic tick started it.
  tx->clock_start = options_.clock ? options_.clock() : 0.0;
  FeedTickUndo* undo = &tx->undo;
  FeedTickStats* stats = &tx->stats;

  // Step 0: validation is pure — a rejected tick never touched the runtime.
  STB_RETURN_NOT_OK(ValidateSnapshot(&snapshot, stats));
  stats->documents = snapshot.size();

  // ---- mutation phase: record undo state before every mutating call ----
  undo->old_timeline = collection_.timeline_length();
  undo->old_num_documents = collection_.num_documents();
  undo->freq_checkpoint = index_.CheckpointBeforeAppend();
  undo->pre_dirty = index_.PendingDirtyTerms();
  undo->pre_dirty_captured = true;

  undo->collection_appended = true;
  STB_ASSIGN_OR_RETURN(stats->time, collection_.Append(std::move(snapshot)));
  undo->index_appended = true;
  STB_RETURN_NOT_OK(index_.AppendSnapshot(collection_, pool_.get()));

  const Timestamp window = options_.retention_window;
  if (window > 0 && collection_.timeline_length() > window) {
    const Timestamp cutoff = collection_.timeline_length() - window;
    if (cutoff > index_.window_start()) {
      undo->collection_evicted = true;
      STB_RETURN_NOT_OK(collection_.EvictBefore(cutoff, &tx->eviction,
                                                &undo->collection_undo));
      undo->freq_evicted = true;
      STB_RETURN_NOT_OK(
          index_.EvictBefore(cutoff, pool_.get(), &undo->freq_undo));
      stats->evicted = true;

      // Tiered history (retention rule 9): the postings the eviction just
      // removed — captured verbatim in the undo log, so the fold costs no
      // extra posting walk — aggregate into the cold tier before they are
      // forgotten. In-memory only here; the kMmap generation publishes in
      // the commit tail. RollbackTick restores the pre-fold tier.
      if (history_ != nullptr) {
        STBURST_FAULT_POINT("history.fold");
        undo->history_folded = true;
        stats->folded_terms = history_->FoldEvicted(
            undo->freq_undo.removed, cutoff, &undo->history_undo);
      }
    }
  }

  // ---- staged dirty re-mine: into buffers, publish nothing ----
  // Terms with appended or evicted postings: their slots are wrong until
  // re-mined. Quiet terms' slots stay exact under the sliding window —
  // their windowed series content is unchanged and timeframes are absolute
  // (the retention contract).
  std::vector<TermId> dirty = index_.TakeDirtyTerms();
  STBURST_FAULT_POINT("runtime.remine");
  STB_ASSIGN_OR_RETURN(
      tx->dirty_todo,
      StageRemineTerms(index_, dirty, options_.miner, &tx->staged_dirty));
  stats->dirty_terms = tx->dirty_todo.size();
  return Status::OK();
}

Status FeedRuntime::StageDerivedGuarded(TickTransaction::Impl* tx,
                                        std::vector<TermId> refresh_targets) {
  FeedTickStats* stats = &tx->stats;
  if (options_.refresh_budget > 0) {
    if (TickOverDeadline(*tx)) {
      // Degradation ladder, step 1: shed the refresh sweep. Pure freshness
      // work — quiet slots just keep their standard staleness drift.
      stats->degraded = true;
    } else {
      STB_ASSIGN_OR_RETURN(
          tx->refresh_todo,
          StageRemineTerms(index_, refresh_targets, options_.miner,
                           &tx->staged_refresh));
    }
  }
  stats->refreshed_terms = tx->refresh_todo.size();

  const std::vector<TermId>& dirty_todo = tx->dirty_todo;
  const std::vector<TermId>& refresh_todo = tx->refresh_todo;
  const bool search = options_.search_serving != SearchServing::kNone;
  const bool rebuild_all =
      search && stats->evicted && !tx->eviction.ids_preserved;
  if (search) {
    // The score set: this tick's re-mined terms, plus any scoring a
    // previous degraded tick deferred — or every term after a renumbering
    // eviction (out-of-order historical ingest; never an Append-driven
    // feed), when every standing DocId went stale at once.
    std::vector<TermId> want;
    if (rebuild_all) {
      want.resize(index_.num_terms());
      for (size_t t = 0; t < want.size(); ++t) {
        want[t] = static_cast<TermId>(t);
      }
    } else {
      want.reserve(dirty_todo.size() + refresh_todo.size() +
                   deferred_search_terms_.size());
      want.insert(want.end(), dirty_todo.begin(), dirty_todo.end());
      want.insert(want.end(), refresh_todo.begin(), refresh_todo.end());
      want.insert(want.end(), deferred_search_terms_.begin(),
                  deferred_search_terms_.end());
      std::sort(want.begin(), want.end());
      want.erase(std::unique(want.begin(), want.end()), want.end());
    }
    if (!rebuild_all && !want.empty() && TickOverDeadline(*tx)) {
      // Degradation ladder, step 2: defer search re-scoring — the terms
      // carry over and the next tick with headroom scores them. Search
      // *eviction* still publishes below (a deferred drop would serve dead
      // DocIds), and a renumbering rebuild is never deferred for the same
      // reason.
      stats->degraded = true;
      tx->deferred_next = std::move(want);
    } else {
      // A term staged this tick scores against its staged slot (its
      // standing slot is still pre-tick); deferred carry-overs score
      // against their standing slot, which their original tick committed.
      const auto slot_for = [&](TermId term) -> const TermPatterns& {
        auto it =
            std::lower_bound(dirty_todo.begin(), dirty_todo.end(), term);
        if (it != dirty_todo.end() && *it == term) {
          return tx->staged_dirty[static_cast<size_t>(it -
                                                      dirty_todo.begin())];
        }
        it = std::lower_bound(refresh_todo.begin(), refresh_todo.end(), term);
        if (it != refresh_todo.end() && *it == term) {
          return tx->staged_refresh[static_cast<size_t>(
              it - refresh_todo.begin())];
        }
        if (term < result_.terms.size()) return result_.terms[term];
        return kEmptyPatterns;
      };
      tx->score_terms = std::move(want);
      tx->staged_postings = StageSearchPostings(tx->score_terms, slot_for);
    }
  }

  // ---- staged snapshot build: the next read-plane generation, entirely
  // off to the side. A private copy of the published index goes through the
  // incremental fast path (Reopen → EvictBefore → ReplaceTerm → Finalize);
  // readers keep loading the current snapshot untouched, and on any failure
  // up to and including the runtime.publish fault point the half-built
  // successor is simply dropped — no undo entry needed.
  tx->touch_search =
      search && (stats->evicted || !tx->score_terms.empty());
  if (tx->touch_search) {
    const std::shared_ptr<const IndexSnapshot> current =
        search_snapshot_.Load();
    tx->next_snapshot = std::make_shared<IndexSnapshot>();
    tx->next_snapshot->index = current->index;
    tx->next_snapshot->index.Reopen();
    if (stats->evicted && tx->eviction.ids_preserved) {
      tx->next_snapshot->index.EvictBefore(tx->eviction.doc_id_base);
    }
    for (size_t i = 0; i < tx->score_terms.size(); ++i) {
      tx->next_snapshot->index.ReplaceTerm(tx->score_terms[i],
                                           std::move(tx->staged_postings[i]));
    }
    // The copy carried the published generation, so this Finalize lands on
    // exactly generation + 1: one bump per editing tick, as before.
    tx->next_snapshot->index.Finalize();
    tx->next_snapshot->generation = tx->next_snapshot->index.generation();
    tx->next_snapshot->window_start = index_.window_start();
    tx->next_snapshot->doc_id_base = collection_.doc_id_base();
    STBURST_FAULT_POINT("runtime.publish");
  }
  return Status::OK();
}

Status FeedRuntime::CommitGuarded(TickTransaction::Impl* tx) {
  FeedTickUndo* undo = &tx->undo;
  FeedTickStats* stats = &tx->stats;
  const std::vector<TermId>& dirty_todo = tx->dirty_todo;
  const std::vector<TermId>& refresh_todo = tx->refresh_todo;

  // Revertible prologue: container growth that can still fail cleanly — a
  // rollback just shrinks back to the recorded sizes (the grown slots are
  // defaults nobody read).
  const size_t num_terms = index_.num_terms();
  const Timestamp now = collection_.timeline_length();
  const Timestamp window_len = index_.window_length();
  undo->bookkeeping_resized = true;
  undo->old_result_terms = result_.terms.size();
  undo->old_bookkeeping_terms = last_mined_.size();
  result_.terms.resize(num_terms);
  for (size_t t = undo->old_result_terms; t < num_terms; ++t) {
    result_.terms[t].term = static_cast<TermId>(t);
  }
  // Vocabulary growth: new terms with postings are in dirty_todo and get
  // stamped below; interned-but-unseen terms carry no mass, so their stamp
  // never matters.
  last_mined_.resize(num_terms, now);
  last_window_.resize(num_terms, window_len);
  mass_.resize(num_terms, 0.0);

  // Point of no return: staged state starts publishing. Everything below
  // is no-throw or allocation-light (moves, in-place stamps, one atomic
  // snapshot swap); a failure past here — in practice only a true OOM
  // inside the bookkeeping moves — wedges the runtime.
  undo->committing = true;

  for (size_t i = 0; i < dirty_todo.size(); ++i) {
    result_.terms[dirty_todo[i]] = std::move(tx->staged_dirty[i]);
  }
  for (size_t i = 0; i < refresh_todo.size(); ++i) {
    result_.terms[refresh_todo[i]] = std::move(tx->staged_refresh[i]);
  }
  size_t mined = 0;
  for (const TermPatterns& slot : result_.terms) mined += slot.mined ? 1 : 0;
  result_.terms_mined = mined;
  result_.terms_skipped = result_.terms.size() - mined;
  result_.threads_used = pool_ != nullptr ? pool_->num_threads() + 1 : 1;

  for (TermId t : dirty_todo) {
    last_mined_[t] = now;
    last_window_[t] = window_len;
    mass_[t] = index_.TotalCount(t);
  }
  for (TermId t : refresh_todo) {
    last_mined_[t] = now;
    last_window_[t] = window_len;
    mass_[t] = index_.TotalCount(t);
  }

  if (tx->touch_search) {
    stats->search_terms = tx->score_terms.size();
    // The publication swap: readers that loaded the old snapshot keep it
    // alive; every later load sees the new generation complete (release
    // store / acquire load pair — see common/published_ptr.h).
    search_snapshot_.Publish(std::move(tx->next_snapshot));
  }
  deferred_search_terms_ = std::move(tx->deferred_next);

  // Cold-tier checkpoint (kMmap): persist the folded generation. Publish
  // failure is deliberately non-wedging — the in-memory tier is already
  // correct and the on-disk file is a checkpoint that lags until the next
  // folding tick retries; a crash meanwhile recovers the last generation
  // that *was* atomically published (see docs/STORAGE.md). The local
  // try/catch keeps even an allocation failure inside Publish from
  // escalating a healthy commit into a wedge.
  if (undo->history_folded && history_ != nullptr && history_->mmap_backed()) {
    try {
      const Status published = history_->Publish();
      if (!published.ok()) {
        STB_LOG(WARNING) << "cold tier publish failed ("
                         << published.ToString()
                         << "); on-disk generation lags until the next "
                            "folding tick";
      }
    } catch (const std::exception& e) {
      STB_LOG(WARNING) << "cold tier publish threw (" << e.what()
                       << "); on-disk generation lags until the next "
                          "folding tick";
    }
  }

  stats->seconds = tx->timer.ElapsedSeconds();
  return Status::OK();
}

void FeedRuntime::RollbackTick(FeedTickUndo* undo) {
  // Reverse order of the tick's mutations. Each rollback is a no-op when
  // its mutation never started (or never got to mutate anything). The
  // search snapshot never appears here: a failed tick's successor was
  // never published, so readers stayed on the old generation throughout.
  if (undo->bookkeeping_resized) {
    result_.terms.resize(undo->old_result_terms);
    last_mined_.resize(undo->old_bookkeeping_terms);
    last_window_.resize(undo->old_bookkeeping_terms);
    mass_.resize(undo->old_bookkeeping_terms);
  }
  if (undo->history_folded && history_ != nullptr) {
    history_->RollbackFold(std::move(undo->history_undo));
  }
  if (undo->freq_evicted) index_.RollbackEvict(std::move(undo->freq_undo));
  if (undo->collection_evicted) {
    collection_.RollbackEvict(std::move(undo->collection_undo));
  }
  if (undo->index_appended) index_.RollbackAppend(undo->freq_checkpoint);
  if (undo->collection_appended) {
    collection_.RollbackAppend(undo->old_timeline, undo->old_num_documents);
  }
  if (undo->pre_dirty_captured) {
    index_.RestoreDirtyTerms(std::move(undo->pre_dirty));
  }
}

std::vector<RefreshCandidate> FeedRuntime::RefreshCandidates(
    const TickTransaction& tx) const {
  // Priority = windowed mass × ticks since last mine: a heavy term drifting
  // for two ticks outranks a light one drifting for ten. mass_ is exact for
  // every quiet term (anything whose postings changed was re-mined and
  // re-stamped this tick), so the scan is O(V) with no posting walks.
  //
  // A quiet term only qualifies while its burstiness normalization drifted
  // — the window length changed since its last mine. On a
  // length-preserving steady-state slide its windowed series content and
  // absolute timeframes are unchanged (retention contract), so a re-mine
  // would be a no-op in exact arithmetic only: in floating point the slot
  // can drift by rounding, and occasionally in structure. Skipping such
  // slots is policy, not proof — it drains the sweep to zero once the
  // window is full, and bench/e2e measures the drift it leaves as
  // audit.quiet_slots_*. Sub-threshold terms never qualify either: the
  // miner would skip them anyway, and cycling them through the budget
  // would starve real work.
  const std::vector<TermId>& exclude = tx.impl_->dirty_todo;
  const Timestamp now = collection_.timeline_length();
  const Timestamp window = index_.window_length();
  std::vector<RefreshCandidate> candidates;
  for (TermId t = 0; t < last_mined_.size(); ++t) {
    // The tick's dirty set is being re-mined anyway; spending budget on it
    // would be duplicate work (and before the staged redesign these terms
    // were already stamped fresh by the time the sweep ran).
    if (std::binary_search(exclude.begin(), exclude.end(), t)) continue;
    const Timestamp stale = now - last_mined_[t];
    if (stale <= 0 || mass_[t] <= 0.0) continue;
    if (last_window_[t] == window) continue;
    if (mass_[t] < options_.miner.min_term_total) continue;
    candidates.push_back(
        RefreshCandidate{t, mass_[t] * static_cast<double>(stale)});
  }
  return candidates;
}

std::vector<TermId> FeedRuntime::SelectRefreshTargets(
    std::vector<RefreshCandidate> candidates, size_t budget) {
  budget = std::min(budget, candidates.size());
  // Deterministic order: priority descending, TermId ascending on ties —
  // the sweep must pick the same terms at any thread count.
  std::partial_sort(candidates.begin(),
                    candidates.begin() + static_cast<ptrdiff_t>(budget),
                    candidates.end(),
                    [](const RefreshCandidate& a, const RefreshCandidate& b) {
                      if (a.priority != b.priority) {
                        return a.priority > b.priority;
                      }
                      return a.term < b.term;
                    });
  std::vector<TermId> targets;
  targets.reserve(budget);
  for (size_t i = 0; i < budget; ++i) targets.push_back(candidates[i].term);
  return targets;
}

void FeedRuntime::ScoreSearchTerm(TermId term, const TermPatterns& slot,
                                  std::vector<TermPattern>* scratch,
                                  std::vector<Posting>* out) const {
  scratch->clear();
  if (options_.search_serving == SearchServing::kCombinatorial) {
    for (const CombinatorialPattern& p : slot.combinatorial) {
      scratch->push_back(TermPattern{p.streams, p.timeframe, p.score});
    }
  } else {
    for (const SpatiotemporalWindow& w : slot.regional) {
      scratch->push_back(TermPattern{w.streams, w.timeframe, w.score});
    }
  }
  // TermPattern's overlap test binary-searches the stream list; the
  // miners already emit sorted stream sets, but sort defensively — the
  // lists are tiny and Build (via PatternIndex::Add) does the same.
  for (TermPattern& p : *scratch) {
    std::sort(p.streams.begin(), p.streams.end());
  }
  ScoreTermDocuments(collection_, index_, term, *scratch, out);
}

std::vector<std::vector<Posting>> FeedRuntime::StageSearchPostings(
    const std::vector<TermId>& terms,
    const std::function<const TermPatterns&(TermId)>& slot_for) const {
  // Sharded across the standing pool: per-worker pattern scratch (the
  // calling thread takes the highest worker id), results into
  // index-addressed slots — schedule-independent output at any thread
  // count. Reads only frozen state (collection, frequency index, standing
  // + staged slots), so workers share it without synchronization.
  std::vector<std::vector<Posting>> staged(terms.size());
  const size_t workers = pool_ != nullptr ? pool_->num_threads() + 1 : 1;
  std::vector<std::vector<TermPattern>> scratch(workers);
  ParallelFor(pool_.get(), 0, terms.size(), [&](size_t worker, size_t i) {
    STBURST_FAULT_POINT_THROW("runtime.search_update");
    ScoreSearchTerm(terms[i], slot_for(terms[i]), &scratch[worker],
                    &staged[i]);
  });
  return staged;
}

TopKResult FeedRuntime::Search(const std::string& query, size_t k) const {
  return Search(tokenizer_.TokenizeFrozen(query, collection_.vocabulary()), k);
}

TopKResult FeedRuntime::Search(const std::vector<TermId>& query,
                               size_t k) const {
  STB_CHECK(options_.search_serving != SearchServing::kNone)
      << "Search requires FeedRuntimeOptions::search_serving";
  // One acquire load pins the generation this query answers from; the
  // snapshot stays alive (and bit-identical) through the TA run however
  // many ticks publish meanwhile.
  const std::shared_ptr<const IndexSnapshot> snapshot =
      search_snapshot_.Load();
  if (search_cache_ != nullptr) {
    TopKResult cached;
    if (search_cache_->Lookup(snapshot->generation, query, k, &cached)) {
      return cached;
    }
    TopKResult fresh = ThresholdTopK(snapshot->index, query, k);
    search_cache_->Insert(snapshot->generation, query, k, fresh);
    return fresh;
  }
  return ThresholdTopK(snapshot->index, query, k);
}

const InvertedIndex* FeedRuntime::search_index() const {
  if (options_.search_serving == SearchServing::kNone) return nullptr;
  // The slot's own strong reference keeps the pointee alive past this
  // call's temporary; the pointer stays valid until the next publishing
  // tick (see the header contract).
  return &search_snapshot_.Load()->index;
}

QueryCacheStats FeedRuntime::search_cache_stats() const {
  return search_cache_ != nullptr ? search_cache_->stats() : QueryCacheStats{};
}

const TermPatterns& FeedRuntime::patterns(TermId term) const {
  if (term >= result_.terms.size()) return kEmptyPatterns;
  return result_.terms[term];
}

Timestamp FeedRuntime::staleness(TermId term) const {
  if (term >= last_mined_.size()) return 0;
  return collection_.timeline_length() - last_mined_[term];
}

}  // namespace stburst
