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
// CommitTick/AbortTick: the undo log, the running stats, and the staged
// mining / scoring / snapshot state. Lives behind TickTransaction's pimpl so
// the header stays free of the undo types.
struct FeedRuntime::TickTransaction::Impl {
  FeedTickUndo undo;
  FeedTickStats stats;
  Timer timer;                 // starts at PrepareTickIngest
  std::vector<TermId> dirty_todo;
  std::vector<TermPatterns> staged_dirty;
  std::vector<TermId> refresh_todo;
  std::vector<TermPatterns> staged_refresh;
  std::vector<TermId> score_terms;
  std::vector<std::vector<Posting>> staged_postings;
  std::shared_ptr<IndexSnapshot> next_snapshot;
  bool touch_search = false;
  bool staged = false;  // StageTickDerived succeeded; CommitTick requires it
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
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads - 1);
  // Every mine runs on the standing pool. num_threads = 1 matters when
  // serial (no pool): the miner's default of 0 would spawn and join a
  // transient hardware-sized pool on every call.
  mine_options_.stcomb = options_.miner.stcomb;
  mine_options_.pool = pool_.get();
  mine_options_.num_threads = 1;
}

StatusOr<FeedRuntime> FeedRuntime::Create(Collection collection,
                                          FeedRuntimeOptions options) {
  if (options.retention_window < 0) {
    return Status::InvalidArgument("retention window must be non-negative");
  }
  FeedRuntime runtime(std::move(collection), std::move(options));

  // Time-order the history once (a no-op for in-order and Append-built
  // histories): Append keeps it so from here on, so every eviction of this
  // runtime's life is a prefix erase that keeps surviving DocIds.
  runtime.collection_.SortByTime();

  // Apply retention to the history before the initial sweep, so the sweep
  // mines exactly the retained window (and pays only for it).
  const Timestamp window = runtime.options_.retention_window;
  if (window > 0 && runtime.collection_.timeline_length() > window) {
    STB_RETURN_NOT_OK(runtime.collection_.EvictBefore(
        runtime.collection_.timeline_length() - window));
  }

  // Open the cold history tier at the live window's start, its coverage
  // origin. Folding begins with the first evicting Tick — Create's own
  // deep-history eviction above is a declared drop, not a fold, and
  // covered_start() records that.
  if (runtime.options_.history_mode != HistoryMode::kOff) {
    STB_ASSIGN_OR_RETURN(
        ColdTier tier, ColdTier::Open(runtime.options_.history_bucket_width,
                                      runtime.collection_.window_start()));
    runtime.history_ = std::make_unique<ColdTier>(std::move(tier));
  }

  runtime.index_ = FrequencyIndex::Build(runtime.collection_);
  STB_ASSIGN_OR_RETURN(runtime.result_,
                       MineAllTerms(runtime.index_, runtime.mine_options_));

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
        [&](TermId term) -> const TermPatterns& {
          return runtime.patterns(term);
        },
        nullptr);
    auto first = std::make_shared<IndexSnapshot>();
    first->index = InvertedIndex(std::move(staged));
    first->generation = 1;
    first->window_start = runtime.index_.window_start();
    first->doc_id_base = runtime.collection_.doc_id_base();
    runtime.search_snapshot_.Publish(std::move(first));
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
  const Status status = GuardTickPhase([&] {
    return StageDerivedGuarded(tx->impl_.get(), std::move(refresh_targets));
  });
  tx->impl_->staged = status.ok();
  return status;
}

StatusOr<FeedTickStats> FeedRuntime::CommitTick(TickTransaction tx) {
  TickTransaction::Impl* impl = tx.impl_.get();
  if (!impl->staged) {
    // Committing the ingest alone would publish a collection (evicted
    // documents gone) that the unchanged search snapshot still indexes.
    RollbackTick(&impl->undo);
    return Status::FailedPrecondition(
        "CommitTick of a transaction StageTickDerived did not stage; "
        "the tick was rolled back");
  }
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

Status FeedRuntime::PrepareIngestGuarded(Snapshot snapshot,
                                         TickTransaction::Impl* tx) {
  FeedTickUndo* undo = &tx->undo;
  FeedTickStats* stats = &tx->stats;

  // Step 0: validation is pure — a rejected tick never touched the runtime.
  STB_RETURN_NOT_OK(ValidateSnapshotDocuments(
      collection_.num_streams(), collection_.vocabulary().size(),
      options_.on_invalid, &snapshot, &stats->rejected_documents));
  stats->documents = snapshot.size();

  // ---- mutation phase: record undo state before every mutating call ----
  undo->old_timeline = collection_.timeline_length();
  undo->old_num_documents = collection_.num_documents();
  undo->freq_checkpoint = index_.CheckpointBeforeAppend();

  undo->collection_appended = true;
  STB_ASSIGN_OR_RETURN(stats->time, collection_.Append(std::move(snapshot)));
  undo->index_appended = true;
  STB_ASSIGN_OR_RETURN(std::vector<TermId> dirty,
                       index_.AppendSnapshot(collection_, pool_.get()));

  const Timestamp window = options_.retention_window;
  if (window > 0 && collection_.timeline_length() > window) {
    const Timestamp cutoff = collection_.timeline_length() - window;
    if (cutoff > index_.window_start()) {
      undo->collection_evicted = true;
      STB_RETURN_NOT_OK(
          collection_.EvictBefore(cutoff, &undo->collection_undo));
      undo->freq_evicted = true;
      STB_ASSIGN_OR_RETURN(
          std::vector<TermId> evicted_terms,
          index_.EvictBefore(cutoff, pool_.get(), &undo->freq_undo));
      dirty.insert(dirty.end(), evicted_terms.begin(), evicted_terms.end());
      stats->evicted = true;

      // Tiered history (retention rule 8): the postings the eviction just
      // removed — captured verbatim in the undo log, so the fold costs no
      // extra posting walk — aggregate into the cold tier before they are
      // forgotten. RollbackTick restores the pre-fold tier.
      if (history_ != nullptr) {
        STBURST_FAULT_POINT("history.fold");
        undo->history_folded = true;
        stats->folded_terms = history_->FoldEvicted(
            undo->freq_undo.removed, cutoff, &undo->history_undo);
      }
    }
  }

  // ---- staged dirty re-mine: into buffers, publish nothing ----
  // Terms with appended or evicted postings (StageRemineTerms merges the
  // two lists): their slots are wrong until re-mined. Quiet terms' slots
  // stay exact under the sliding window — their windowed series content is
  // unchanged and timeframes are absolute (the retention contract).
  STBURST_FAULT_POINT("runtime.remine");
  STB_ASSIGN_OR_RETURN(
      tx->dirty_todo,
      StageRemineTerms(index_, dirty, mine_options_, &tx->staged_dirty,
                       &stats->extracted_rows));
  stats->dirty_terms = tx->dirty_todo.size();
  return Status::OK();
}

Status FeedRuntime::StageDerivedGuarded(TickTransaction::Impl* tx,
                                        std::vector<TermId> refresh_targets) {
  FeedTickStats* stats = &tx->stats;
  size_t refresh_rows = 0;
  STB_ASSIGN_OR_RETURN(
      tx->refresh_todo,
      StageRemineTerms(index_, refresh_targets, mine_options_,
                       &tx->staged_refresh, &refresh_rows));
  stats->refreshed_terms = tx->refresh_todo.size();
  stats->extracted_rows += refresh_rows;

  const std::vector<TermId>& dirty_todo = tx->dirty_todo;
  const std::vector<TermId>& refresh_todo = tx->refresh_todo;
  const bool search = options_.search_serving != SearchServing::kNone;
  if (search) {
    // The score set: exactly this tick's re-mined terms, each scored
    // against its staged slot (its standing slot is still pre-tick).
    tx->score_terms.reserve(dirty_todo.size() + refresh_todo.size());
    tx->score_terms.insert(tx->score_terms.end(), dirty_todo.begin(),
                           dirty_todo.end());
    tx->score_terms.insert(tx->score_terms.end(), refresh_todo.begin(),
                           refresh_todo.end());
    std::sort(tx->score_terms.begin(), tx->score_terms.end());
    tx->score_terms.erase(
        std::unique(tx->score_terms.begin(), tx->score_terms.end()),
        tx->score_terms.end());
    const auto slot_for = [&](TermId term) -> const TermPatterns& {
      auto it = std::lower_bound(dirty_todo.begin(), dirty_todo.end(), term);
      if (it != dirty_todo.end() && *it == term) {
        return tx->staged_dirty[static_cast<size_t>(it - dirty_todo.begin())];
      }
      it = std::lower_bound(refresh_todo.begin(), refresh_todo.end(), term);
      return tx->staged_refresh[static_cast<size_t>(it - refresh_todo.begin())];
    };
    tx->staged_postings = StageSearchPostings(
        tx->score_terms, slot_for, &stats->search_tokens_scanned);
  }

  // ---- staged snapshot build: the next read-plane generation, entirely
  // off to the side. One InvertedIndex::Successor of the published index
  // drops the evicted docs and replaces the re-scored terms; readers keep
  // loading the current snapshot untouched, and on any failure up to and
  // including the runtime.publish fault point the unpublished successor is
  // simply dropped — no undo entry needed.
  tx->touch_search =
      search && (stats->evicted || !tx->score_terms.empty());
  if (tx->touch_search) {
    const std::shared_ptr<const IndexSnapshot> current =
        search_snapshot_.Load();
    tx->next_snapshot = std::make_shared<IndexSnapshot>();
    tx->next_snapshot->index = InvertedIndex::Successor(
        current->index, collection_.doc_id_base(), tx->score_terms,
        std::move(tx->staged_postings));
    tx->next_snapshot->generation = current->generation + 1;
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
    // alive; every later load sees the new generation complete (see
    // common/published_ptr.h).
    search_snapshot_.Publish(std::move(tx->next_snapshot));
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
  // audit.quiet_slots_*.
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

std::vector<std::vector<Posting>> FeedRuntime::StageSearchPostings(
    const std::vector<TermId>& terms,
    const std::function<const TermPatterns&(TermId)>& slot_for,
    size_t* tokens_scanned) const {
  // Reads only frozen state (collection, frequency index, standing + staged
  // slots), so the kernel's pool workers share it without synchronization.
  return ScoreTermsByCell(
      collection_, index_, terms,
      [&](size_t i) -> std::span<const CombinatorialPattern> {
        STBURST_FAULT_POINT_THROW("runtime.search_update");
        return slot_for(terms[i]).combinatorial;
      },
      pool_.get(), tokens_scanned);
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
  TopKResult result = ThresholdTopK(snapshot->index, query, k);
  result.generation = snapshot->generation;
  return result;
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
