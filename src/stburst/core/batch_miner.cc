#include "stburst/core/batch_miner.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <utility>

#include "stburst/common/fault_injection.h"
#include "stburst/common/logging.h"
#include "stburst/common/parallel.h"
#include "stburst/core/temporal.h"

namespace stburst {

namespace {

// Per-worker reusable state. One instance per worker id; ParallelFor
// guarantees a worker id is never active on two threads at once.
struct WorkerScratch {
  std::vector<RowCell> cells;               // one stream's occupied cells
  BurstyIntervalExtractor extractor;
  std::vector<BurstyInterval> bursts;       // one stream's bursty intervals
  std::vector<StreamInterval> intervals;    // pooled per-term intervals
  size_t extracted_rows = 0;                // (term, stream) rows extracted
  std::unique_ptr<TermSeries> dense;        // regional mining only
};

// Combinatorial step (1) straight from sorted sparse postings: postings are
// grouped by stream and time-ordered within a stream, one per nonzero
// cell, so each group is a row's occupied cells (absolute time minus
// `origin`) and goes to interval extraction as is; the extracted intervals
// are mapped back to absolute timestamps. Streams without postings have no
// mass and thus no intervals — identical output to the dense
// ExtractStreamIntervals, at O(postings + zero cells between a row's first
// and last posting) instead of O(n * L).
void ExtractIntervalsFromPostings(const std::vector<TermPosting>& postings,
                                  size_t timeline, Timestamp origin,
                                  double min_burstiness,
                                  WorkerScratch* scratch) {
  scratch->intervals.clear();
  size_t i = 0;
  while (i < postings.size()) {
    const StreamId stream = postings[i].stream;
    scratch->cells.clear();
    for (; i < postings.size() && postings[i].stream == stream; ++i) {
      scratch->cells.push_back(
          RowCell{static_cast<size_t>(postings[i].time - origin),
                  postings[i].count});
    }
    scratch->bursts.clear();
    scratch->extractor.Append(scratch->cells, timeline, min_burstiness,
                              &scratch->bursts);
    ++scratch->extracted_rows;
    for (const BurstyInterval& bi : scratch->bursts) {
      scratch->intervals.push_back(StreamInterval{
          stream,
          Interval{bi.interval.start + origin, bi.interval.end + origin},
          bi.burstiness});
    }
  }
}

Status ValidateRegional(const FrequencyIndex& index,
                        const BatchMinerOptions& options) {
  if (!options.mine_regional) return Status::OK();
  if (options.positions.size() != index.num_streams()) {
    return Status::InvalidArgument(
        "regional mining requires one position per stream");
  }
  if (!options.model_factory) {
    return Status::InvalidArgument(
        "regional mining requires an expected-model factory");
  }
  return Status::OK();
}

// State shared by one StageRemineTerms run (MineAllTerms is one over every
// term): the per-worker scratch, the shared STComb instance and expected
// model, and first-error capture. MineTerm is the per-term pipeline.
struct MineShared {
  const FrequencyIndex& index;
  const BatchMinerOptions& options;
  const StComb stcomb;
  const size_t timeline;   // retained window width
  const Timestamp origin;  // absolute timestamp of window column 0
  // Stream-position binning shared by every term's regional mine, built
  // once per run. Immutable, so all workers read it concurrently. Empty
  // without regional mining.
  const SpatialBinning binning;
  // The run's expected model, built once on the calling thread and read by
  // every worker. Null without regional mining.
  const std::unique_ptr<ExpectedFrequencyModel> model;
  std::vector<WorkerScratch> scratch;
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  std::optional<Status> error;

  MineShared(const FrequencyIndex& idx, const BatchMinerOptions& opts,
             SpatialBinning run_binning, size_t threads)
      : index(idx),
        options(opts),
        stcomb(opts.stcomb),
        timeline(static_cast<size_t>(idx.window_length())),
        origin(idx.window_start()),
        binning(std::move(run_binning)),
        model(opts.mine_regional ? opts.model_factory() : nullptr),
        scratch(threads) {}

  void MineTerm(size_t worker, TermId term, TermPatterns* slot) {
    STBURST_FAULT_POINT_THROW("batch_miner.mine_term");
    slot->term = term;
    slot->mined = false;
    slot->combinatorial.clear();
    slot->regional.clear();

    const std::vector<TermPosting>& postings = index.postings(term);
    if (postings.empty()) return;
    slot->mined = true;
    WorkerScratch& ws = scratch[worker];

    if (options.mine_combinatorial) {
      ExtractIntervalsFromPostings(postings, timeline, origin,
                                   options.stcomb.min_interval_burstiness, &ws);
      // MineFromIntervals consumes its pool by value; moving the scratch in
      // avoids a per-term copy (the next term clears and refills it anyway).
      slot->combinatorial = stcomb.MineFromIntervals(std::move(ws.intervals));
    }

    if (options.mine_regional) {
      if (ws.dense == nullptr) {
        ws.dense = std::make_unique<TermSeries>(index.num_streams(),
                                                index.window_length());
      }
      index.FillSeries(term, ws.dense.get());
      auto windows =
          MineRegionalPatterns(*ws.dense, binning, *model, options.stlocal);
      if (!windows.ok()) {
        std::unique_lock<std::mutex> lock(error_mu);
        if (!error.has_value()) error = windows.status();
        failed.store(true, std::memory_order_relaxed);
        // Keep the invariant that non-mined slots carry empty vectors even
        // on the error path.
        slot->mined = false;
        slot->combinatorial.clear();
        return;
      }
      slot->regional = std::move(*windows);
      // StLocal mines the window-relative series; report absolute times.
      for (SpatiotemporalWindow& w : slot->regional) {
        w.timeframe.start += origin;
        w.timeframe.end += origin;
      }
    }
  }
};

// Worker-id slots of one batch run: a borrowed pool contributes its workers
// plus the calling thread (ParallelFor gives the caller the highest id);
// otherwise the transient-pool path sizes scratch by the requested count.
size_t RunWorkerSlots(const BatchMinerOptions& options) {
  return options.pool != nullptr ? options.pool->num_threads() + 1
                                 : ResolveThreadCount(options.num_threads);
}

// Fans `body` over [0, n) — across the borrowed standing pool when the
// options carry one (no per-call thread spawn/join), else a transient pool.
void RunParallel(const BatchMinerOptions& options, size_t n,
                 const std::function<void(size_t, size_t)>& body) {
  if (options.pool != nullptr) {
    ParallelFor(options.pool, 0, n, body);
  } else {
    ParallelFor(ResolveThreadCount(options.num_threads), 0, n, body);
  }
}

// The run's binning of the stream positions; empty without regional
// mining.
StatusOr<SpatialBinning> RunBinning(const BatchMinerOptions& options) {
  if (!options.mine_regional) return SpatialBinning();
  return SpatialBinning::Create(options.positions,
                                options.stlocal.rbursty.rect);
}

// Fills the mined/skipped counters (mined + skipped == num_terms).
void RecountTerms(BatchMineResult* result) {
  size_t mined = 0;
  for (const TermPatterns& slot : result->terms) {
    if (slot.mined) ++mined;
  }
  result->terms_mined = mined;
  result->terms_skipped = result->terms.size() - mined;
}

}  // namespace

StatusOr<BatchMineResult> MineAllTerms(const FrequencyIndex& index,
                                       const BatchMinerOptions& options) {
  // A full sweep is a re-mine of every TermId: the sorted, unique id list
  // makes the staged slots exactly the TermId-indexed result.
  std::vector<TermId> all(index.num_terms());
  std::iota(all.begin(), all.end(), TermId{0});
  BatchMineResult result;
  STB_RETURN_NOT_OK(
      StageRemineTerms(index, all, options, &result.terms).status());
  result.threads_used = RunWorkerSlots(options);
  RecountTerms(&result);
  return result;
}

StatusOr<std::vector<TermId>> StageRemineTerms(
    const FrequencyIndex& index, const std::vector<TermId>& terms,
    const BatchMinerOptions& options, std::vector<TermPatterns>* staged,
    size_t* extracted_rows) {
  STB_RETURN_NOT_OK(ValidateRegional(index, options));

  // Dedupe so no two workers share a slot, and validate before mining so a
  // rejected call stages nothing.
  std::vector<TermId> todo = terms;
  std::sort(todo.begin(), todo.end());
  todo.erase(std::unique(todo.begin(), todo.end()), todo.end());
  for (TermId term : todo) {
    if (term >= index.num_terms()) {
      return Status::InvalidArgument("term id outside the index vocabulary");
    }
  }

  staged->clear();
  staged->resize(todo.size());
  if (extracted_rows != nullptr) *extracted_rows = 0;
  if (!todo.empty()) {
    STB_ASSIGN_OR_RETURN(SpatialBinning binning, RunBinning(options));
    MineShared shared(index, options, std::move(binning),
                      RunWorkerSlots(options));
    RunParallel(options, todo.size(), [&](size_t worker, size_t i) {
      if (shared.failed.load(std::memory_order_relaxed)) return;
      shared.MineTerm(worker, todo[i], &(*staged)[i]);
    });
    if (shared.error.has_value()) return *shared.error;
    if (extracted_rows != nullptr) {
      for (const WorkerScratch& ws : shared.scratch) {
        *extracted_rows += ws.extracted_rows;
      }
    }
  }
  return todo;
}

}  // namespace stburst
