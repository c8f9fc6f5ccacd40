// Live-feed mining with the long-running FeedRuntime: the service-shaped
// version of the streaming ingest -> incremental mine cycle
// (docs/ARCHITECTURE.md describes the runtime and its retention contract).
//
//  1. Ingest a 30-week historical corpus.
//  2. FeedRuntime::Create owns the stack: frequency index build, initial
//     whole-vocabulary sweep, persistent thread pool, and (new) a
//     maintained bursty-document search index over the standing patterns.
//  3. Go live for 18 weeks. Every Tick: parallel append splice, retention
//     eviction beyond the 36-week window, dirty-term re-mining, a
//     background refresh sweep that re-mines the stalest quiet terms
//     (mass x staleness, 16 terms/tick), and the one-swap publication of a
//     freshly built search-index snapshot (readers keep serving the old
//     one). After each tick the watched term is re-mined on the runtime's
//     windowed index with StageRemineTerms (combinatorial and regional),
//     the call the runtime makes, combinatorial only, for every dirty term.
//  4. Verify: the runtime's windowed index matches a from-scratch rebuild
//     of the evicted collection; the watched term's staged slot matches
//     batch STComb (scores within 1e-9) and MineRegionalPatterns (scores
//     bit-equal) over the retained window; and the maintained search index
//     matches a full BurstySearchEngine rebuild from the standing patterns.
//
// A burst of the watched term "storm" is injected into the clustered
// streams during live weeks 36-40, so the weekly log shows the pattern
// appear as the data arrives — and survive the window sliding past its
// start.
//
// Run: ./build/examples/live_feed
//
// When built with -DSTBURST_FAULT_INJECTION=ON and run with
// STBURST_LIVE_FEED_FAULT=1, every live week first replays its snapshot
// against an armed fault site (cycling through the registry, alternating
// Status and bad_alloc failures): the doomed tick must fail, roll back to
// bit-identical visible state, and the following clean tick must ingest the
// same snapshot — so the end-of-run parity checks double as the recovery
// proof. This is the CI fault-recovery smoke.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#ifdef STBURST_FAULT_INJECTION
#include "stburst/common/fault_injection.h"
#endif

#include "stburst/common/random.h"
#include "stburst/core/batch_miner.h"
#include "stburst/core/expected.h"
#include "stburst/core/stcomb.h"
#include "stburst/core/stlocal.h"
#include "stburst/index/search_engine.h"
#include "stburst/stream/feed_runtime.h"

using namespace stburst;

namespace {

constexpr Timestamp kHistoryWeeks = 30;
constexpr Timestamp kLiveWeeks = 18;
constexpr Timestamp kRetentionWeeks = 36;
constexpr size_t kBackgroundVocab = 400;

// A background document: 3-8 Zipf-ish tokens.
std::vector<TermId> BackgroundTokens(Rng& rng) {
  std::vector<TermId> tokens;
  size_t len = 3 + rng.NextUint64(6);
  for (size_t i = 0; i < len; ++i) {
    TermId tok = static_cast<TermId>(rng.NextUint64(kBackgroundVocab));
    if (rng.Bernoulli(0.5)) {
      tok = static_cast<TermId>(tok % (kBackgroundVocab / 8 + 1));
    }
    tokens.push_back(tok);
  }
  return tokens;
}

}  // namespace

int main() {
  // Twelve streams: a cluster of four cities (0-3) plus eight scattered.
  auto collection = Collection::Create(kHistoryWeeks);
  if (!collection.ok()) return 1;
  Rng rng(2012);
  for (int s = 0; s < 12; ++s) {
    double x = s < 4 ? 1.0 + 0.5 * s : 10.0 + 3.0 * s;
    double y = s < 4 ? 1.0 + 0.4 * s : 2.0 * (s % 5);
    collection->AddStream("city" + std::to_string(s), {}, Point2D{x, y});
  }
  Vocabulary* vocab = collection->mutable_vocabulary();
  for (size_t t = 0; t < kBackgroundVocab; ++t) {
    vocab->Intern("bg" + std::to_string(t));
  }
  const TermId storm = vocab->Intern("storm");

  // --- 1. Historical ingest ----------------------------------------------
  for (Timestamp week = 0; week < kHistoryWeeks; ++week) {
    for (StreamId s = 0; s < collection->num_streams(); ++s) {
      size_t docs = 2 + rng.NextUint64(3);
      for (size_t d = 0; d < docs; ++d) {
        std::vector<TermId> tokens = BackgroundTokens(rng);
        if (rng.Bernoulli(0.05)) tokens.push_back(storm);  // quiet mentions
        if (!collection->AddDocument(s, week, std::move(tokens)).ok()) return 1;
      }
    }
  }

  // --- 2. Bring up the runtime -------------------------------------------
  FeedRuntimeOptions opts;
  opts.miner.stcomb.min_interval_burstiness = 0.1;
  opts.num_threads = 4;              // one standing pool for everything
  opts.retention_window = kRetentionWeeks;
  opts.refresh_budget = 16;          // stalest quiet terms re-mined per tick
  opts.search_serving = SearchServing::kCombinatorial;  // live search index
  auto runtime = FeedRuntime::Create(std::move(*collection), opts);
  if (!runtime.ok()) {
    std::fprintf(stderr, "FeedRuntime::Create: %s\n",
                 runtime.status().ToString().c_str());
    return 1;
  }
  std::printf("runtime up: %zu documents, %zu terms, %d weeks history; "
              "%zu terms mined, %zu skipped\n\n",
              runtime->collection().num_documents(),
              runtime->index().num_terms(),
              runtime->collection().timeline_length(),
              runtime->result().terms_mined, runtime->result().terms_skipped);

  // The watched term is staged on the runtime's index after every tick:
  // the runtime's STComb options plus regional mining, serial.
  const std::vector<Point2D> positions =
      runtime->collection().StreamPositions();
  const ExpectedModelFactory mean_model = [] {
    return std::make_unique<GlobalMeanModel>();
  };
  BatchMinerOptions watch_opts;
  watch_opts.stcomb = opts.miner.stcomb;
  watch_opts.mine_regional = true;
  watch_opts.positions = positions;
  watch_opts.model_factory = mean_model;
  watch_opts.num_threads = 1;
  std::vector<TermPatterns> watched;

  // --- 3. Go live ---------------------------------------------------------
#ifdef STBURST_FAULT_INJECTION
  const char* fault_env = std::getenv("STBURST_LIVE_FEED_FAULT");
  const bool fault_demo = fault_env != nullptr && std::string(fault_env) == "1";
  size_t faults_survived = 0;
  if (fault_demo) {
    std::printf("fault demo on: each week first ticks against an armed "
                "fault site\n");
  }
#endif
  std::printf("live feed (burst of \"storm\" in the cluster, weeks 36-40; "
              "window %d weeks):\n", kRetentionWeeks);
  std::printf("%6s %6s %7s %8s %9s %13s %8s %10s %22s\n", "week", "docs",
              "dirty", "rows", "refreshed", "scored tokens", "window",
              "tick(ms)", "watched pattern");
  for (Timestamp week = kHistoryWeeks; week < kHistoryWeeks + kLiveWeeks;
       ++week) {
    const bool bursting = week >= 36 && week <= 40;
    Snapshot snap;
    for (StreamId s = 0; s < runtime->collection().num_streams(); ++s) {
      size_t docs = 2 + rng.NextUint64(3);
      for (size_t d = 0; d < docs; ++d) {
        SnapshotDocument doc;
        doc.stream = s;
        doc.tokens = BackgroundTokens(rng);
        if (rng.Bernoulli(0.05)) doc.tokens.push_back(storm);
        snap.push_back(std::move(doc));
      }
      if (bursting && s < 4) {
        // The cluster reports the storm heavily.
        SnapshotDocument doc;
        doc.stream = s;
        doc.tokens = {storm, storm, storm, storm};
        snap.push_back(std::move(doc));
      }
    }

#ifdef STBURST_FAULT_INJECTION
    if (fault_demo) {
      // Sites that fire on every ingesting tick; the eviction sites join
      // once the window starts sliding (timeline after this tick > window).
      std::vector<std::string> eligible = {
          "collection.append",     "frequency.append_splice",
          "batch_miner.mine_term", "runtime.remine",
          "runtime.search_update", "index.successor",
          "runtime.publish"};
      if (week + 1 > kRetentionWeeks) {
        eligible.insert(eligible.end(), {"collection.evict", "frequency.evict"});
      }
      const std::string& site =
          eligible[static_cast<size_t>(week) % eligible.size()];
      const size_t docs_before = runtime->collection().num_documents();
      const Timestamp weeks_before = runtime->collection().timeline_length();
      const uint64_t gen_before = runtime->Search("storm", 1).generation;
      fault::Arm(site, 1,
                 week % 2 == 0 ? fault::FailureKind::kStatus
                               : fault::FailureKind::kBadAlloc);
      auto doomed = runtime->Tick(Snapshot(snap));  // copy: retry it clean
      const size_t hits = fault::HitCount(site);
      fault::DisarmAll();
      if (doomed.ok() || hits == 0) {
        std::fprintf(stderr, "fault demo: site %s did not fail week %d\n",
                     site.c_str(), week);
        return 1;
      }
      if (runtime->collection().num_documents() != docs_before ||
          runtime->collection().timeline_length() != weeks_before ||
          runtime->Search("storm", 1).generation != gen_before) {
        std::fprintf(stderr,
                     "fault demo: rollback left visible state, week %d "
                     "(site %s)\n",
                     week, site.c_str());
        return 1;
      }
      ++faults_survived;
    }
#endif
    auto stats = runtime->Tick(std::move(snap));
    if (!stats.ok()) {
      std::fprintf(stderr, "Tick: %s\n", stats.status().ToString().c_str());
      return 1;
    }
    // Re-mine the watched term over the window the tick just left.
    if (!StageRemineTerms(runtime->index(), {storm}, watch_opts, &watched)
             .ok()) {
      return 1;
    }

    const auto& patterns = watched[0].combinatorial;
    std::string state = "-";
    if (!patterns.empty()) {
      state = "score " + std::to_string(patterns[0].score).substr(0, 5) +
              ", " + std::to_string(patterns[0].streams.size()) + " streams" +
              (bursting ? "  <- burst" : "");
    }
    std::printf("%6d %6zu %7zu %8zu %9zu %13zu %8d %10.1f %22s\n",
                stats->time, stats->documents, stats->dirty_terms,
                stats->extracted_rows, stats->refreshed_terms,
                stats->search_tokens_scanned, runtime->window_start(),
                stats->seconds * 1e3, state.c_str());
  }

  // --- 4. Verify ----------------------------------------------------------
  FrequencyIndex rebuilt = FrequencyIndex::Build(runtime->collection(), 4);
  const FrequencyIndex& live_index = runtime->index();
  bool identical = rebuilt.num_terms() == live_index.num_terms() &&
                   rebuilt.timeline_length() == live_index.timeline_length() &&
                   rebuilt.window_start() == live_index.window_start();
  for (TermId t = 0; identical && t < live_index.num_terms(); ++t) {
    const auto& a = live_index.postings(t);
    const auto& b = rebuilt.postings(t);
    identical = a.size() == b.size();
    for (size_t i = 0; identical && i < a.size(); ++i) {
      identical = a[i].stream == b[i].stream && a[i].time == b[i].time &&
                  a[i].count == b[i].count;
    }
  }
  std::printf("\nwindowed live index vs rebuild of evicted collection: %s\n",
              identical ? "bit-identical" : "MISMATCH");

  // The watched slot vs batch STComb and MineRegionalPatterns over the
  // windowed dense series (batch timeframes are window-relative; shift to
  // absolute).
  const TermSeries window_series = live_index.DenseSeries(storm);
  const Timestamp origin = live_index.window_start();
  StComb batch(opts.miner.stcomb);
  auto batch_patterns = batch.MinePatterns(window_series);
  const auto& watched_patterns = watched[0].combinatorial;
  bool same = batch_patterns.size() == watched_patterns.size();
  for (size_t i = 0; same && i < batch_patterns.size(); ++i) {
    same = batch_patterns[i].streams == watched_patterns[i].streams &&
           batch_patterns[i].timeframe.start + origin ==
               watched_patterns[i].timeframe.start &&
           batch_patterns[i].timeframe.end + origin ==
               watched_patterns[i].timeframe.end &&
           std::fabs(batch_patterns[i].score - watched_patterns[i].score) <=
               1e-9;
  }
  std::printf("watched slot vs batch STComb over the window: %s\n",
              same ? "identical patterns" : "MISMATCH");

  auto batch_regional =
      MineRegionalPatterns(window_series, positions, mean_model);
  const auto& watched_windows = watched[0].regional;
  bool regional_same =
      batch_regional.ok() && batch_regional->size() == watched_windows.size();
  for (size_t i = 0; regional_same && i < watched_windows.size(); ++i) {
    regional_same =
        (*batch_regional)[i].streams == watched_windows[i].streams &&
        (*batch_regional)[i].timeframe.start + origin ==
            watched_windows[i].timeframe.start &&
        (*batch_regional)[i].timeframe.end + origin ==
            watched_windows[i].timeframe.end &&
        (*batch_regional)[i].score == watched_windows[i].score;
  }
  std::printf("watched slot vs batch STLocal over the window: %s\n",
              regional_same ? "identical windows" : "MISMATCH");

  // The maintained search index vs a full engine rebuild from the standing
  // patterns — and a live query for the watched term.
  PatternIndex standing;
  for (TermId t = 0; t < runtime->result().terms.size(); ++t) {
    for (const auto& p : runtime->result().terms[t].combinatorial) {
      standing.AddCombinatorial(t, p);
    }
  }
  auto engine = BurstySearchEngine::Build(runtime->collection(), standing);
  const std::shared_ptr<const IndexSnapshot> live_search =
      runtime->search_snapshot();
  bool search_same =
      live_search != nullptr &&
      live_search->index.total_postings() == engine.index().total_postings();
  for (TermId t = 0; search_same && t < live_search->index.num_terms(); ++t) {
    const auto& a = live_search->index.postings(t);
    const auto& b = engine.index().postings(t);
    search_same = a.size() == b.size();
    for (size_t i = 0; search_same && i < a.size(); ++i) {
      search_same = a[i].doc == b[i].doc && a[i].score == b[i].score;
    }
  }
  std::printf("maintained search index vs full engine rebuild: %s\n",
              search_same ? "bit-identical" : "MISMATCH");
  auto top = runtime->Search("storm", 3);
  std::printf("top \"storm\" docs (generation %llu):",
              static_cast<unsigned long long>(top.generation));
  for (const ScoredDoc& d : top.docs) {
    const Document& doc = runtime->collection().document(d.doc);
    std::printf("  doc %u (stream %u, week %d, score %.2f)", d.doc, doc.stream,
                doc.time, d.score);
  }
  std::printf("\n");

  // The standing result keeps absolute timestamps: the storm slot should
  // still report the burst even after the window slid past its start.
  const TermPatterns& slot = runtime->patterns(storm);
  if (slot.mined && !slot.combinatorial.empty()) {
    std::printf("standing slot for \"storm\": timeframe [%d, %d], "
                "%zu streams, staleness %d ticks\n",
                slot.combinatorial[0].timeframe.start,
                slot.combinatorial[0].timeframe.end,
                slot.combinatorial[0].streams.size(),
                runtime->staleness(storm));
  }
#ifdef STBURST_FAULT_INJECTION
  if (fault_demo) {
    std::printf("fault demo: %zu armed ticks failed, rolled back, and the "
                "retried snapshots kept every parity check above\n",
                faults_survived);
    if (faults_survived != static_cast<size_t>(kLiveWeeks)) return 1;
  }
#endif
  return (identical && same && regional_same && search_same) ? 0 : 1;
}
