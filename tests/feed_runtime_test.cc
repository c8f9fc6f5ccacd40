// Tests for stream/feed_runtime: the long-running live-feed runtime — tick
// determinism across thread counts, the bounded-memory plateau under a
// retention window, retention edge cases (burst at the window boundary,
// re-appending an evicted term), the quiet-term refresh policy, and the
// per-phase tick API.

#include "stburst/stream/feed_runtime.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "runtime_test_util.h"
#include "stburst/common/random.h"
#include "stburst/common/string_util.h"
#include "stburst/index/search_engine.h"

namespace stburst {
namespace {

// The full-rebuild reference for search serving: a from-scratch
// BurstySearchEngine over the retained collection and the *standing*
// patterns (search serving is consistent with result(), staleness and all,
// not with a hypothetical fresh mine).
InvertedIndex RebuildReferenceSearchIndex(const FeedRuntime& runtime) {
  PatternIndex patterns;
  for (TermId t = 0; t < runtime.result().terms.size(); ++t) {
    for (const auto& p : runtime.result().terms[t].combinatorial) {
      patterns.AddCombinatorial(t, p);
    }
  }
  auto engine = BurstySearchEngine::Build(runtime.collection(), patterns);
  // Copy out the index (the engine owns it); postings/maps copy cleanly.
  return engine.index();
}

Collection MakeSeedCollection(size_t num_streams, Timestamp timeline,
                              size_t vocab) {
  auto c = Collection::Create(timeline);
  EXPECT_TRUE(c.ok());
  for (size_t s = 0; s < num_streams; ++s) {
    c->AddStream(StringPrintf("s%zu", s), {},
                 Point2D{static_cast<double>(s % 4), static_cast<double>(s / 4)});
  }
  Vocabulary* v = c->mutable_vocabulary();
  for (size_t t = 0; t < vocab; ++t) v->Intern("term" + std::to_string(t));
  return std::move(*c);
}

// One deterministic feed tick: a handful of Zipf-ish documents per stream.
Snapshot MakeSnapshot(Rng& rng, size_t num_streams, size_t vocab) {
  Snapshot snap;
  for (StreamId s = 0; s < num_streams; ++s) {
    size_t docs = 1 + rng.NextUint64(3);
    for (size_t d = 0; d < docs; ++d) {
      SnapshotDocument doc;
      doc.stream = s;
      size_t len = 2 + rng.NextUint64(4);
      for (size_t i = 0; i < len; ++i) {
        TermId tok = static_cast<TermId>(rng.NextUint64(vocab));
        if (rng.Bernoulli(0.5)) tok = static_cast<TermId>(tok % (vocab / 4 + 1));
        doc.tokens.push_back(tok);
      }
      snap.push_back(std::move(doc));
    }
  }
  return snap;
}

FeedRuntimeOptions BaseOptions(size_t threads) {
  FeedRuntimeOptions opts;
  opts.miner.stcomb.min_interval_burstiness = 0.05;
  opts.num_threads = threads;
  return opts;
}

TEST(FeedRuntime, TickOutputBitIdenticalAt1248Threads) {
  constexpr size_t kStreams = 8;
  constexpr size_t kVocab = 120;
  constexpr int kTicks = 40;

  std::unique_ptr<FeedRuntime> reference;
  std::vector<size_t> reference_scanned;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    FeedRuntimeOptions opts = BaseOptions(threads);
    opts.retention_window = 16;
    opts.refresh_budget = 6;
    opts.search_serving = SearchServing::kCombinatorial;

    auto runtime = FeedRuntime::Create(
        MakeSeedCollection(kStreams, 4, kVocab), std::move(opts));
    ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();

    Rng rng(777);  // same seed per thread count -> same snapshot sequence
    std::vector<size_t> scanned;
    for (int tick = 0; tick < kTicks; ++tick) {
      auto stats = runtime->Tick(MakeSnapshot(rng, kStreams, kVocab));
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      scanned.push_back(stats->search_tokens_scanned);
    }
    if (reference == nullptr) {
      ASSERT_GT(*std::max_element(scanned.begin(), scanned.end()), 0u);
      reference = std::make_unique<FeedRuntime>(std::move(*runtime));
      reference_scanned = std::move(scanned);
    } else {
      ExpectIdenticalPostings(reference->index(), runtime->index());
      ExpectIdenticalResults(reference->result(), runtime->result());
      // The maintained search index is part of the bit-identical surface,
      // and so is the re-score's work counter.
      const std::shared_ptr<const IndexSnapshot> live =
          runtime->search_snapshot();
      ASSERT_NE(live, nullptr);
      ExpectIdenticalIndexes(reference->search_snapshot()->index,
                             live->index);
      EXPECT_EQ(reference_scanned, scanned) << threads << " threads";
    }
  }
}

TEST(FeedRuntime, WindowedMemoryPlateausWhileUnwindowedGrows) {
  constexpr size_t kStreams = 6;
  constexpr size_t kVocab = 100;
  constexpr Timestamp kWindow = 50;
  constexpr int kTicks = 200;

  FeedRuntimeOptions windowed = BaseOptions(2);
  windowed.retention_window = kWindow;
  auto bounded = FeedRuntime::Create(MakeSeedCollection(kStreams, 1, kVocab),
                                     std::move(windowed));
  ASSERT_TRUE(bounded.ok());

  auto unbounded = FeedRuntime::Create(MakeSeedCollection(kStreams, 1, kVocab),
                                       BaseOptions(2));
  ASSERT_TRUE(unbounded.ok());

  Rng rng_a(99), rng_b(99);  // identical feeds
  size_t bounded_at_window = 0, bounded_peak_after = 0;
  size_t unbounded_at_window = 0;
  for (int tick = 0; tick < kTicks; ++tick) {
    ASSERT_TRUE(bounded->Tick(MakeSnapshot(rng_a, kStreams, kVocab)).ok());
    ASSERT_TRUE(unbounded->Tick(MakeSnapshot(rng_b, kStreams, kVocab)).ok());
    const size_t mem = bounded->index().PostingsMemoryBytes();
    if (tick + 1 == kWindow) {
      bounded_at_window = mem;
      unbounded_at_window = unbounded->index().PostingsMemoryBytes();
    } else if (tick + 1 > kWindow) {
      bounded_peak_after = std::max(bounded_peak_after, mem);
    }
  }

  // The windowed run plateaus: its peak after the window fills stays within
  // 1.5x of the steady state at snapshot W.
  ASSERT_GT(bounded_at_window, 0u);
  EXPECT_LE(static_cast<double>(bounded_peak_after),
            1.5 * static_cast<double>(bounded_at_window))
      << "peak " << bounded_peak_after << " vs steady " << bounded_at_window;

  // The unwindowed run keeps growing roughly linearly: 200 snapshots hold
  // far more than 1.5x the postings of 50.
  const size_t unbounded_final = unbounded->index().PostingsMemoryBytes();
  EXPECT_GE(static_cast<double>(unbounded_final),
            2.5 * static_cast<double>(unbounded_at_window))
      << "final " << unbounded_final << " vs @window " << unbounded_at_window;

  // And the window actually slid: only the last W timestamps are retained.
  EXPECT_EQ(bounded->window_start(), bounded->collection().timeline_length() -
                                         kWindow);
  EXPECT_EQ(bounded->index().window_length(), kWindow);
}

// A burst whose first timestamp sits exactly on the eviction cutoff must
// survive eviction whole: the boundary is inclusive on the retained side.
TEST(FeedRuntime, WindowBoundaryExactlyAtBurstStart) {
  constexpr size_t kStreams = 3;
  constexpr size_t kVocab = 8;
  constexpr Timestamp kWindow = 6;
  const TermId burst_term = 1;

  FeedRuntimeOptions opts = BaseOptions(1);
  opts.retention_window = kWindow;
  auto runtime =
      FeedRuntime::Create(MakeSeedCollection(kStreams, 1, kVocab), opts);
  ASSERT_TRUE(runtime.ok());

  // Quiet filler first, then a 3-tick burst timed so that after the last
  // tick the window start lands exactly on the burst's first timestamp.
  auto quiet_tick = [&] {
    Snapshot snap;
    for (StreamId s = 0; s < kStreams; ++s) {
      snap.push_back(SnapshotDocument{s, {TermId{0}}, kNoEvent});
    }
    return snap;
  };
  auto burst_tick = [&] {
    Snapshot snap = quiet_tick();
    for (StreamId s = 0; s < kStreams; ++s) {
      snap.push_back(
          SnapshotDocument{s, {burst_term, burst_term, burst_term}, kNoEvent});
    }
    return snap;
  };

  // Timeline after Create: [0, 1). Ticks: 4 quiet (t=1..4), burst at
  // t=5,6,7, quiet at t=8,9,10. Window 6 over timeline 11 -> start at 5.
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(runtime->Tick(quiet_tick()).ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(runtime->Tick(burst_tick()).ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(runtime->Tick(quiet_tick()).ok());

  ASSERT_EQ(runtime->window_start(), 5);
  const TermPatterns& slot = runtime->patterns(burst_term);
  ASSERT_TRUE(slot.mined);
  ASSERT_FALSE(slot.combinatorial.empty());
  // The burst [5, 7] starts exactly at the window boundary and must be
  // reported whole, in absolute timestamps.
  EXPECT_EQ(slot.combinatorial[0].timeframe, (Interval{5, 7}));
  EXPECT_EQ(slot.combinatorial[0].streams.size(), kStreams);
}

// A term whose postings are entirely evicted must come back cleanly when it
// reappears in a later snapshot: empty slot in between, fresh patterns after.
TEST(FeedRuntime, EvictedTermReappearsViaAppend) {
  constexpr size_t kStreams = 2;
  constexpr size_t kVocab = 6;
  const TermId comet = 2;

  FeedRuntimeOptions opts = BaseOptions(1);
  opts.retention_window = 4;
  auto runtime =
      FeedRuntime::Create(MakeSeedCollection(kStreams, 1, kVocab), opts);
  ASSERT_TRUE(runtime.ok());

  auto tick_with = [&](std::vector<TermId> tokens) {
    Snapshot snap;
    for (StreamId s = 0; s < kStreams; ++s) {
      snap.push_back(SnapshotDocument{s, {TermId{0}}, kNoEvent});
      if (!tokens.empty()) snap.push_back(SnapshotDocument{s, tokens, kNoEvent});
    }
    return runtime->Tick(std::move(snap));
  };

  // The term appears once, then goes quiet until its postings leave the
  // window entirely.
  ASSERT_TRUE(tick_with({comet, comet, comet}).ok());
  EXPECT_FALSE(runtime->index().postings(comet).empty());
  EXPECT_TRUE(runtime->patterns(comet).mined);

  for (int i = 0; i < 6; ++i) ASSERT_TRUE(tick_with({}).ok());
  EXPECT_TRUE(runtime->index().postings(comet).empty());
  // Eviction dirtied the term; the re-mine emptied its standing slot.
  EXPECT_FALSE(runtime->patterns(comet).mined);
  EXPECT_TRUE(runtime->patterns(comet).combinatorial.empty());

  // Reappearing is a plain append into the now-empty bucket.
  auto stats = tick_with({comet, comet, comet, comet});
  ASSERT_TRUE(stats.ok());
  const auto& postings = runtime->index().postings(comet);
  ASSERT_FALSE(postings.empty());
  for (const TermPosting& p : postings) {
    EXPECT_GE(p.time, runtime->window_start());
  }
  EXPECT_TRUE(runtime->patterns(comet).mined);
  ASSERT_FALSE(runtime->patterns(comet).combinatorial.empty());
  // The fresh burst is at the (absolute) final timestamp.
  EXPECT_EQ(runtime->patterns(comet).combinatorial[0].timeframe.start,
            runtime->collection().timeline_length() - 1);
}

// The runtime's incrementally maintained index must equal a from-scratch
// build over the evicted collection — retention does not break the
// append/rebuild equivalence invariant.
TEST(FeedRuntime, WindowedIndexMatchesRebuildFromEvictedCollection) {
  constexpr size_t kStreams = 5;
  constexpr size_t kVocab = 60;

  FeedRuntimeOptions opts = BaseOptions(3);
  opts.retention_window = 12;
  auto runtime =
      FeedRuntime::Create(MakeSeedCollection(kStreams, 3, kVocab), opts);
  ASSERT_TRUE(runtime.ok());

  Rng rng(4242);
  for (int tick = 0; tick < 30; ++tick) {
    ASSERT_TRUE(runtime->Tick(MakeSnapshot(rng, kStreams, kVocab)).ok());
  }

  FrequencyIndex rebuilt = FrequencyIndex::Build(runtime->collection(), 4);
  ExpectIdenticalPostings(runtime->index(), rebuilt);
}

TEST(FeedRuntime, SearchServingMatchesFullRebuildEveryTick) {
  // The tentpole acceptance: through appends, evictions, dirty re-mines,
  // and refresh sweeps, the incrementally maintained search index must stay
  // posting-identical to a from-scratch engine build over the retained
  // collection and standing patterns — and each editing tick must bump the
  // generation exactly once.
  constexpr size_t kStreams = 5;
  constexpr size_t kVocab = 50;

  FeedRuntimeOptions opts = BaseOptions(2);
  opts.retention_window = 10;
  opts.refresh_budget = 4;
  opts.search_serving = SearchServing::kCombinatorial;
  auto runtime =
      FeedRuntime::Create(MakeSeedCollection(kStreams, 3, kVocab), opts);
  ASSERT_TRUE(runtime.ok());
  ASSERT_NE(runtime->search_snapshot(), nullptr);
  EXPECT_EQ(runtime->search_snapshot()->generation, 1u);

  Rng rng(31337);
  uint64_t last_generation = runtime->search_snapshot()->generation;
  for (int tick = 0; tick < 25; ++tick) {
    auto stats = runtime->Tick(MakeSnapshot(rng, kStreams, kVocab));
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    const std::shared_ptr<const IndexSnapshot> published =
        runtime->search_snapshot();
    EXPECT_EQ(published->generation, last_generation + 1) << "tick " << tick;
    last_generation = published->generation;

    InvertedIndex reference = RebuildReferenceSearchIndex(*runtime);
    ExpectIdenticalIndexes(published->index, reference);

    // Queries agree too, and carry the generation of the snapshot that
    // answered.
    const std::vector<TermId> query = {TermId{0}, TermId{1}, TermId{2}};
    TopKResult live = runtime->Search(query, 5);
    TopKResult rebuilt = ThresholdTopK(reference, query, 5);
    ASSERT_EQ(live.docs.size(), rebuilt.docs.size());
    for (size_t i = 0; i < live.docs.size(); ++i) {
      EXPECT_EQ(live.docs[i], rebuilt.docs[i]);
    }
    EXPECT_EQ(live.generation, last_generation);
  }
  // The run exercised eviction (window 10, 25 ticks over a 3-deep seed).
  EXPECT_GT(runtime->window_start(), 0);
}

// A history filed stream-major (each stream's whole timeline in turn, so
// out of time order) is time-ordered once at Create. From then on the
// runtime must be indistinguishable from one created from the same history
// filed in that order — through evicting ticks too — and its search
// snapshot must match a from-scratch engine build after every tick.
TEST(FeedRuntime, StreamMajorHistoryMatchesPresortedHistory) {
  constexpr size_t kStreams = 5;
  constexpr size_t kVocab = 50;
  constexpr Timestamp kHistory = 8;

  Rng history_rng(2024);
  std::vector<Snapshot> history;
  for (Timestamp t = 0; t < kHistory; ++t) {
    history.push_back(MakeSnapshot(history_rng, kStreams, kVocab));
  }
  // Files `history` stream-major, or time-major with each timestamp's
  // documents by stream — the order a stable sort by time gives the former.
  const auto make_history = [&](bool stream_major) {
    Collection c = MakeSeedCollection(kStreams, kHistory, kVocab);
    const auto file = [&](StreamId s, Timestamp t) {
      for (const SnapshotDocument& doc : history[static_cast<size_t>(t)]) {
        if (doc.stream == s) {
          EXPECT_TRUE(c.AddDocument(s, t, doc.tokens).ok());
        }
      }
    };
    if (stream_major) {
      for (StreamId s = 0; s < kStreams; ++s) {
        for (Timestamp t = 0; t < kHistory; ++t) file(s, t);
      }
    } else {
      for (Timestamp t = 0; t < kHistory; ++t) {
        for (StreamId s = 0; s < kStreams; ++s) file(s, t);
      }
    }
    return c;
  };

  for (size_t threads : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    FeedRuntimeOptions opts = BaseOptions(threads);
    opts.retention_window = 6;
    opts.refresh_budget = 4;
    opts.search_serving = SearchServing::kCombinatorial;
    auto subject = FeedRuntime::Create(make_history(true), opts);
    auto control = FeedRuntime::Create(make_history(false), opts);
    ASSERT_TRUE(subject.ok()) << subject.status().ToString();
    ASSERT_TRUE(control.ok()) << control.status().ToString();
    ASSERT_GT(subject->window_start(), 0);
    ExpectIdenticalRuntimes(*subject, *control);

    Rng rng(555);
    for (int tick = 0; tick < 12; ++tick) {
      SCOPED_TRACE("tick " + std::to_string(tick));
      Snapshot snapshot = MakeSnapshot(rng, kStreams, kVocab);
      auto subject_stats = subject->Tick(snapshot);
      auto control_stats = control->Tick(std::move(snapshot));
      ASSERT_TRUE(subject_stats.ok()) << subject_stats.status().ToString();
      ASSERT_TRUE(control_stats.ok()) << control_stats.status().ToString();
      ASSERT_TRUE(subject_stats->evicted);
      ExpectIdenticalRuntimes(*subject, *control);
      ExpectIdenticalIndexes(subject->search_snapshot()->index,
                             RebuildReferenceSearchIndex(*subject));
    }
  }
}

TEST(FeedRuntime, SearchGenerationStaysPutOnEditFreeTicks) {
  // A tick with no eviction, no dirty terms, and no refresh targets leaves
  // the search index bit-identical, so it publishes nothing and the
  // generation must not move.
  FeedRuntimeOptions opts = BaseOptions(1);
  opts.search_serving = SearchServing::kCombinatorial;
  Collection seed = MakeSeedCollection(2, 2, 6);
  for (Timestamp t = 0; t < 2; ++t) {
    for (StreamId s = 0; s < 2; ++s) {
      ASSERT_TRUE(seed.AddDocument(s, t, {TermId{0}, TermId{1}}).ok());
    }
  }
  auto runtime = FeedRuntime::Create(std::move(seed), opts);
  ASSERT_TRUE(runtime.ok());
  const uint64_t created = runtime->search_snapshot()->generation;

  auto idle = runtime->Tick(Snapshot{});  // no docs, no window: no edits
  ASSERT_TRUE(idle.ok());
  EXPECT_EQ(idle->search_terms, 0u);
  EXPECT_EQ(runtime->search_snapshot()->generation, created);

  Snapshot snap;
  snap.push_back(SnapshotDocument{0, {TermId{0}}});
  auto editing = runtime->Tick(std::move(snap));  // dirty term: one bump
  ASSERT_TRUE(editing.ok());
  EXPECT_EQ(runtime->search_snapshot()->generation, created + 1);
}

TEST(FeedRuntime, SearchDisabledByDefault) {
  auto runtime = FeedRuntime::Create(MakeSeedCollection(2, 2, 6),
                                     BaseOptions(1));
  ASSERT_TRUE(runtime.ok());
  EXPECT_EQ(runtime->search_snapshot(), nullptr);
}

TEST(FeedRuntime, RefreshSweepDrainsStaleness) {
  constexpr size_t kStreams = 4;
  constexpr size_t kVocab = 30;

  // A corpus where every term occurs in history with equal mass, then total
  // silence: no term is ever dirty again, so only the sweep mines. Equal
  // masses make the sweep a pure staleness rotation (ties to TermId).
  Collection seed = MakeSeedCollection(kStreams, 6, kVocab);
  for (Timestamp t = 0; t < 6; ++t) {
    for (StreamId s = 0; s < kStreams; ++s) {
      for (TermId term = 0; term < kVocab; ++term) {
        ASSERT_TRUE(seed.AddDocument(s, t, {term}).ok());
      }
    }
  }

  FeedRuntimeOptions opts = BaseOptions(2);
  opts.refresh_budget = 5;
  auto runtime = FeedRuntime::Create(std::move(seed), opts);
  ASSERT_TRUE(runtime.ok());

  // Ten empty ticks: no term is ever dirty, so only the sweep mines.
  size_t refreshed_total = 0;
  for (int tick = 0; tick < 10; ++tick) {
    auto stats = runtime->Tick(Snapshot{});
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->dirty_terms, 0u);
    EXPECT_LE(stats->refreshed_terms, 5u);
    refreshed_total += stats->refreshed_terms;
  }
  EXPECT_EQ(refreshed_total, 50u);  // budget fully used every tick

  // With 30 equal-mass terms and budget 5 the rotation cycles every 6
  // ticks, so after 10 ticks no term is staler than the cycle length — far
  // below the 10 ticks an unswept term would show.
  Timestamp max_stale = 0;
  for (TermId t = 0; t < kVocab; ++t) {
    max_stale = std::max(max_stale, runtime->staleness(t));
  }
  EXPECT_LE(max_stale, 6);
  EXPECT_GT(max_stale, 0);  // the rotation is budgeted, not instantaneous
}

TEST(FeedRuntime, RefreshSweepDrainsToZeroInSteadyState) {
  constexpr size_t kStreams = 4;
  constexpr size_t kVocab = 40;
  constexpr Timestamp kWindow = 8;

  FeedRuntimeOptions opts = BaseOptions(1);
  opts.retention_window = kWindow;
  opts.refresh_budget = 5;
  auto runtime =
      FeedRuntime::Create(MakeSeedCollection(kStreams, 1, kVocab), opts);
  ASSERT_TRUE(runtime.ok());

  Rng rng(808);
  std::vector<size_t> refreshed_per_tick;
  for (int tick = 0; tick < 30; ++tick) {
    auto stats = runtime->Tick(MakeSnapshot(rng, kStreams, kVocab));
    ASSERT_TRUE(stats.ok());
    refreshed_per_tick.push_back(stats->refreshed_terms);
  }
  // While the window grows, quiet terms' 1/N baseline drifts and the sweep
  // works; once every tick is a length-preserving slide, terms re-stamped
  // at the full window length no longer qualify (their slots equal a
  // re-mine in exact arithmetic; the floating-point drift is skipped by
  // policy), so after a short drain (each fill-era slot refreshed once) the
  // sweep must go idle instead of re-mining near-no-ops forever.
  size_t total = 0, tail = 0;
  for (size_t i = 0; i < refreshed_per_tick.size(); ++i) {
    total += refreshed_per_tick[i];
    if (i >= 20) tail += refreshed_per_tick[i];
  }
  EXPECT_GT(total, 0u);
  EXPECT_EQ(tail, 0u) << "sweep still re-mining in steady state";
}

TEST(FeedRuntime, RefreshPrefersMassTimesStaleness) {
  constexpr size_t kStreams = 2;
  // Two terms, same staleness; the heavier one must be refreshed first.
  Collection seed = MakeSeedCollection(kStreams, 3, 4);
  const TermId heavy = 0, light = 1;
  for (Timestamp t = 0; t < 3; ++t) {
    for (StreamId s = 0; s < kStreams; ++s) {
      ASSERT_TRUE(seed.AddDocument(s, t, {heavy, heavy, heavy, heavy}).ok());
      ASSERT_TRUE(seed.AddDocument(s, t, {light}).ok());
    }
  }

  FeedRuntimeOptions opts = BaseOptions(1);
  opts.refresh_budget = 1;
  auto runtime = FeedRuntime::Create(std::move(seed), opts);
  ASSERT_TRUE(runtime.ok());

  ASSERT_TRUE(runtime->Tick(Snapshot{}).ok());
  // Both were stale by 1; the budget-1 sweep picked the heavier term.
  EXPECT_EQ(runtime->staleness(heavy), 0);
  EXPECT_EQ(runtime->staleness(light), 1);

  ASSERT_TRUE(runtime->Tick(Snapshot{}).ok());
  // heavy carries 4x the mass, so heavy at staleness 1 (priority 24) still
  // outranks light at staleness 2 (priority 12): mass x staleness, not LRU.
  EXPECT_EQ(runtime->staleness(heavy), 0);
  EXPECT_EQ(runtime->staleness(light), 2);
}

TEST(FeedRuntime, SerialRuntimeMinesOnTheCallingThread) {
  // Every mine runs on the standing pool, or inline when serial: a serial
  // runtime must not fall back to a transient hardware-sized pool, and a
  // pooled one mines on its pool plus the calling thread.
  for (size_t threads : {1u, 3u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    Collection seed = MakeSeedCollection(4, 4, 40);
    Rng rng(17);
    for (Timestamp t = 0; t < 4; ++t) {
      for (const SnapshotDocument& doc : MakeSnapshot(rng, 4, 40)) {
        ASSERT_TRUE(seed.AddDocument(doc.stream, t, doc.tokens).ok());
      }
    }
    auto runtime = FeedRuntime::Create(std::move(seed), BaseOptions(threads));
    ASSERT_TRUE(runtime.ok());
    ASSERT_GT(runtime->result().terms_mined, 0u);
    EXPECT_EQ(runtime->result().threads_used, threads);
  }
}

TEST(FeedRuntime, CreateRejectsNegativeWindow) {
  FeedRuntimeOptions opts = BaseOptions(1);
  opts.retention_window = -3;
  auto runtime =
      FeedRuntime::Create(MakeSeedCollection(2, 2, 4), std::move(opts));
  EXPECT_TRUE(runtime.status().IsInvalidArgument());
}

TEST(FeedRuntimeValidation, RejectTickIsAtomic) {
  // The strict default: one malformed document fails the whole tick with
  // InvalidArgument and nothing — timeline included — moves.
  auto runtime = FeedRuntime::Create(MakeSeedCollection(2, 2, 6),
                                     BaseOptions(1));
  ASSERT_TRUE(runtime.ok());
  const Timestamp before = runtime->collection().timeline_length();

  Snapshot bad_stream;
  bad_stream.push_back(SnapshotDocument{0, {TermId{1}}});
  bad_stream.push_back(SnapshotDocument{77, {TermId{1}}});
  EXPECT_TRUE(runtime->Tick(std::move(bad_stream)).status().IsInvalidArgument());

  Snapshot bad_token;
  bad_token.push_back(SnapshotDocument{0, {TermId{6}}});  // vocab is [0, 6)
  EXPECT_TRUE(runtime->Tick(std::move(bad_token)).status().IsInvalidArgument());

  Snapshot bad_sentinel;
  bad_sentinel.push_back(SnapshotDocument{0, {kInvalidTerm}});
  EXPECT_TRUE(
      runtime->Tick(std::move(bad_sentinel)).status().IsInvalidArgument());

  EXPECT_EQ(runtime->collection().timeline_length(), before);
  EXPECT_EQ(runtime->collection().num_documents(), 0u);

  // The rejected ticks left no residue: a clean tick proceeds normally.
  Snapshot good;
  good.push_back(SnapshotDocument{0, {TermId{1}}});
  auto stats = runtime->Tick(std::move(good));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->documents, 1u);
  EXPECT_EQ(runtime->collection().timeline_length(), before + 1);
}

TEST(FeedRuntimeValidation, DropDocumentQuarantinesAndIngestsTheRest) {
  FeedRuntimeOptions opts = BaseOptions(1);
  opts.on_invalid = InvalidDocPolicy::kDropDocument;
  auto quarantining = FeedRuntime::Create(MakeSeedCollection(2, 2, 6), opts);
  ASSERT_TRUE(quarantining.ok());
  auto control = FeedRuntime::Create(MakeSeedCollection(2, 2, 6),
                                     BaseOptions(1));
  ASSERT_TRUE(control.ok());

  Snapshot dirty;
  dirty.push_back(SnapshotDocument{0, {TermId{1}, TermId{2}}});
  dirty.push_back(SnapshotDocument{77, {TermId{1}}});       // unknown stream
  dirty.push_back(SnapshotDocument{1, {TermId{6}}});        // out of vocab
  dirty.push_back(SnapshotDocument{1, {TermId{3}}});
  auto stats = quarantining->Tick(std::move(dirty));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rejected_documents, 2u);
  EXPECT_EQ(stats->documents, 2u);

  // The surviving documents ingest exactly as a clean snapshot would.
  Snapshot clean;
  clean.push_back(SnapshotDocument{0, {TermId{1}, TermId{2}}});
  clean.push_back(SnapshotDocument{1, {TermId{3}}});
  auto control_stats = control->Tick(std::move(clean));
  ASSERT_TRUE(control_stats.ok());
  EXPECT_EQ(control_stats->rejected_documents, 0u);
  ExpectIdenticalPostings(quarantining->index(), control->index());
  ExpectIdenticalResults(quarantining->result(), control->result());
}

TEST(FeedRuntimeValidation, DuplicateEventReportsAreInvalid) {
  // The same stream re-reporting the same explicit event id in one snapshot
  // is a duplicate; documents without an event id never are, and different
  // streams may report the same event.
  FeedRuntimeOptions opts = BaseOptions(1);
  opts.on_invalid = InvalidDocPolicy::kDropDocument;
  auto runtime = FeedRuntime::Create(MakeSeedCollection(2, 2, 6), opts);
  ASSERT_TRUE(runtime.ok());

  Snapshot snap;
  snap.push_back(SnapshotDocument{0, {TermId{1}}, 9});
  snap.push_back(SnapshotDocument{0, {TermId{2}}, 9});   // duplicate
  snap.push_back(SnapshotDocument{1, {TermId{3}}, 9});   // other stream: fine
  snap.push_back(SnapshotDocument{0, {TermId{1}}});      // no id: fine
  snap.push_back(SnapshotDocument{0, {TermId{1}}});      // no id: fine
  auto stats = runtime->Tick(std::move(snap));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rejected_documents, 1u);
  EXPECT_EQ(stats->documents, 4u);

  auto strict = FeedRuntime::Create(MakeSeedCollection(2, 2, 6),
                                    BaseOptions(1));
  ASSERT_TRUE(strict.ok());
  Snapshot dup;
  dup.push_back(SnapshotDocument{0, {TermId{1}}, 4});
  dup.push_back(SnapshotDocument{0, {TermId{2}}, 4});
  EXPECT_TRUE(strict->Tick(std::move(dup)).status().IsInvalidArgument());
}

// Why the one-document-at-a-time reference judges a document malformed.
enum class DocVerdict { kValid, kBadStream, kBadToken, kDuplicateEvent };

// The validation rules applied to one document at a time, in order: the
// stream must exist, every token must be in the vocabulary, and an explicit
// event id must not repeat one an earlier valid document of the same stream
// carried.
std::vector<DocVerdict> ReferenceVerdicts(const Snapshot& snapshot,
                                          size_t num_streams, size_t vocab) {
  std::set<std::pair<StreamId, int32_t>> seen_events;
  std::vector<DocVerdict> verdicts;
  for (const SnapshotDocument& doc : snapshot) {
    DocVerdict verdict = DocVerdict::kValid;
    if (doc.stream >= num_streams) {
      verdict = DocVerdict::kBadStream;
    } else if (std::any_of(doc.tokens.begin(), doc.tokens.end(),
                           [&](TermId t) { return t >= vocab; })) {
      verdict = DocVerdict::kBadToken;
    } else if (doc.event_id != kNoEvent &&
               !seen_events.insert({doc.stream, doc.event_id}).second) {
      verdict = DocVerdict::kDuplicateEvent;
    }
    verdicts.push_back(verdict);
  }
  return verdicts;
}

void ExpectSameDocuments(const Snapshot& actual, const Snapshot& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].stream, expected[i].stream) << "doc " << i;
    EXPECT_EQ(actual[i].tokens, expected[i].tokens) << "doc " << i;
    EXPECT_EQ(actual[i].event_id, expected[i].event_id) << "doc " << i;
  }
}

// A snapshot where each document is malformed with probability about
// `dirt`: out-of-range streams (kInvalidStream included), tokens at and
// past the vocabulary size (kInvalidTerm included), and event ids drawn
// from a small range so (stream, event_id) pairs repeat.
Snapshot MakeAdversarialSnapshot(Rng& rng, size_t num_streams, size_t vocab,
                                 double dirt) {
  const StreamId bad_streams[] = {kInvalidStream,
                                  static_cast<StreamId>(num_streams),
                                  static_cast<StreamId>(num_streams + 1)};
  const TermId bad_tokens[] = {kInvalidTerm, static_cast<TermId>(vocab),
                               static_cast<TermId>(vocab + 1)};
  Snapshot snap;
  const size_t docs = rng.NextUint64(13);
  for (size_t d = 0; d < docs; ++d) {
    SnapshotDocument doc;
    doc.stream = rng.Bernoulli(dirt)
                     ? bad_streams[rng.NextUint64(3)]
                     : static_cast<StreamId>(rng.NextUint64(num_streams));
    const size_t len = rng.NextUint64(5);
    for (size_t i = 0; i < len; ++i) {
      if (vocab == 0 || rng.Bernoulli(dirt / 2)) {
        doc.tokens.push_back(bad_tokens[rng.NextUint64(3)]);
      } else {
        doc.tokens.push_back(static_cast<TermId>(rng.NextUint64(vocab)));
      }
    }
    doc.event_id = rng.Bernoulli(0.4)
                       ? kNoEvent
                       : static_cast<int32_t>(rng.NextUint64(3));
    snap.push_back(std::move(doc));
  }
  return snap;
}

TEST(FeedRuntimeValidation, BothPoliciesMatchOneDocumentAtATimeReference) {
  Rng rng(4242);
  size_t clean_snapshots = 0;
  size_t dirty_snapshots = 0;
  size_t verdict_counts[4] = {0, 0, 0, 0};
  for (int trial = 0; trial < 1000; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const size_t num_streams = 1 + rng.NextUint64(5);
    const size_t vocab = rng.NextUint64(9);  // 0: every token is malformed
    constexpr double kDirt[] = {0.0, 0.05, 0.3};
    const double dirt = kDirt[trial % 3];
    const Snapshot snapshot =
        MakeAdversarialSnapshot(rng, num_streams, vocab, dirt);

    const std::vector<DocVerdict> verdicts =
        ReferenceVerdicts(snapshot, num_streams, vocab);
    Snapshot valid_docs;
    for (size_t i = 0; i < snapshot.size(); ++i) {
      ++verdict_counts[static_cast<size_t>(verdicts[i])];
      if (verdicts[i] == DocVerdict::kValid) valid_docs.push_back(snapshot[i]);
    }
    const bool all_valid = valid_docs.size() == snapshot.size();
    ++(all_valid ? clean_snapshots : dirty_snapshots);

    // kRejectTick: OK exactly when every document is valid; the snapshot
    // and the rejected counter never change.
    Snapshot strict = snapshot;
    size_t strict_rejected = 7;
    const Status strict_status = ValidateSnapshotDocuments(
        num_streams, vocab, InvalidDocPolicy::kRejectTick, &strict,
        &strict_rejected);
    EXPECT_EQ(strict_status.ok(), all_valid) << strict_status.ToString();
    if (!all_valid) {
      EXPECT_TRUE(strict_status.IsInvalidArgument());
    }
    ExpectSameDocuments(strict, snapshot);
    EXPECT_EQ(strict_rejected, 7u);

    // kDropDocument: exactly the valid documents survive, in order, and
    // the counter grows by the number dropped.
    Snapshot lenient = snapshot;
    size_t rejected = 3;
    ASSERT_TRUE(ValidateSnapshotDocuments(num_streams, vocab,
                                          InvalidDocPolicy::kDropDocument,
                                          &lenient, &rejected)
                    .ok());
    ExpectSameDocuments(lenient, valid_docs);
    EXPECT_EQ(rejected, 3 + snapshot.size() - valid_docs.size());
  }
  // The generator reached both outcomes and every kind of malformation.
  EXPECT_GT(clean_snapshots, 100u);
  EXPECT_GT(dirty_snapshots, 100u);
  for (size_t kind = 0; kind < 4; ++kind) {
    EXPECT_GT(verdict_counts[kind], 100u) << "verdict " << kind;
  }
}

// Number of distinct streams among a term's (stream, time)-sorted postings.
size_t DistinctStreams(const std::vector<TermPosting>& postings) {
  size_t streams = 0;
  for (size_t i = 0; i < postings.size(); ++i) {
    if (i == 0 || postings[i].stream != postings[i - 1].stream) ++streams;
  }
  return streams;
}

bool SamePostings(const std::vector<TermPosting>& a,
                  const std::vector<TermPosting>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].stream != b[i].stream || a[i].time != b[i].time ||
        a[i].count != b[i].count) {
      return false;
    }
  }
  return true;
}

TEST(FeedRuntime, ExtractedRowsCountsTheDirtyTermsStreams) {
  // Without a refresh sweep, a tick's re-mine extracts one row per
  // (dirty term, stream with a posting of it). The dirty terms are exactly
  // those whose postings the tick's append or eviction changed.
  FeedRuntimeOptions opts = BaseOptions(2);
  opts.retention_window = 6;
  auto runtime = FeedRuntime::Create(MakeSeedCollection(6, 3, 40), opts);
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
  Rng rng(4242);
  size_t evicting = 0, total_rows = 0;
  for (int tick = 0; tick < 15; ++tick) {
    std::vector<std::vector<TermPosting>> before;
    for (TermId t = 0; t < runtime->index().num_terms(); ++t) {
      before.push_back(runtime->index().postings(t));
    }
    auto stats = runtime->Tick(MakeSnapshot(rng, 6, 40));
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    size_t dirty = 0, rows = 0;
    for (TermId t = 0; t < runtime->index().num_terms(); ++t) {
      const std::vector<TermPosting>& now = runtime->index().postings(t);
      if (t < before.size() && SamePostings(before[t], now)) continue;
      ++dirty;
      rows += DistinctStreams(now);
    }
    EXPECT_EQ(stats->dirty_terms, dirty) << "tick " << tick;
    EXPECT_EQ(stats->extracted_rows, rows) << "tick " << tick;
    evicting += stats->evicted ? 1 : 0;
    total_rows += rows;
  }
  EXPECT_GT(evicting, 5u);
  EXPECT_GT(total_rows, 0u);
}

TEST(FeedRuntime, EmptySnapshotTickIsDefined) {
  // An empty snapshot is a quiet timestamp, not an error: the timeline
  // advances, nothing is mined, and every stat reads zero.
  auto runtime = FeedRuntime::Create(MakeSeedCollection(2, 2, 6),
                                     BaseOptions(1));
  ASSERT_TRUE(runtime.ok());
  const Timestamp before = runtime->collection().timeline_length();
  auto stats = runtime->Tick(Snapshot{});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->time, before);
  EXPECT_EQ(stats->documents, 0u);
  EXPECT_EQ(stats->dirty_terms, 0u);
  EXPECT_EQ(stats->rejected_documents, 0u);
  EXPECT_FALSE(stats->evicted);
  EXPECT_EQ(runtime->collection().timeline_length(), before + 1);
}

TEST(FeedRuntime, SearchEdgeCasesAreDefined) {
  FeedRuntimeOptions opts = BaseOptions(1);
  opts.search_serving = SearchServing::kCombinatorial;
  Collection seed = MakeSeedCollection(2, 3, 6);
  for (Timestamp t = 0; t < 3; ++t) {
    for (StreamId s = 0; s < 2; ++s) {
      ASSERT_TRUE(seed.AddDocument(s, t, {TermId{0}, TermId{1}}).ok());
    }
  }
  auto runtime = FeedRuntime::Create(std::move(seed), opts);
  ASSERT_TRUE(runtime.ok());

  // Empty query, k = 0, unknown-words-only, and out-of-range term ids all
  // return an empty (not crashed, not partial) result.
  EXPECT_TRUE(runtime->Search(std::string(""), 5).docs.empty());
  EXPECT_TRUE(runtime->Search("...!!!", 5).docs.empty());
  EXPECT_TRUE(runtime->Search("neverinterned words", 5).docs.empty());
  EXPECT_TRUE(runtime->Search(std::vector<TermId>{}, 5).docs.empty());
  EXPECT_TRUE(runtime->Search(std::vector<TermId>{TermId{0}}, 0).docs.empty());
  EXPECT_TRUE(
      runtime->Search(std::vector<TermId>{TermId{9999}}, 5).docs.empty());
}

// ---- The per-phase API (PrepareTickIngest → RefreshCandidates /
// SelectRefreshTargets → StageTickDerived → CommitTick | AbortTick) ----

constexpr size_t kPhaseStreams = 5;
constexpr size_t kPhaseVocab = 50;

// Windowed ticks with search serving, a refresh sweep, and the cold tier:
// every phase has work to do once the window overfills.
FeedRuntimeOptions PhaseOptions() {
  FeedRuntimeOptions opts = BaseOptions(2);
  opts.retention_window = 8;
  opts.refresh_budget = 4;
  opts.search_serving = SearchServing::kCombinatorial;
  opts.history_mode = HistoryMode::kInMemory;
  opts.history_bucket_width = 2;
  return opts;
}

// Tick() spelled out phase by phase, the way an instrumented caller runs it.
StatusOr<FeedTickStats> TickByPhases(FeedRuntime* runtime, Snapshot snapshot,
                                     size_t refresh_budget) {
  STB_ASSIGN_OR_RETURN(FeedRuntime::TickTransaction tx,
                       runtime->PrepareTickIngest(std::move(snapshot)));
  std::vector<TermId> targets = FeedRuntime::SelectRefreshTargets(
      runtime->RefreshCandidates(tx), refresh_budget);
  const Status staged = runtime->StageTickDerived(&tx, std::move(targets));
  if (!staged.ok()) {
    runtime->AbortTick(std::move(tx));
    return staged;
  }
  return runtime->CommitTick(std::move(tx));
}

// Every FeedTickStats field except the wall-clock `seconds`.
void ExpectSameStats(const FeedTickStats& a, const FeedTickStats& b) {
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.documents, b.documents);
  EXPECT_EQ(a.rejected_documents, b.rejected_documents);
  EXPECT_EQ(a.dirty_terms, b.dirty_terms);
  EXPECT_EQ(a.refreshed_terms, b.refreshed_terms);
  EXPECT_EQ(a.extracted_rows, b.extracted_rows);
  EXPECT_EQ(a.search_terms, b.search_terms);
  EXPECT_EQ(a.search_tokens_scanned, b.search_tokens_scanned);
  EXPECT_EQ(a.folded_terms, b.folded_terms);
  EXPECT_EQ(a.evicted, b.evicted);
}

TEST(FeedRuntimePhases, ComposedPhasesMatchTickBitForBit) {
  const FeedRuntimeOptions opts = PhaseOptions();
  auto phased = FeedRuntime::Create(
      MakeSeedCollection(kPhaseStreams, 3, kPhaseVocab), opts);
  ASSERT_TRUE(phased.ok()) << phased.status().ToString();
  auto ticked = FeedRuntime::Create(
      MakeSeedCollection(kPhaseStreams, 3, kPhaseVocab), opts);
  ASSERT_TRUE(ticked.ok()) << ticked.status().ToString();

  Rng rng_a(2718), rng_b(2718);  // identical feeds
  size_t refreshed = 0, evicting = 0, folded = 0;
  for (int tick = 0; tick < 20; ++tick) {
    auto a = TickByPhases(&*phased,
                          MakeSnapshot(rng_a, kPhaseStreams, kPhaseVocab),
                          opts.refresh_budget);
    auto b = ticked->Tick(MakeSnapshot(rng_b, kPhaseStreams, kPhaseVocab));
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ExpectSameStats(*a, *b);
    ExpectIdenticalRuntimes(*phased, *ticked);
    refreshed += a->refreshed_terms;
    evicting += a->evicted ? 1 : 0;
    folded += a->folded_terms;
  }
  // Not vacuous: the run refreshed, evicted, and folded.
  EXPECT_GT(refreshed, 0u);
  EXPECT_GT(evicting, 0u);
  EXPECT_GT(folded, 0u);
}

TEST(FeedRuntimePhases, AbortAfterStageRestoresPreTickState) {
  const FeedRuntimeOptions opts = PhaseOptions();
  auto subject = FeedRuntime::Create(
      MakeSeedCollection(kPhaseStreams, 3, kPhaseVocab), opts);
  ASSERT_TRUE(subject.ok()) << subject.status().ToString();
  auto control = FeedRuntime::Create(
      MakeSeedCollection(kPhaseStreams, 3, kPhaseVocab), opts);
  ASSERT_TRUE(control.ok()) << control.status().ToString();

  // Overfill the window so the aborted tick appends, evicts, and folds.
  Rng rng(1618);
  for (int tick = 0; tick < 10; ++tick) {
    const Snapshot snap = MakeSnapshot(rng, kPhaseStreams, kPhaseVocab);
    ASSERT_TRUE(subject->Tick(snap).ok());
    ASSERT_TRUE(control->Tick(snap).ok());
  }
  const std::shared_ptr<const IndexSnapshot> published =
      subject->search_snapshot();

  // The subject stages a whole tick, then aborts it; the control never sees
  // the snapshot.
  const Snapshot doomed = MakeSnapshot(rng, kPhaseStreams, kPhaseVocab);
  auto tx = subject->PrepareTickIngest(doomed);
  ASSERT_TRUE(tx.ok()) << tx.status().ToString();
  std::vector<TermId> targets = FeedRuntime::SelectRefreshTargets(
      subject->RefreshCandidates(*tx), opts.refresh_budget);
  ASSERT_TRUE(subject->StageTickDerived(&*tx, std::move(targets)).ok());
  subject->AbortTick(std::move(*tx));

  EXPECT_FALSE(subject->wedged());
  EXPECT_EQ(subject->search_snapshot().get(), published.get());
  ExpectIdenticalRuntimes(*subject, *control);

  // The same snapshot then ticks cleanly, and both stay in lockstep.
  auto retried = subject->Tick(doomed);
  auto fresh = control->Tick(doomed);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_TRUE(retried->evicted);
  ExpectSameStats(*retried, *fresh);
  ExpectIdenticalRuntimes(*subject, *control);
}

TEST(FeedRuntimePhases, CommitWithoutStageIsRejectedAndRolledBack) {
  const FeedRuntimeOptions opts = PhaseOptions();
  auto subject = FeedRuntime::Create(
      MakeSeedCollection(kPhaseStreams, 3, kPhaseVocab), opts);
  ASSERT_TRUE(subject.ok()) << subject.status().ToString();
  auto control = FeedRuntime::Create(
      MakeSeedCollection(kPhaseStreams, 3, kPhaseVocab), opts);
  ASSERT_TRUE(control.ok()) << control.status().ToString();

  // Overfill the window so the unstaged tick would evict documents the
  // published search snapshot still indexes.
  Rng rng(1414);
  for (int tick = 0; tick < 10; ++tick) {
    const Snapshot snap = MakeSnapshot(rng, kPhaseStreams, kPhaseVocab);
    ASSERT_TRUE(subject->Tick(snap).ok());
    ASSERT_TRUE(control->Tick(snap).ok());
  }
  const std::shared_ptr<const IndexSnapshot> published =
      subject->search_snapshot();

  // Prepare → Commit, skipping StageTickDerived: the commit is refused and
  // the tick rolled back; the control never sees the snapshot.
  const Snapshot skipped = MakeSnapshot(rng, kPhaseStreams, kPhaseVocab);
  auto tx = subject->PrepareTickIngest(skipped);
  ASSERT_TRUE(tx.ok()) << tx.status().ToString();
  auto committed = subject->CommitTick(std::move(*tx));
  EXPECT_TRUE(committed.status().IsFailedPrecondition())
      << committed.status().ToString();

  EXPECT_FALSE(subject->wedged());
  EXPECT_EQ(subject->search_snapshot().get(), published.get());
  ExpectIdenticalRuntimes(*subject, *control);

  // The next tick succeeds, and both stay in lockstep.
  auto retried = subject->Tick(skipped);
  auto fresh = control->Tick(skipped);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_TRUE(retried->evicted);
  ExpectSameStats(*retried, *fresh);
  ExpectIdenticalRuntimes(*subject, *control);
}

TEST(FeedRuntimePhases, SelectRefreshTargetsBudgetAndTies) {
  const std::vector<RefreshCandidate> candidates = {
      {TermId{7}, 2.0}, {TermId{3}, 2.0}, {TermId{5}, 1.0}, {TermId{1}, 2.0}};
  EXPECT_TRUE(FeedRuntime::SelectRefreshTargets(candidates, 0).empty());
  EXPECT_TRUE(FeedRuntime::SelectRefreshTargets({}, 4).empty());
  // Equal priorities break toward the smaller TermId.
  EXPECT_EQ(FeedRuntime::SelectRefreshTargets(candidates, 2),
            (std::vector<TermId>{1, 3}));
  // A budget past the candidate count returns every candidate, ranked.
  EXPECT_EQ(FeedRuntime::SelectRefreshTargets(candidates, 10),
            (std::vector<TermId>{1, 3, 7, 5}));
}

}  // namespace
}  // namespace stburst
