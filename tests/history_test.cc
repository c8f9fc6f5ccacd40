// Tiered long-horizon history proofs (docs/ARCHITECTURE.md "Tiered
// history"):
//
//  - fold-vs-direct parity: the tier's aggregates are bit-equal to
//    aggregating the dropped snapshots directly (via an unwindowed control);
//  - full-horizon baseline parity: a windowed runtime + LongHorizonBaseline
//    reproduces the unwindowed control's expected-model baselines exactly;
//  - fold rollback, idempotence and the window-start origin of coverage;
//  - ReplayRange backtesting over stored spans, and its size bound.
//
// Bit-equality leans on the frequency determinism note in frequency.h:
// counts are integer-valued doubles (token multiplicities), so partial sums
// are exact regardless of association order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "runtime_test_util.h"
#include "stburst/common/random.h"
#include "stburst/common/string_util.h"
#include "stburst/core/expected.h"
#include "stburst/history/cold_tier.h"
#include "stburst/history/long_horizon.h"
#include "stburst/history/replay.h"
#include "stburst/stream/feed_runtime.h"

namespace stburst {
namespace {

constexpr size_t kStreams = 4;
constexpr size_t kVocab = 24;
constexpr Timestamp kWindow = 5;
constexpr Timestamp kBucket = 2;
constexpr int kTicks = 14;

Collection MakeSeedCollection(Timestamp initial_timeline = 2) {
  auto c = Collection::Create(initial_timeline);
  EXPECT_TRUE(c.ok());
  for (size_t s = 0; s < kStreams; ++s) {
    c->AddStream(StringPrintf("s%zu", s), {},
                 Point2D{static_cast<double>(s % 2),
                         static_cast<double>(s / 2)});
  }
  Vocabulary* v = c->mutable_vocabulary();
  for (size_t t = 0; t < kVocab; ++t) v->Intern("term" + std::to_string(t));
  return std::move(*c);
}

Snapshot MakeSnapshot(Rng& rng) {
  Snapshot snap;
  for (StreamId s = 0; s < kStreams; ++s) {
    const size_t docs = 1 + rng.NextUint64(2);
    for (size_t d = 0; d < docs; ++d) {
      SnapshotDocument doc;
      doc.stream = s;
      const size_t len = 2 + rng.NextUint64(4);
      for (size_t i = 0; i < len; ++i) {
        TermId tok = static_cast<TermId>(rng.NextUint64(kVocab));
        if (rng.Bernoulli(0.5)) {
          tok = static_cast<TermId>(tok % (kVocab / 4 + 1));
        }
        doc.tokens.push_back(tok);
      }
      snap.push_back(std::move(doc));
    }
  }
  return snap;
}

std::vector<Snapshot> MakeFeed(uint64_t seed, int ticks) {
  Rng rng(seed);
  std::vector<Snapshot> feed;
  feed.reserve(static_cast<size_t>(ticks));
  for (int i = 0; i < ticks; ++i) feed.push_back(MakeSnapshot(rng));
  return feed;
}

FeedRuntimeOptions WindowedHistoryOptions(HistoryMode mode) {
  FeedRuntimeOptions opts;
  opts.num_threads = 2;
  opts.retention_window = kWindow;
  opts.history_mode = mode;
  opts.history_bucket_width = kBucket;
  return opts;
}

void ExpectSameRows(const std::vector<ColdRow>& got,
                    const std::vector<ColdRow>& want, TermId term) {
  ASSERT_EQ(got.size(), want.size()) << "term " << term;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].stream, want[i].stream) << "term " << term;
    EXPECT_EQ(got[i].bucket, want[i].bucket) << "term " << term;
    EXPECT_EQ(got[i].sum, want[i].sum) << "term " << term << " (bit-equal)";
    EXPECT_EQ(got[i].max, want[i].max) << "term " << term << " (bit-equal)";
    EXPECT_EQ(got[i].count, want[i].count) << "term " << term;
  }
}

// Aggregates `postings` over [covered_start, folded_until) exactly as the
// tier contract specifies — the "direct" half of fold-vs-direct parity.
std::vector<ColdRow> DirectAggregate(const std::vector<TermPosting>& postings,
                                     Timestamp covered_start,
                                     Timestamp folded_until,
                                     Timestamp bucket_width) {
  std::vector<ColdRow> rows;
  for (const TermPosting& p : postings) {
    if (p.time < covered_start || p.time >= folded_until) continue;
    if (p.count == 0.0) continue;
    const auto bucket = static_cast<uint32_t>(p.time / bucket_width);
    auto it = rows.begin();
    while (it != rows.end() &&
           std::pair(it->stream, it->bucket) < std::pair(p.stream, bucket)) {
      ++it;
    }
    if (it == rows.end() || it->stream != p.stream || it->bucket != bucket) {
      it = rows.insert(it, ColdRow{p.stream, bucket, 0.0, 0.0, 0});
    }
    it->sum += p.count;
    it->max = std::max(it->max, p.count);
    it->count += 1;
  }
  return rows;
}

// ---------------------------------------------------------------- ColdTier

TEST(ColdTierTest, FoldAggregatesRollsBackAndIsIdempotent) {
  auto tier = ColdTier::Open(/*bucket_width=*/4, /*covered_start=*/0);
  ASSERT_TRUE(tier.ok());

  std::vector<std::pair<TermId, std::vector<TermPosting>>> removed;
  removed.push_back({7,
                     {{0, 0, 2.0}, {0, 1, 3.0}, {0, 5, 1.0}, {2, 2, 4.0}}});
  removed.push_back({9, {{1, 3, 1.0}}});

  ColdFoldUndo undo;
  EXPECT_EQ(tier->FoldEvicted(removed, /*cutoff=*/6, &undo), 2u);
  EXPECT_EQ(tier->folded_until(), 6);
  EXPECT_EQ(tier->covered_start(), 0);
  EXPECT_EQ(tier->term_upper_bound(), 10u);
  EXPECT_EQ(tier->stream_upper_bound(), 3u);

  // Term 7: times 0,1,2 land in bucket 0; time 5 in bucket 1.
  ExpectSameRows(tier->TermRows(7),
                 {{0, 0, 5.0, 3.0, 2},
                  {0, 1, 1.0, 1.0, 1},
                  {2, 0, 4.0, 4.0, 1}},
                 7);
  ExpectSameRows(tier->TermRows(9), {{1, 0, 1.0, 1.0, 1}}, 9);
  EXPECT_EQ(tier->StreamSum(7, 0), 6.0);

  // Idempotence: re-folding the same postings (all below folded_until now)
  // changes nothing.
  ColdFoldUndo undo2;
  EXPECT_EQ(tier->FoldEvicted(removed, /*cutoff=*/6, &undo2), 0u);
  ExpectSameRows(tier->TermRows(7),
                 {{0, 0, 5.0, 3.0, 2},
                  {0, 1, 1.0, 1.0, 1},
                  {2, 0, 4.0, 4.0, 1}},
                 7);

  // A second fold above the watermark merges into existing buckets...
  std::vector<std::pair<TermId, std::vector<TermPosting>>> more;
  more.push_back({7, {{0, 6, 7.0}}});
  ColdFoldUndo undo3;
  EXPECT_EQ(tier->FoldEvicted(more, /*cutoff=*/8, &undo3), 1u);
  ExpectSameRows(tier->TermRows(7),
                 {{0, 0, 5.0, 3.0, 2},
                  {0, 1, 8.0, 7.0, 2},
                  {2, 0, 4.0, 4.0, 1}},
                 7);
  EXPECT_EQ(tier->folded_until(), 8);

  // ...and rolls back exactly (rows, watermark, bounds).
  tier->RollbackFold(std::move(undo3));
  EXPECT_EQ(tier->folded_until(), 6);
  ExpectSameRows(tier->TermRows(7),
                 {{0, 0, 5.0, 3.0, 2},
                  {0, 1, 1.0, 1.0, 1},
                  {2, 0, 4.0, 4.0, 1}},
                 7);
}

TEST(ColdTierTest, RollbackRestoresATermNamedTwiceInOneFold) {
  auto tier = ColdTier::Open(/*bucket_width=*/4, /*covered_start=*/0);
  ASSERT_TRUE(tier.ok());

  std::vector<std::pair<TermId, std::vector<TermPosting>>> first;
  first.push_back({5, {{0, 1, 2.0}}});
  ColdFoldUndo undo1;
  tier->FoldEvicted(first, /*cutoff=*/4, &undo1);
  ExpectSameRows(tier->TermRows(5), {{0, 0, 2.0, 2.0, 1}}, 5);

  // One fold naming term 5 twice saves its rows twice; rollback must end on
  // the first save, the pre-fold rows.
  std::vector<std::pair<TermId, std::vector<TermPosting>>> twice;
  twice.push_back({5, {{0, 4, 3.0}}});
  twice.push_back({5, {{1, 5, 1.0}}});
  ColdFoldUndo undo2;
  tier->FoldEvicted(twice, /*cutoff=*/8, &undo2);
  ExpectSameRows(tier->TermRows(5),
                 {{0, 0, 2.0, 2.0, 1},
                  {0, 1, 3.0, 3.0, 1},
                  {1, 1, 1.0, 1.0, 1}},
                 5);

  tier->RollbackFold(std::move(undo2));
  EXPECT_EQ(tier->folded_until(), 4);
  EXPECT_EQ(tier->stream_upper_bound(), 1u);
  ExpectSameRows(tier->TermRows(5), {{0, 0, 2.0, 2.0, 1}}, 5);
}

TEST(ColdTierTest, AttachAdoptsWindowStartAndRejectsGaps) {
  const auto negative = ColdTier::Open(4, /*covered_start=*/-1);
  ASSERT_FALSE(negative.ok());
  EXPECT_TRUE(negative.status().IsInvalidArgument());

  // Coverage honestly begins at the live window.
  auto tier = ColdTier::Open(4, /*covered_start=*/9);
  ASSERT_TRUE(tier.ok());
  EXPECT_EQ(tier->covered_start(), 9);
  EXPECT_EQ(tier->folded_until(), 9);
  EXPECT_EQ(tier->covered_length(), 0);
  EXPECT_EQ(tier->bucket_lower_bound(), 2u);

  // A posting before the window start lies in the gap that was dropped
  // un-folded: the tier leaves it uncovered instead of folding it.
  std::vector<std::pair<TermId, std::vector<TermPosting>>> removed;
  removed.push_back({1, {{0, 7, 4.0}, {0, 9, 1.0}, {0, 10, 2.0}}});
  ColdFoldUndo undo;
  EXPECT_EQ(tier->FoldEvicted(removed, /*cutoff=*/11, &undo), 1u);
  EXPECT_EQ(tier->folded_until(), 11);
  EXPECT_EQ(tier->covered_length(), 2);
  ExpectSameRows(tier->TermRows(1), {{0, 2, 3.0, 2.0, 2}}, 1);

  // A runtime over a seed deeper than its window attaches its tier at the
  // window start: Create's own eviction is a declared drop, not a fold.
  auto runtime = FeedRuntime::Create(
      MakeSeedCollection(/*initial_timeline=*/kWindow + 7),
      WindowedHistoryOptions(HistoryMode::kInMemory));
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
  ASSERT_EQ(runtime->window_start(), 7);
  EXPECT_EQ(runtime->history()->covered_start(), 7);
  EXPECT_EQ(runtime->history()->folded_until(), 7);
}

TEST(ColdTierTest, RuntimeValidatesHistoryOptions) {
  {
    FeedRuntimeOptions opts = WindowedHistoryOptions(HistoryMode::kInMemory);
    opts.history_bucket_width = 0;
    auto runtime = FeedRuntime::Create(MakeSeedCollection(), opts);
    ASSERT_FALSE(runtime.ok());
    EXPECT_TRUE(runtime.status().IsInvalidArgument());
  }
  {
    auto runtime = FeedRuntime::Create(
        MakeSeedCollection(), WindowedHistoryOptions(HistoryMode::kInMemory));
    ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
    EXPECT_NE(runtime->history(), nullptr);
  }
}

// ------------------------------------------------- fold-vs-direct parity

// The windowed runtime's tier must hold exactly what direct aggregation of
// the dropped snapshots produces — proven against an unwindowed control
// that still has every posting.
TEST(HistoryFoldParityTest, TierMatchesDirectAggregationOfDroppedSnapshots) {
  auto subject = FeedRuntime::Create(
      MakeSeedCollection(), WindowedHistoryOptions(HistoryMode::kInMemory));
  ASSERT_TRUE(subject.ok()) << subject.status().ToString();
  FeedRuntimeOptions control_opts;
  control_opts.num_threads = 2;  // unwindowed, no history
  auto control = FeedRuntime::Create(MakeSeedCollection(), control_opts);
  ASSERT_TRUE(control.ok()) << control.status().ToString();

  size_t folding_ticks = 0;
  for (const Snapshot& snap : MakeFeed(/*seed=*/1234, kTicks)) {
    Snapshot copy = snap;
    auto stats = subject->Tick(std::move(copy));
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    if (stats->folded_terms > 0) ++folding_ticks;
    ASSERT_TRUE(control->Tick(Snapshot(snap)).ok());
  }
  ASSERT_GT(folding_ticks, 0u);

  const ColdTier* tier = subject->history();
  ASSERT_NE(tier, nullptr);
  // The seed collection fits inside the window, so nothing was dropped at
  // Create and the tier covers the full evicted prefix.
  EXPECT_EQ(tier->covered_start(), 0);
  EXPECT_EQ(tier->folded_until(), subject->window_start());
  ASSERT_GE(tier->folded_until(), 1);

  for (TermId t = 0; t < control->index().num_terms(); ++t) {
    ExpectSameRows(tier->TermRows(t),
                   DirectAggregate(control->index().postings(t),
                                   tier->covered_start(),
                                   tier->folded_until(), kBucket),
                   t);
  }
}

// The acceptance-criterion parity: expected-model baselines over the full
// horizon from hot window + cold tier, identical to the unwindowed control.
TEST(HistoryFoldParityTest, BaselinesMatchUnwindowedControl) {
  auto subject = FeedRuntime::Create(
      MakeSeedCollection(), WindowedHistoryOptions(HistoryMode::kInMemory));
  ASSERT_TRUE(subject.ok());
  FeedRuntimeOptions control_opts;
  control_opts.num_threads = 2;
  auto control = FeedRuntime::Create(MakeSeedCollection(), control_opts);
  ASSERT_TRUE(control.ok());

  for (const Snapshot& snap : MakeFeed(/*seed=*/555, kTicks)) {
    ASSERT_TRUE(subject->Tick(Snapshot(snap)).ok());
    ASSERT_TRUE(control->Tick(Snapshot(snap)).ok());
  }

  const ColdTier* tier = subject->history();
  ASSERT_NE(tier, nullptr);
  const Timestamp fold = tier->folded_until();
  ASSERT_EQ(fold, subject->window_start());
  ASSERT_GE(fold, 1);

  LongHorizonBaseline baseline(tier);
  for (TermId t = 0; t < control->index().num_terms(); ++t) {
    const TermSeries full = control->index().DenseSeries(t);
    const TermSeries hot = subject->index().DenseSeries(t);
    for (StreamId s = 0; s < kStreams; ++s) {
      // Control: an unseeded mean over the full horizon [0, T).
      SeededMeanModel control_model;
      const std::vector<double> want =
          BurstinessSeries(full.StreamRow(s), control_model);
      // Subject: the tier-seeded mean over the hot window [fold, T) only.
      std::unique_ptr<ExpectedFrequencyModel> model = baseline.ModelFor(t, s);
      const std::vector<double> got =
          BurstinessSeries(hot.StreamRow(s), *model);
      ASSERT_EQ(want.size(), got.size() + static_cast<size_t>(fold));
      for (size_t i = 0; i < got.size(); ++i) {
        // Bit-equal, not approximately equal: integer-valued partial sums
        // are exact in double.
        EXPECT_EQ(got[i], want[i + static_cast<size_t>(fold)])
            << "term " << t << " stream " << s << " hot index " << i;
      }
    }
  }
}

// --------------------------------------------------- LongHorizonBaseline

TEST(LongHorizonBaselineTest, NullTierYieldsUnseededModelsAndComposes) {
  LongHorizonBaseline baseline(nullptr);
  const std::vector<double> y = {4.0, 0.0};
  std::vector<double> e(y.size());
  // Unseeded: the first entry has no history.
  EXPECT_EQ(baseline.ModelFor(3, 1)->Expected(y, e), 1u);
  // Its models compose with the existing decorators.
  ExpectedModelFactory floored =
      WithPriorFloor([&baseline] { return baseline.ModelFor(3, 1); }, 0.25);
  EXPECT_EQ(floored()->Expected(y, e), 0u);
  EXPECT_EQ(e[0], 0.25);
  EXPECT_EQ(e[1], 4.0);
}

// -------------------------------------------------------------- ReplayRange

TEST(ReplayTest, ReplayRangeFindsStoredBurst) {
  auto tier = ColdTier::Open(/*bucket_width=*/4, /*covered_start=*/0);
  ASSERT_TRUE(tier.ok());
  // Stream 0: background frequency 1 everywhere, a burst (5s) at times
  // 8..11 — exactly bucket 2. Stream 1: flat.
  std::vector<TermPosting> postings;
  for (Timestamp time = 0; time < 20; ++time) {
    postings.push_back({0, time, time >= 8 && time < 12 ? 5.0 : 1.0});
    postings.push_back({1, time, 1.0});
  }
  std::sort(postings.begin(), postings.end(),
            [](const TermPosting& a, const TermPosting& b) {
              return std::pair(a.stream, a.time) < std::pair(b.stream, b.time);
            });
  std::vector<std::pair<TermId, std::vector<TermPosting>>> removed = {
      {5, std::move(postings)}};
  ColdFoldUndo undo;
  tier->FoldEvicted(removed, /*cutoff=*/20, &undo);
  ASSERT_EQ(tier->bucket_upper_bound(), 5u);

  const ExpectedModelFactory factory = [] {
    return std::make_unique<GlobalMeanModel>();
  };
  auto replayed = ReplayRange(*tier, 5, 0, 5, factory);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  bool found_burst = false;
  for (const ReplayedInterval& interval : *replayed) {
    if (interval.stream == 0 && interval.bucket_begin <= 2 &&
        interval.bucket_end > 2) {
      found_burst = true;
      EXPECT_GT(interval.burstiness, 0.0);
    }
    EXPECT_NE(interval.stream, 1u) << "flat stream must not burst";
  }
  EXPECT_TRUE(found_burst);

  // Span validation.
  EXPECT_TRUE(
      ReplayRange(*tier, 5, 3, 3, factory).status().IsInvalidArgument());
  EXPECT_TRUE(ReplayRange(*tier, 5, 0, 6, factory).status().IsOutOfRange());
}

// A narrow bucket over a long covered span asks for billions of buckets:
// the replay must refuse before it allocates the matrix (16 GiB here).
TEST(ReplayTest, RefusesReplaysPastTheCellBound) {
  auto tier = ColdTier::Open(/*bucket_width=*/1, /*covered_start=*/0);
  ASSERT_TRUE(tier.ok());
  std::vector<std::pair<TermId, std::vector<TermPosting>>> removed = {
      {0, {{0, 0, 1.0}}}};
  ColdFoldUndo undo;
  ASSERT_EQ(tier->FoldEvicted(removed, /*cutoff=*/1, &undo), 1u);
  removed.clear();
  ASSERT_EQ(tier->FoldEvicted(removed, /*cutoff=*/INT32_MAX - 1, &undo), 0u);
  ASSERT_EQ(tier->stream_upper_bound(), 1u);
  const uint32_t begin = tier->bucket_lower_bound();
  const uint32_t end = tier->bucket_upper_bound();
  ASSERT_EQ(end - begin, static_cast<uint32_t>(INT32_MAX - 1));
  ASSERT_GT(end - begin, ColdTier::kMaxReplayCells);

  EXPECT_TRUE(tier->ReplaySeries(0, begin, end).status().IsOutOfRange());
  const ExpectedModelFactory factory = [] {
    return std::make_unique<GlobalMeanModel>();
  };
  EXPECT_TRUE(
      ReplayRange(*tier, 0, begin, end, factory).status().IsOutOfRange());

  // A span within the bound still replays.
  auto head = tier->ReplaySeries(0, begin, begin + 4);
  ASSERT_TRUE(head.ok()) << head.status().ToString();
  EXPECT_EQ(head->StreamRow(0)[0], 1.0);
  EXPECT_EQ(head->StreamRow(0)[1], 0.0);
}

// --------------------------------------------------------------- stats

TEST(HistoryTickStatsTest, FoldedTermsTracksEvictionAndMode) {
  // kOff: stats stay zero, no tier exists.
  {
    FeedRuntimeOptions opts = WindowedHistoryOptions(HistoryMode::kOff);
    auto runtime = FeedRuntime::Create(MakeSeedCollection(), opts);
    ASSERT_TRUE(runtime.ok());
    EXPECT_EQ(runtime->history(), nullptr);
    Rng rng(1);
    for (int i = 0; i < kTicks; ++i) {
      auto stats = runtime->Tick(MakeSnapshot(rng));
      ASSERT_TRUE(stats.ok());
      EXPECT_EQ(stats->folded_terms, 0u);
    }
  }
  // kInMemory: zero until the window fills, positive on evicting ticks.
  {
    auto runtime = FeedRuntime::Create(
        MakeSeedCollection(), WindowedHistoryOptions(HistoryMode::kInMemory));
    ASSERT_TRUE(runtime.ok());
    Rng rng(1);
    size_t total_folded = 0;
    for (int i = 0; i < kTicks; ++i) {
      auto stats = runtime->Tick(MakeSnapshot(rng));
      ASSERT_TRUE(stats.ok());
      // Non-evicting ticks never fold; evicting ticks may fold zero terms
      // while the (empty) seed prefix drains out of the window.
      if (!stats->evicted) {
        EXPECT_EQ(stats->folded_terms, 0u) << "tick " << i;
      }
      total_folded += stats->folded_terms;
    }
    EXPECT_GT(total_folded, 0u);
    EXPECT_EQ(runtime->history()->folded_until(), runtime->window_start());
  }
}

}  // namespace
}  // namespace stburst
