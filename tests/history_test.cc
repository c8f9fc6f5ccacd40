// Tiered long-horizon history proofs (docs/ARCHITECTURE.md "Tiered
// history", docs/STORAGE.md):
//
//  - fold-vs-direct parity: the tier's aggregates are bit-equal to
//    aggregating the dropped snapshots directly (via an unwindowed control);
//  - full-horizon baseline parity: a windowed runtime + LongHorizonBaseline
//    reproduces the unwindowed control's expected-model baselines exactly;
//  - restart recovery: a tier checkpointed to a file reopens bit-identical,
//    and a restarted runtime recovers the baselines without replaying the
//    cold span;
//  - storage hardening: truncated / corrupt / wrong-format files are
//    rejected, never half-read, and the format's bytes are pinned;
//  - ReplayRange backtesting over stored spans.
//
// Bit-equality leans on the frequency determinism note in frequency.h:
// counts are integer-valued doubles (token multiplicities), so partial sums
// are exact regardless of association order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
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

std::string TempPath(const std::string& name) {
  std::string dir = testing::TempDir();
  if (!dir.empty() && dir.back() != '/') dir += '/';
  const std::string path = dir + name;
  std::remove(path.c_str());
  return path;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

uint64_t Fnv1a64(const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 14695981039346656037ull;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

// ---------------------------------------------------------------- ColdTier

TEST(ColdTierTest, FoldAggregatesRollsBackAndIsIdempotent) {
  auto tier = ColdTier::Open(/*bucket_width=*/4, /*path=*/"");
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
  auto tier = ColdTier::Open(/*bucket_width=*/4, /*path=*/"");
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
  auto tier = ColdTier::Open(4, /*path=*/"");
  ASSERT_TRUE(tier.ok());

  // Fresh tier: coverage honestly begins at the live window.
  ASSERT_TRUE(tier->AttachAt(9).ok());
  EXPECT_EQ(tier->covered_start(), 9);
  EXPECT_EQ(tier->folded_until(), 9);
  EXPECT_EQ(tier->covered_length(), 0);
  EXPECT_EQ(tier->bucket_lower_bound(), 2u);

  std::vector<std::pair<TermId, std::vector<TermPosting>>> removed;
  removed.push_back({1, {{0, 9, 1.0}, {0, 10, 2.0}}});
  ColdFoldUndo undo;
  EXPECT_EQ(tier->FoldEvicted(removed, /*cutoff=*/11, &undo), 1u);

  // Overlap is fine (restart replayed extra history)...
  EXPECT_TRUE(tier->AttachAt(10).ok());
  EXPECT_EQ(tier->folded_until(), 11);
  // ...a gap past the folded aggregates is not.
  const Status gap = tier->AttachAt(13);
  EXPECT_FALSE(gap.ok());
  EXPECT_TRUE(gap.IsInvalidArgument());
}

TEST(ColdTierTest, RuntimeValidatesHistoryOptions) {
  const std::string path = TempPath("cold_tier_options.stb");
  {
    FeedRuntimeOptions opts = WindowedHistoryOptions(HistoryMode::kInMemory);
    opts.history_bucket_width = 0;
    auto runtime = FeedRuntime::Create(MakeSeedCollection(), opts);
    ASSERT_FALSE(runtime.ok());
    EXPECT_TRUE(runtime.status().IsInvalidArgument());
  }
  {
    // No tier to checkpoint: the path would be silently ignored.
    FeedRuntimeOptions opts = WindowedHistoryOptions(HistoryMode::kOff);
    opts.history_path = path;
    auto runtime = FeedRuntime::Create(MakeSeedCollection(), opts);
    ASSERT_FALSE(runtime.ok());
    EXPECT_TRUE(runtime.status().IsInvalidArgument());
  }
  {
    FeedRuntimeOptions opts = WindowedHistoryOptions(HistoryMode::kInMemory);
    opts.history_path = path;
    auto runtime = FeedRuntime::Create(MakeSeedCollection(), opts);
    ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
    EXPECT_NE(runtime->history(), nullptr);
  }
  {
    auto runtime = FeedRuntime::Create(
        MakeSeedCollection(), WindowedHistoryOptions(HistoryMode::kInMemory));
    ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
    EXPECT_NE(runtime->history(), nullptr);
  }
  std::remove(path.c_str());
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

// ------------------------------------------------------------ tier file

std::vector<std::pair<TermId, std::vector<TermPosting>>> SampleFoldInput() {
  return {{0, {{0, 0, 1.0}, {1, 2, 2.0}, {1, 3, 3.0}}},
          {3, {{2, 1, 4.0}, {2, 5, 1.0}}}};
}

TEST(ColdTierMmapTest, PublishReopenRoundTripWithDeltaOverlay) {
  const std::string path = TempPath("cold_tier_roundtrip.stb");
  {
    auto tier = ColdTier::Open(/*bucket_width=*/2, path);
    ASSERT_TRUE(tier.ok()) << tier.status().ToString();
    ColdFoldUndo undo;
    auto input = SampleFoldInput();
    tier->FoldEvicted(input, /*cutoff=*/4, &undo);
    ASSERT_TRUE(tier->Publish().ok());

    // Fold more on top of the published rows.
    std::vector<std::pair<TermId, std::vector<TermPosting>>> more = {
        {0, {{1, 4, 5.0}}}, {3, {{2, 5, 1.0}}}};
    ColdFoldUndo undo2;
    tier->FoldEvicted(more, /*cutoff=*/6, &undo2);
    ExpectSameRows(tier->TermRows(0),
                   {{0, 0, 1.0, 1.0, 1}, {1, 1, 5.0, 3.0, 2},
                    {1, 2, 5.0, 5.0, 1}},
                   0);
    ExpectSameRows(tier->TermRows(3),
                   {{2, 0, 4.0, 4.0, 1}, {2, 2, 1.0, 1.0, 1}}, 3);
    ASSERT_TRUE(tier->Publish().ok());
  }
  // Reopen from disk only: bit-identical state.
  auto reopened = ColdTier::Open(/*bucket_width=*/2, path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->bucket_width(), 2);
  EXPECT_EQ(reopened->covered_start(), 0);
  EXPECT_EQ(reopened->folded_until(), 6);
  ExpectSameRows(reopened->TermRows(0),
                 {{0, 0, 1.0, 1.0, 1}, {1, 1, 5.0, 3.0, 2},
                  {1, 2, 5.0, 5.0, 1}},
                 0);
  ExpectSameRows(reopened->TermRows(3),
                 {{2, 0, 4.0, 4.0, 1}, {2, 2, 1.0, 1.0, 1}}, 3);
  std::remove(path.c_str());
}

// The acceptance-criterion recovery proof: a restarted runtime attaches to
// the published tier and serves identical full-horizon baselines without
// replaying the cold span.
TEST(ColdTierMmapTest, RestartedRuntimeRecoversBaselinesWithoutReplay) {
  const std::string path = TempPath("cold_tier_restart.stb");
  const std::vector<Snapshot> feed = MakeFeed(/*seed=*/77, kTicks);

  Timestamp fold = 0;
  std::vector<std::vector<ColdRow>> rows_before(kVocab);
  std::vector<std::vector<double>> baseline_before;
  {
    FeedRuntimeOptions opts = WindowedHistoryOptions(HistoryMode::kInMemory);
    opts.history_path = path;
    auto runtime = FeedRuntime::Create(MakeSeedCollection(), opts);
    ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
    for (const Snapshot& snap : feed) {
      ASSERT_TRUE(runtime->Tick(Snapshot(snap)).ok());
    }
    const ColdTier* tier = runtime->history();
    ASSERT_NE(tier, nullptr);
    fold = tier->folded_until();
    ASSERT_EQ(fold, runtime->window_start());
    LongHorizonBaseline baseline(tier);
    for (TermId t = 0; t < kVocab; ++t) {
      rows_before[t] = tier->TermRows(t);
      const TermSeries hot = runtime->index().DenseSeries(t);
      for (StreamId s = 0; s < kStreams; ++s) {
        auto model = baseline.ModelFor(t, s);
        baseline_before.push_back(
            BurstinessSeries(hot.StreamRow(s), *model));
      }
    }
  }  // runtime destroyed; only the published file remains

  // Standalone reopen (backtesting shape): bit-identical aggregates.
  {
    auto reopened = ColdTier::Open(kBucket, path);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ(reopened->folded_until(), fold);
    for (TermId t = 0; t < kVocab; ++t) {
      ExpectSameRows(reopened->TermRows(t), rows_before[t], t);
    }
  }

  // Restarted runtime: a fresh collection holding ONLY the hot window (the
  // cold span is never replayed — its timestamps stay empty), attached to
  // the same tier file.
  Collection hot_only = MakeSeedCollection(/*initial_timeline=*/fold);
  for (size_t i = feed.size() - static_cast<size_t>(kWindow);
       i < feed.size(); ++i) {
    ASSERT_TRUE(hot_only.Append(Snapshot(feed[i])).ok());
  }
  FeedRuntimeOptions opts = WindowedHistoryOptions(HistoryMode::kInMemory);
  opts.history_path = path;
  auto restarted = FeedRuntime::Create(std::move(hot_only), opts);
  ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  const ColdTier* tier = restarted->history();
  ASSERT_NE(tier, nullptr);
  EXPECT_EQ(tier->folded_until(), fold);
  EXPECT_EQ(restarted->window_start(), fold);

  LongHorizonBaseline baseline(tier);
  size_t pair_index = 0;
  for (TermId t = 0; t < kVocab; ++t) {
    ExpectSameRows(tier->TermRows(t), rows_before[t], t);
    const TermSeries hot = restarted->index().DenseSeries(t);
    for (StreamId s = 0; s < kStreams; ++s, ++pair_index) {
      auto model = baseline.ModelFor(t, s);
      EXPECT_EQ(BurstinessSeries(hot.StreamRow(s), *model),
                baseline_before[pair_index])
          << "term " << t << " stream " << s;
    }
  }

  // The recovered runtime keeps folding where the old one stopped.
  Rng rng(4321);
  auto stats = restarted->Tick(MakeSnapshot(rng));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->folded_terms, 0u);
  EXPECT_EQ(restarted->history()->folded_until(), fold + 1);
  std::remove(path.c_str());
}

// A failed tier publish (here: the file's directory does not exist yet)
// does not wedge the runtime: its ticks commit, the in-memory tier keeps
// every fold, and the file is a checkpoint that lags until a publish
// succeeds and writes the whole row set.
TEST(ColdTierMmapTest, FailedPublishLeavesLaggingCheckpoint) {
  const std::string dir = TempPath("cold_tier_missing_dir");
  std::filesystem::remove_all(dir);
  const std::string path = dir + "/tier.stb";
  FeedRuntimeOptions opts = WindowedHistoryOptions(HistoryMode::kInMemory);
  opts.history_path = path;
  auto subject = FeedRuntime::Create(MakeSeedCollection(), opts);
  ASSERT_TRUE(subject.ok()) << subject.status().ToString();
  auto twin = FeedRuntime::Create(
      MakeSeedCollection(), WindowedHistoryOptions(HistoryMode::kInMemory));
  ASSERT_TRUE(twin.ok()) << twin.status().ToString();

  const std::vector<Snapshot> feed = MakeFeed(/*seed=*/91, kTicks);
  size_t folding_ticks = 0;
  for (size_t i = 0; i + 1 < feed.size(); ++i) {
    auto stats = subject->Tick(Snapshot(feed[i]));
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    if (stats->folded_terms > 0) ++folding_ticks;
    ASSERT_TRUE(twin->Tick(Snapshot(feed[i])).ok());
  }
  ASSERT_GT(folding_ticks, 0u);
  EXPECT_FALSE(subject->wedged());
  EXPECT_FALSE(std::filesystem::exists(path));
  ExpectIdenticalTiers(subject->history(), twin->history());

  ASSERT_TRUE(std::filesystem::create_directory(dir));
  auto stats = subject->Tick(Snapshot(feed.back()));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_TRUE(stats->evicted);
  EXPECT_FALSE(subject->wedged());
  auto reopened = ColdTier::Open(kBucket, path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectIdenticalTiers(&*reopened, subject->history());
  std::filesystem::remove_all(dir);
}

// Recomputes both checksums of a cold tier file image in place, so a
// mutation reaches the structural checks behind them.
void Reseal(std::string* bytes) {
  if (bytes->size() < 64) return;
  const uint64_t payload = Fnv1a64(bytes->data() + 64, bytes->size() - 64);
  std::memcpy(bytes->data() + 48, &payload, sizeof(payload));
  const uint64_t header = Fnv1a64(bytes->data(), 56);
  std::memcpy(bytes->data() + 56, &header, sizeof(header));
}

template <typename T>
void Poke(std::string* bytes, size_t offset, T value) {
  std::memcpy(bytes->data() + offset, &value, sizeof(value));
}

// Swaps rows `a` and `b` in every column of a cold tier file image.
void SwapRows(std::string* bytes, uint64_t a, uint64_t b) {
  uint64_t num_terms = 0;
  uint64_t num_rows = 0;
  std::memcpy(&num_terms, bytes->data() + 32, sizeof(num_terms));
  std::memcpy(&num_rows, bytes->data() + 40, sizeof(num_rows));
  size_t column = 64 + 8 * (num_terms + 1);
  for (const size_t width : {4, 4, 8, 8, 8}) {
    std::swap_ranges(bytes->begin() + column + a * width,
                     bytes->begin() + column + (a + 1) * width,
                     bytes->begin() + column + b * width);
    column += num_rows * width;
  }
}

// The bucket width a cold tier file image declares (header bytes 16-19), so
// an image of unknown width opens at its own; 1 for an image too short to
// hold the field.
Timestamp FileBucketWidth(const std::string& bytes) {
  uint32_t width = 1;
  if (bytes.size() >= 20) std::memcpy(&width, bytes.data() + 16, sizeof(width));
  return static_cast<Timestamp>(width);
}

// A published tier over SampleFoldInput: terms 0 and 3, streams 0-2.
std::string PublishedSampleTier(const std::string& path) {
  {
    auto tier = ColdTier::Open(/*bucket_width=*/2, path);
    if (!tier.ok()) {
      ADD_FAILURE() << tier.status().ToString();
      return std::string();
    }
    ColdFoldUndo undo;
    auto input = SampleFoldInput();
    tier->FoldEvicted(input, /*cutoff=*/6, &undo);
    EXPECT_TRUE(tier->Publish().ok());
  }
  std::string bytes = ReadFile(path);
  std::remove(path.c_str());
  return bytes;
}

std::string FromHex(std::string_view hex) {
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return bytes;
}

// Format version 1, pinned: the 232 bytes a publish of SampleFoldInput
// (bucket width 2, cutoff 6) writes — header, then the offset index
// {0, 2, 2, 2, 4} and the stream, bucket, sum, max and count columns. The
// other tests write and read with the same code, so a drift of writer and
// reader in step would pass them; this one fails it.
TEST(ColdTierMmapTest, PublishWritesPinnedVersion1Bytes) {
  const std::string pinned = FromHex(
      "535442434f4c4431010000004000000002000000030000000000000006000000"
      "040000000000000004000000000000007ea1d94c935ac8f979e473a12960bce2"
      "0000000000000000020000000000000002000000000000000200000000000000"
      "0400000000000000000000000100000002000000020000000000000001000000"
      "0000000002000000000000000000f03f00000000000014400000000000001040"
      "000000000000f03f000000000000f03f00000000000008400000000000001040"
      "000000000000f03f010000000000000002000000000000000100000000000000"
      "0100000000000000");
  ASSERT_EQ(pinned.size(), 232u);
  EXPECT_EQ(PublishedSampleTier(TempPath("cold_tier_pinned_src.stb")), pinned);

  const std::string path = TempPath("cold_tier_pinned.stb");
  WriteFile(path, pinned);
  auto opened = ColdTier::Open(/*bucket_width=*/2, path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->bucket_width(), 2);
  EXPECT_EQ(opened->covered_start(), 0);
  EXPECT_EQ(opened->folded_until(), 6);
  EXPECT_EQ(opened->stream_upper_bound(), 3u);
  EXPECT_EQ(opened->term_upper_bound(), 4u);
  ExpectSameRows(opened->TermRows(0),
                 {{0, 0, 1.0, 1.0, 1}, {1, 1, 5.0, 3.0, 2}}, 0);
  for (TermId t : {1u, 2u, 4u}) ExpectSameRows(opened->TermRows(t), {}, t);
  ExpectSameRows(opened->TermRows(3),
                 {{2, 0, 4.0, 4.0, 1}, {2, 2, 1.0, 1.0, 1}}, 3);
  std::remove(path.c_str());
}

TEST(ColdTierMmapTest, RejectsTruncatedAndCorruptFiles) {
  const std::string good =
      PublishedSampleTier(TempPath("cold_tier_corrupt_src.stb"));
  ASSERT_GT(good.size(), 64u);
  const std::string victim = TempPath("cold_tier_corrupt.stb");

  auto expect_rejected = [&](std::string bytes, const char* what) {
    WriteFile(victim, bytes);
    // Refused at the image's own width, never silently restarted as an
    // empty tier over a damaged file.
    auto opened = ColdTier::Open(FileBucketWidth(bytes), victim);
    EXPECT_FALSE(opened.ok()) << what;
  };

  expect_rejected(std::string(), "empty file");
  expect_rejected(good.substr(0, 40), "shorter than the header");
  expect_rejected(good.substr(0, good.size() - 8), "truncated payload");
  {
    std::string bad = good;
    bad[16] ^= 0x01;  // bucket_width field: header checksum must catch it
    expect_rejected(bad, "corrupt header byte");
  }
  {
    std::string bad = good;
    bad[good.size() - 1] ^= 0x01;  // payload checksum must catch it
    expect_rejected(bad, "corrupt payload byte");
  }
  {
    std::string bad = good;
    bad[0] = 'X';  // magic
    expect_rejected(bad, "foreign magic");
  }
  {
    // A future format version with a valid checksum is still refused.
    std::string bad = good;
    Poke<uint32_t>(&bad, 8, 2);
    Reseal(&bad);
    expect_rejected(bad, "future version");
  }
  std::remove(victim.c_str());
}

TEST(ColdTierMmapTest, RejectsForgedFieldsBehindValidChecksums) {
  const std::string good = PublishedSampleTier(TempPath("cold_tier_forge.stb"));
  ASSERT_GT(good.size(), 64u);
  const std::string victim = TempPath("cold_tier_forged.stb");
  {
    // 80 bytes: num_terms 1, num_rows 2^59 and offsets {0, 2^59}. The
    // implied size 8·2 + 2^59·32 wraps to the real 16-byte payload.
    std::string forged = good.substr(0, 64) + std::string(16, '\0');
    Poke<uint64_t>(&forged, 32, 1);
    Poke<uint64_t>(&forged, 40, uint64_t{1} << 59);
    Poke<uint64_t>(&forged, 64 + 8, uint64_t{1} << 59);
    Reseal(&forged);
    WriteFile(victim, forged);
    auto opened = ColdTier::Open(/*bucket_width=*/2, victim);
    ASSERT_FALSE(opened.ok()) << "row count wrapping the implied size";
    EXPECT_TRUE(opened.status().IsFailedPrecondition());
  }
  {
    // stream_upper_bound 1 below rows on streams 1 and 2: ReplaySeries
    // sized by it would write past its rows.
    std::string forged = good;
    Poke<uint32_t>(&forged, 20, 1);
    Reseal(&forged);
    WriteFile(victim, forged);
    auto opened = ColdTier::Open(/*bucket_width=*/2, victim);
    ASSERT_FALSE(opened.ok()) << "row stream past stream_upper_bound";
    EXPECT_TRUE(opened.status().IsFailedPrecondition());
  }
  {
    // A bucket width past INT32_MAX would read back as a negative
    // Timestamp.
    std::string forged = good;
    Poke<uint32_t>(&forged, 16, uint32_t{1} << 31);
    Reseal(&forged);
    WriteFile(victim, forged);
    auto opened = ColdTier::Open(/*bucket_width=*/2, victim);
    ASSERT_FALSE(opened.ok()) << "bucket width past INT32_MAX";
    EXPECT_TRUE(opened.status().IsFailedPrecondition());
  }
  {
    // Term 0's two rows, (0, 0) and (1, 1), swapped in every column: a fold
    // binary-searching them could insert a second row for a key it holds.
    std::string forged = good;
    SwapRows(&forged, 0, 1);
    Reseal(&forged);
    WriteFile(victim, forged);
    auto opened = ColdTier::Open(/*bucket_width=*/2, victim);
    ASSERT_FALSE(opened.ok()) << "rows out of (stream, bucket) order";
    EXPECT_TRUE(opened.status().IsFailedPrecondition());
  }
  std::remove(victim.c_str());
}

// Runs every query on every term of `tier`, replaying its whole covered
// bucket range: each must run clean or, for a replay too large to
// materialize, return OutOfRange.
void QueryEveryTerm(const ColdTier& tier) {
  const uint32_t lo = tier.bucket_lower_bound();
  const uint32_t hi = tier.bucket_upper_bound();
  ASSERT_LE(lo, hi);
  volatile double sink = 0.0;  // keeps every query's reads alive
  for (TermId term = 0; term <= tier.term_upper_bound(); ++term) {
    for (const ColdRow& r : tier.TermRows(term)) {
      ASSERT_LT(r.stream, tier.stream_upper_bound());
      sink = sink + r.sum;
    }
    for (StreamId s = 0; s <= tier.stream_upper_bound() && s < 8; ++s) {
      sink = sink + tier.StreamSum(term, s);
    }
    auto series = tier.ReplaySeries(term, lo, hi);
    if (!series.ok()) {
      EXPECT_TRUE(series.status().IsOutOfRange()) << series.status().ToString();
      continue;
    }
    for (StreamId s = 0; s < series->num_streams(); ++s) {
      for (Timestamp t = 0; t < series->timeline_length(); ++t) {
        sink = sink + series->at(s, t);
      }
    }
  }
}

// Bitwise row equality: a mutated sum column may hold NaNs, which == refuses.
void ExpectSameRowBits(const std::vector<ColdRow>& got,
                       const std::vector<ColdRow>& want, TermId term) {
  static_assert(sizeof(ColdRow) == 32, "ColdRow must have no padding");
  ASSERT_EQ(got.size(), want.size()) << "term " << term;
  if (got.empty()) return;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(ColdRow)),
            0)
      << "term " << term;
}

// Every row, watermark and bound of `b` equals `a`'s, bit for bit.
void ExpectSameTierBits(const ColdTier& a, const ColdTier& b) {
  EXPECT_EQ(a.bucket_width(), b.bucket_width());
  EXPECT_EQ(a.covered_start(), b.covered_start());
  EXPECT_EQ(a.folded_until(), b.folded_until());
  EXPECT_EQ(a.stream_upper_bound(), b.stream_upper_bound());
  ASSERT_EQ(a.term_upper_bound(), b.term_upper_bound());
  for (TermId t = 0; t < a.term_upper_bound(); ++t) {
    ExpectSameRowBits(b.TermRows(t), a.TermRows(t), t);
  }
}

// Reopens `bytes` as a live tier at `copy` (at the file's own bucket
// width) and drives the mutating calls on it: AttachAt below, at
// and above folded_until() returns OK or InvalidArgument; a fold then its
// rollback restores every row bit for bit; a publish reopens equal to the
// in-memory rows.
void ExerciseReopenedTier(const std::string& bytes, Timestamp bucket_width,
                          const std::string& copy) {
  WriteFile(copy, bytes);
  auto tier = ColdTier::Open(bucket_width, copy);
  ASSERT_TRUE(tier.ok()) << tier.status().ToString();
  const int64_t watermark = tier->folded_until();
  for (const int64_t start : {watermark - 1, watermark, watermark + 1}) {
    if (start > INT32_MAX) continue;
    const Status attached = tier->AttachAt(static_cast<Timestamp>(start));
    EXPECT_TRUE(attached.ok() || attached.IsInvalidArgument())
        << attached.ToString();
  }

  const Timestamp from = tier->folded_until();
  if (from < INT32_MAX) {  // at INT32_MAX no later cutoff exists
    const auto cutoff = static_cast<Timestamp>(
        std::min<int64_t>(int64_t{from} + 4, INT32_MAX));
    std::vector<TermId> terms = {0, 3, tier->term_upper_bound()};
    std::sort(terms.begin(), terms.end());
    terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
    std::vector<std::pair<TermId, std::vector<TermPosting>>> removed;
    for (const TermId term : terms) {
      std::vector<TermPosting> postings;
      for (StreamId s = 0; s < 3; ++s) {
        for (Timestamp t = from; t < cutoff; ++t) {
          postings.push_back({s, t, 1.0 + (t % 3)});
        }
      }
      removed.emplace_back(term, std::move(postings));
    }
    const ColdTier before = *tier;
    ColdFoldUndo undo;
    EXPECT_EQ(tier->FoldEvicted(removed, cutoff, &undo), terms.size());
    EXPECT_EQ(tier->folded_until(), cutoff);
    tier->RollbackFold(std::move(undo));
    ExpectSameTierBits(before, *tier);
  }

  ASSERT_TRUE(tier->Publish().ok());
  auto reopened = ColdTier::Open(bucket_width, copy);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectSameTierBits(*tier, *reopened);
  std::remove(copy.c_str());
}

// Seeded mutation fuzz of the loader: every mutated image either fails to
// open or yields a tier whose queries all run clean, and that also opens as
// a live tier whose attach, fold, rollback and publish behave (under
// ASan/UBSan in the sanitizer build).
TEST(ColdTierMmapTest, MutatedFilesFailToOpenOrQueryClean) {
  const std::string good = PublishedSampleTier(TempPath("cold_tier_fuzz.stb"));
  ASSERT_GT(good.size(), 64u);
  const std::string victim = TempPath("cold_tier_fuzzed.stb");
  const std::string copy = TempPath("cold_tier_fuzzed_live.stb");
  {
    // Bucket width 1 and folded_until near INT32_MAX: the header is
    // consistent, so the tier opens, but a replay of its covered buckets
    // would need about 2^31 doubles per stream.
    std::string forged = good;
    Poke<uint32_t>(&forged, 16, 1);
    Poke<int32_t>(&forged, 24, 0);
    Poke<int32_t>(&forged, 28, INT32_MAX - 1);
    Reseal(&forged);
    WriteFile(victim, forged);
    auto tier = ColdTier::Open(FileBucketWidth(forged), victim);
    ASSERT_TRUE(tier.ok()) << tier.status().ToString();
    EXPECT_TRUE(tier->ReplaySeries(0, tier->bucket_lower_bound(),
                                   tier->bucket_upper_bound())
                    .status()
                    .IsOutOfRange());
    QueryEveryTerm(*tier);
    ExerciseReopenedTier(forged, tier->bucket_width(), copy);
  }
  const uint64_t u64s[] = {0, 1, 2, 3, 4, 5, 7, 64, uint64_t{1} << 32,
                           uint64_t{1} << 59, (uint64_t{1} << 61) - 1,
                           UINT64_MAX};
  const uint32_t u32s[] = {0, 1, 2, 3, 4, 5, 1u << 31, UINT32_MAX};
  const int32_t i32s[] = {INT32_MIN, -1, 0, 1, 2, 5, 6, 7, INT32_MAX};
  Rng rng(2024);
  size_t opened_ok = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    std::string bytes = good;
    switch (rng.NextUint64(9)) {
      case 0:  // flip a few bytes anywhere
        for (uint64_t f = 1 + rng.NextUint64(3); f > 0; --f) {
          bytes[rng.NextUint64(bytes.size())] ^=
              static_cast<char>(1 + rng.NextUint64(255));
        }
        break;
      case 1:
        Poke<uint64_t>(&bytes, 32,
                       rng.Bernoulli(0.8) ? u64s[rng.NextUint64(12)]
                                          : rng.NextUint64());
        break;
      case 2:
        Poke<uint64_t>(&bytes, 40,
                       rng.Bernoulli(0.8) ? u64s[rng.NextUint64(12)]
                                          : rng.NextUint64());
        break;
      case 3:
        Poke<uint32_t>(&bytes, 20, u32s[rng.NextUint64(8)]);
        break;
      case 4:
        Poke<int32_t>(&bytes, 24, i32s[rng.NextUint64(9)]);
        break;
      case 5:
        Poke<int32_t>(&bytes, 28, i32s[rng.NextUint64(9)]);
        break;
      case 6:
        Poke<uint32_t>(&bytes, 16, u32s[rng.NextUint64(8)]);
        break;
      case 7:
        bytes.resize(rng.NextUint64(bytes.size()));
        break;
      default:
        for (uint64_t n = 1 + rng.NextUint64(64); n > 0; --n) {
          bytes.push_back(static_cast<char>(rng.NextUint64(256)));
        }
        break;
    }
    Reseal(&bytes);
    WriteFile(victim, bytes);
    auto tier = ColdTier::Open(FileBucketWidth(bytes), victim);
    if (!tier.ok()) continue;
    ++opened_ok;
    SCOPED_TRACE(::testing::Message() << "iteration " << iter);
    QueryEveryTerm(*tier);
    ExerciseReopenedTier(bytes, tier->bucket_width(), copy);
  }
  // Rewrites that happen to restore a field's value, and flips confined to
  // the sum/max/count columns, leave valid images: some opens succeed.
  EXPECT_GT(opened_ok, 0u);
  std::remove(victim.c_str());
}

TEST(ColdTierMmapTest, RejectsBucketWidthMismatch) {
  const std::string path = TempPath("cold_tier_width.stb");
  {
    auto tier = ColdTier::Open(/*bucket_width=*/2, path);
    ASSERT_TRUE(tier.ok());
    ColdFoldUndo undo;
    auto input = SampleFoldInput();
    tier->FoldEvicted(input, /*cutoff=*/6, &undo);
    ASSERT_TRUE(tier->Publish().ok());
  }
  auto mismatched = ColdTier::Open(/*bucket_width=*/3, path);
  EXPECT_FALSE(mismatched.ok());
  EXPECT_TRUE(mismatched.status().IsInvalidArgument());
  std::remove(path.c_str());
}

// -------------------------------------------------------------- ReplayRange

TEST(ReplayTest, ReplayRangeFindsStoredBurst) {
  auto tier = ColdTier::Open(/*bucket_width=*/4, /*path=*/"");
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
