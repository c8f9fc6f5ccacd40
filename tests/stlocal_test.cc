// Tests for STLocal (core/stlocal, paper Algorithm 2).

#include "stburst/core/stlocal.h"

#include <gtest/gtest.h>

#include "stburst/common/random.h"

namespace stburst {
namespace {

std::vector<Point2D> LinePositions(size_t n, double spacing = 10.0) {
  std::vector<Point2D> pts(n);
  for (size_t i = 0; i < n; ++i) pts[i] = Point2D{spacing * i, 0.0};
  return pts;
}

SpatialBinning LineBinning(size_t n, double spacing = 10.0) {
  return SpatialBinning::Create(LinePositions(n, spacing)).value();
}

TEST(StLocal, RejectsWrongSnapshotSize) {
  const SpatialBinning binning = LineBinning(3);
  StLocal miner(binning);
  EXPECT_TRUE(miner.ProcessSnapshot({1.0}).IsInvalidArgument());
}

TEST(StLocal, QuietStreamYieldsNothing) {
  const SpatialBinning binning = LineBinning(4);
  StLocal miner(binning);
  for (int t = 0; t < 20; ++t) {
    ASSERT_TRUE(miner.ProcessSnapshot({-0.1, -0.2, -0.1, -0.3}).ok());
  }
  EXPECT_TRUE(miner.Finish().empty());
  EXPECT_EQ(miner.current_time(), 20);
}

TEST(StLocal, SingleRegionSingleWindow) {
  // Streams 0 and 1 (adjacent) burst together during [5, 9].
  const SpatialBinning binning = LineBinning(4, 1.0);
  StLocal miner(binning);
  for (int t = 0; t < 20; ++t) {
    double hot = (t >= 5 && t <= 9) ? 2.0 : -0.5;
    ASSERT_TRUE(miner.ProcessSnapshot({hot, hot, -0.5, -0.5}).ok());
  }
  auto windows = miner.Finish();
  ASSERT_GE(windows.size(), 1u);
  const auto& top = windows[0];
  EXPECT_EQ(top.streams, (std::vector<StreamId>{0, 1}));
  EXPECT_EQ(top.timeframe, (Interval{5, 9}));
  EXPECT_NEAR(top.score, 2.0 * 2.0 * 5, 1e-9);  // 2 streams x 2.0 x 5 steps
}

TEST(StLocal, WindowScoreIsSumOfRScores) {
  const SpatialBinning binning = LineBinning(2, 1.0);
  StLocal miner(binning);
  std::vector<double> scores = {1.0, 0.5, 2.0};  // varying burst strengths
  for (double s : scores) {
    ASSERT_TRUE(miner.ProcessSnapshot({s, s}).ok());
  }
  auto windows = miner.Finish();
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_NEAR(windows[0].score, 2.0 * (1.0 + 0.5 + 2.0), 1e-9);
  EXPECT_EQ(windows[0].timeframe, (Interval{0, 2}));
}

TEST(StLocal, SequencePrunedWhenTotalGoesNegative) {
  const SpatialBinning binning = LineBinning(2, 1.0);
  StLocal miner(binning);
  // Burst, then a long negative tail that drives S.total below zero.
  ASSERT_TRUE(miner.ProcessSnapshot({1.0, 1.0}).ok());
  EXPECT_EQ(miner.num_live_sequences(), 1u);
  for (int t = 0; t < 10; ++t) {
    ASSERT_TRUE(miner.ProcessSnapshot({-0.5, -0.5}).ok());
  }
  EXPECT_EQ(miner.num_live_sequences(), 0u);  // retired by line 11-12
  // The maximal window from before the decline is preserved.
  auto windows = miner.Finish();
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].timeframe, (Interval{0, 0}));
  EXPECT_NEAR(windows[0].score, 2.0, 1e-9);
}

TEST(StLocal, RegionReappearingExtendsItsSequence) {
  // The same region bursts in two phases separated by a mild dip; the
  // maximal window spans both phases when the dip is shallow.
  const SpatialBinning binning = LineBinning(2, 1.0);
  StLocal miner(binning);
  for (int t = 0; t < 3; ++t) ASSERT_TRUE(miner.ProcessSnapshot({2.0, 2.0}).ok());
  ASSERT_TRUE(miner.ProcessSnapshot({-0.2, -0.2}).ok());
  for (int t = 0; t < 3; ++t) ASSERT_TRUE(miner.ProcessSnapshot({2.0, 2.0}).ok());
  auto windows = miner.Finish();
  ASSERT_GE(windows.size(), 1u);
  EXPECT_EQ(windows[0].timeframe, (Interval{0, 6}));
  EXPECT_EQ(miner.current_time(), 7);
}

TEST(StLocal, DistinctRegionsTrackedIndependently) {
  // Two far-apart regions bursting at different times.
  const SpatialBinning binning = LineBinning(4, 100.0);
  StLocal miner(binning);
  for (int t = 0; t < 30; ++t) {
    double left = (t >= 2 && t <= 6) ? 1.5 : -0.4;
    double right = (t >= 15 && t <= 22) ? 1.0 : -0.4;
    ASSERT_TRUE(miner.ProcessSnapshot({left, left, right, right}).ok());
  }
  auto windows = miner.Finish();
  ASSERT_GE(windows.size(), 2u);
  bool saw_left = false, saw_right = false;
  for (const auto& w : windows) {
    if (w.streams == std::vector<StreamId>{0, 1}) {
      EXPECT_EQ(w.timeframe, (Interval{2, 6}));
      saw_left = true;
    }
    if (w.streams == std::vector<StreamId>{2, 3}) {
      EXPECT_EQ(w.timeframe, (Interval{15, 22}));
      saw_right = true;
    }
  }
  EXPECT_TRUE(saw_left);
  EXPECT_TRUE(saw_right);
}

TEST(StLocal, OpenWindowCountsAreBounded) {
  Rng rng(3);
  size_t n = 12;
  const SpatialBinning binning = LineBinning(n, 5.0);
  StLocal miner(binning);
  for (int t = 0; t < 60; ++t) {
    std::vector<double> b(n);
    for (auto& v : b) v = rng.Uniform(-1.0, 1.0);
    ASSERT_TRUE(miner.ProcessSnapshot(b).ok());
    EXPECT_LE(miner.num_live_sequences(),
              n * static_cast<size_t>(miner.current_time()));
    EXPECT_GE(miner.num_open_windows(), 0u);
  }
}

TEST(MineRegionalPatterns, EndToEndWithExpectedModel) {
  // 5 streams on a line; streams 1-2 burst on [30, 39] over noisy background.
  Rng rng(9);
  TermSeries series(5, 80);
  for (StreamId s = 0; s < 5; ++s) {
    for (Timestamp t = 0; t < 80; ++t) {
      series.set(s, t, 1.0 + 0.2 * rng.NextDouble());
    }
  }
  for (StreamId s = 1; s <= 2; ++s) {
    for (Timestamp t = 30; t < 40; ++t) series.add(s, t, 8.0);
  }
  auto positions = LinePositions(5, 1.0);
  auto windows = MineRegionalPatterns(
      series, positions, [] { return std::make_unique<GlobalMeanModel>(); });
  ASSERT_TRUE(windows.ok());
  ASSERT_GE(windows->size(), 1u);
  const auto& top = (*windows)[0];
  // The top window covers the bursting streams and overlaps the burst.
  for (StreamId s : {StreamId{1}, StreamId{2}}) {
    EXPECT_TRUE(std::binary_search(top.streams.begin(), top.streams.end(), s));
  }
  EXPECT_TRUE(top.timeframe.Intersects(Interval{30, 39}));
}

TEST(MineRegionalPatterns, SharedModelStaysBitIdentical) {
  // The batch miner's shape: one model, built once, scores every term over
  // one binning, and every window is bit-identical to a standalone call
  // that builds its own model and binning. The standalone form calls its
  // factory once per call, whatever the stream count.
  Rng rng(41);
  const size_t n = 7;
  const Timestamp timeline = 40;
  const size_t kTerms = 5;
  auto positions = LinePositions(n, 2.0);
  const SpatialBinning binning = SpatialBinning::Create(positions).value();

  std::vector<TermSeries> terms;
  for (size_t term = 0; term < kTerms; ++term) {
    TermSeries series(n, timeline);
    for (StreamId s = 0; s < n; ++s) {
      for (Timestamp t = 0; t < timeline; ++t) {
        series.set(s, t, rng.Exponential(1.3));
      }
    }
    const StreamId hot = static_cast<StreamId>(term % (n - 1));
    for (StreamId s = hot; s <= hot + 1; ++s) {
      for (Timestamp t = 8; t < 16; ++t) series.add(s, t, 5.0);
    }
    terms.push_back(std::move(series));
  }

  size_t fresh_allocs = 0;
  auto fresh_factory = [&fresh_allocs] {
    ++fresh_allocs;
    return std::make_unique<GlobalMeanModel>();
  };

  const GlobalMeanModel shared;
  for (size_t term = 0; term < kTerms; ++term) {
    auto with_shared =
        MineRegionalPatterns(terms[term], binning, shared, StLocalOptions{});
    auto standalone =
        MineRegionalPatterns(terms[term], positions, fresh_factory);
    ASSERT_TRUE(with_shared.ok());
    ASSERT_TRUE(standalone.ok());
    ASSERT_EQ(with_shared->size(), standalone->size()) << "term " << term;
    for (size_t i = 0; i < with_shared->size(); ++i) {
      EXPECT_EQ((*with_shared)[i].region, (*standalone)[i].region);
      EXPECT_EQ((*with_shared)[i].streams, (*standalone)[i].streams);
      EXPECT_EQ((*with_shared)[i].timeframe, (*standalone)[i].timeframe);
      EXPECT_EQ((*with_shared)[i].score, (*standalone)[i].score);
    }
  }
  EXPECT_EQ(fresh_allocs, kTerms);  // one model per call
}

TEST(MineRegionalPatterns, MismatchedPositionsRejected) {
  TermSeries series(3, 10);
  auto factory = [] { return std::make_unique<GlobalMeanModel>(); };
  auto result = MineRegionalPatterns(series, LinePositions(2), factory);
  EXPECT_TRUE(result.status().IsInvalidArgument());
  result = MineRegionalPatterns(series, LineBinning(2), GlobalMeanModel(),
                                StLocalOptions{});
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

}  // namespace
}  // namespace stburst
