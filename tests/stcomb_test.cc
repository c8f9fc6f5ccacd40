// Tests for STComb (core/stcomb).

#include "stburst/core/stcomb.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "stburst/common/random.h"

namespace stburst {
namespace {

StreamInterval SI(StreamId s, Timestamp a, Timestamp b, double w) {
  return StreamInterval{s, Interval{a, b}, w};
}

TEST(StComb, MineFromIntervalsSingleClique) {
  StComb miner;
  auto patterns = miner.MineFromIntervals({
      SI(0, 2, 9, 0.8),
      SI(1, 4, 10, 0.4),
      SI(2, 3, 8, 0.3),
      SI(3, 5, 9, 0.6),
  });
  ASSERT_EQ(patterns.size(), 1u);
  EXPECT_NEAR(patterns[0].score, 2.1, 1e-12);
  EXPECT_EQ(patterns[0].streams, (std::vector<StreamId>{0, 1, 2, 3}));
  // Common segment of [2,9],[4,10],[3,8],[5,9] is [5,8].
  EXPECT_EQ(patterns[0].timeframe, (Interval{5, 8}));
}

TEST(StComb, PaperFigure2Example) {
  // Figure 2 of the paper: I1..I7 over streams D1..D4. The highest-scoring
  // subset is {I1, I3, I5, I6} (2.1, common segment [5, 8]); with those
  // retired, {I2, I4, I7} (1.3, [14, 17]) is the next clique.
  StComb miner;
  auto patterns = miner.MineFromIntervals({
      SI(1, 2, 9, 0.8), SI(1, 12, 18, 0.5), SI(2, 4, 10, 0.4),
      SI(2, 13, 19, 0.6), SI(3, 3, 8, 0.3), SI(4, 5, 9, 0.6),
      SI(4, 14, 17, 0.2),
  });
  ASSERT_EQ(patterns.size(), 2u);
  EXPECT_EQ(patterns[0].streams, (std::vector<StreamId>{1, 2, 3, 4}));
  EXPECT_EQ(patterns[0].timeframe, (Interval{5, 8}));
  EXPECT_NEAR(patterns[0].score, 2.1, 1e-12);
  EXPECT_EQ(patterns[1].streams, (std::vector<StreamId>{1, 2, 4}));
  EXPECT_EQ(patterns[1].timeframe, (Interval{14, 17}));
  EXPECT_NEAR(patterns[1].score, 1.3, 1e-12);
}

TEST(StComb, IteratedCliquesAreStreamDisjointPerRound) {
  // Two well-separated groups of overlapping intervals.
  StComb miner;
  auto patterns = miner.MineFromIntervals({
      SI(0, 0, 5, 1.0),
      SI(1, 2, 6, 1.0),
      SI(2, 20, 25, 0.7),
      SI(3, 22, 28, 0.7),
  });
  ASSERT_EQ(patterns.size(), 2u);
  EXPECT_NEAR(patterns[0].score, 2.0, 1e-12);
  EXPECT_EQ(patterns[0].streams, (std::vector<StreamId>{0, 1}));
  EXPECT_NEAR(patterns[1].score, 1.4, 1e-12);
  EXPECT_EQ(patterns[1].streams, (std::vector<StreamId>{2, 3}));
}

TEST(StComb, MaxPatternsCap) {
  StCombOptions opts;
  opts.max_patterns = 1;
  StComb miner(opts);
  auto patterns = miner.MineFromIntervals({
      SI(0, 0, 5, 1.0),
      SI(1, 20, 25, 0.7),
  });
  EXPECT_EQ(patterns.size(), 1u);
}

TEST(StComb, MinStreamsFiltersSingletons) {
  StCombOptions opts;
  opts.min_streams = 2;
  StComb miner(opts);
  auto patterns = miner.MineFromIntervals({
      SI(0, 0, 5, 1.0),
      SI(1, 3, 8, 0.5),
      SI(2, 20, 22, 2.0),  // lone burst, filtered
  });
  ASSERT_EQ(patterns.size(), 1u);
  EXPECT_EQ(patterns[0].streams.size(), 2u);
}

TEST(StComb, EmptyInput) {
  StComb miner;
  EXPECT_TRUE(miner.MineFromIntervals({}).empty());
}

TermSeries MakeSeriesWithJointBurst() {
  // 6 streams, 60 timestamps; streams 1, 2, 3 burst jointly on [20, 29].
  TermSeries series(6, 60);
  Rng rng(5);
  for (StreamId s = 0; s < 6; ++s) {
    for (Timestamp t = 0; t < 60; ++t) {
      series.set(s, t, 0.8 + 0.4 * rng.NextDouble());
    }
  }
  for (StreamId s = 1; s <= 3; ++s) {
    for (Timestamp t = 20; t < 30; ++t) series.add(s, t, 15.0);
  }
  return series;
}

TEST(StComb, ExtractStreamIntervalsFindsBurstyStreams) {
  TermSeries series = MakeSeriesWithJointBurst();
  StCombOptions opts;
  opts.min_interval_burstiness = 0.2;
  StComb miner(opts);
  auto intervals = miner.ExtractStreamIntervals(series);
  ASSERT_EQ(intervals.size(), 3u);
  for (const auto& si : intervals) {
    EXPECT_GE(si.stream, 1u);
    EXPECT_LE(si.stream, 3u);
    EXPECT_GT(si.burstiness, 0.2);
    // The detected interval must cover the bulk of the planted burst.
    EXPECT_LE(si.interval.start, 22);
    EXPECT_GE(si.interval.end, 27);
  }
}

TEST(StComb, MinePatternsEndToEnd) {
  TermSeries series = MakeSeriesWithJointBurst();
  StCombOptions opts;
  opts.min_interval_burstiness = 0.2;
  StComb miner(opts);
  auto patterns = miner.MinePatterns(series);
  ASSERT_GE(patterns.size(), 1u);
  const auto& top = patterns[0];
  EXPECT_EQ(top.streams, (std::vector<StreamId>{1, 2, 3}));
  EXPECT_TRUE(top.timeframe.Intersects(Interval{20, 29}));
  // Patterns are sorted by descending score.
  for (size_t i = 1; i < patterns.size(); ++i) {
    EXPECT_GE(patterns[i - 1].score, patterns[i].score);
  }
}

TEST(StComb, PatternsScoreEqualsMemberSum) {
  Rng rng(11);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<StreamInterval> intervals;
    size_t streams = 2 + rng.NextUint64(6);
    for (StreamId s = 0; s < streams; ++s) {
      // A few non-overlapping intervals per stream.
      Timestamp t = 0;
      while (t < 80) {
        Timestamp a = t + static_cast<Timestamp>(rng.NextUint64(10));
        Timestamp b = a + static_cast<Timestamp>(rng.NextUint64(12));
        if (b >= 100) break;
        intervals.push_back(SI(s, a, b, rng.Uniform(0.05, 1.0)));
        t = b + 2;
      }
    }
    StComb miner;
    auto patterns = miner.MineFromIntervals(intervals);
    double total_pattern_score = 0.0;
    for (const auto& p : patterns) {
      total_pattern_score += p.score;
      EXPECT_TRUE(p.timeframe.valid());
      // Streams unique within a pattern.
      for (size_t i = 1; i < p.streams.size(); ++i) {
        EXPECT_LT(p.streams[i - 1], p.streams[i]);
      }
    }
    // Every interval is consumed at most once across rounds.
    double total_interval_score = 0.0;
    for (const auto& si : intervals) total_interval_score += si.burstiness;
    EXPECT_LE(total_pattern_score, total_interval_score + 1e-9);
  }
}

// Brute-force reference for StComb::MineFromIntervals. A clique of an
// interval graph is the set of intervals one timestamp stabs (Helly in 1-D,
// Prop. 1), so each round scans every integer stab over the live pool's
// span, takes the first stab of largest live weight, and reports the
// intervals it stabs, folded in pool order. Same-stream intervals must be
// disjoint, so a stab holds at most one interval per stream.
std::vector<CombinatorialPattern> ReferenceCliques(
    std::vector<StreamInterval> pool, const StCombOptions& options) {
  auto live = [](const StreamInterval& si) {
    return si.burstiness > 0.0 && si.interval.valid();
  };
  std::vector<CombinatorialPattern> patterns;
  while (patterns.size() < options.max_patterns) {
    Timestamp lo = std::numeric_limits<Timestamp>::max();
    Timestamp hi = std::numeric_limits<Timestamp>::min();
    for (const StreamInterval& si : pool) {
      if (!live(si)) continue;
      lo = std::min(lo, si.interval.start);
      hi = std::max(hi, si.interval.end);
    }
    double best_weight = 0.0;
    Timestamp best_stab = 0;
    for (Timestamp t = lo; t <= hi; ++t) {
      double weight = 0.0;
      for (const StreamInterval& si : pool) {
        if (live(si) && si.interval.Contains(t)) weight += si.burstiness;
      }
      if (weight > best_weight) {
        best_weight = weight;
        best_stab = t;
      }
    }
    if (best_weight <= 0.0) break;

    CombinatorialPattern p;
    for (StreamInterval& si : pool) {
      if (!live(si) || !si.interval.Contains(best_stab)) continue;
      p.score += si.burstiness;
      p.timeframe = p.streams.empty() ? si.interval
                                      : p.timeframe.Intersect(si.interval);
      p.streams.push_back(si.stream);
      si.burstiness = 0.0;  // retired: no later round reuses it
    }
    std::sort(p.streams.begin(), p.streams.end());
    if (p.streams.size() >= options.min_streams) {
      patterns.push_back(std::move(p));
    }
  }
  std::sort(patterns.begin(), patterns.end(),
            [](const CombinatorialPattern& a, const CombinatorialPattern& b) {
              return a.score > b.score;
            });
  return patterns;
}

TEST(StCombOracle, MineFromIntervalsMatchesBruteForceCliques) {
  Rng rng(22);
  for (int trial = 0; trial < 1000; ++trial) {
    // Endpoints drawn from a few anchors shared by every stream make
    // cross-stream coincidence and shared endpoints common; free endpoints
    // give nesting and partial overlap.
    std::vector<Timestamp> anchors(6);
    for (Timestamp& a : anchors) {
      a = static_cast<Timestamp>(rng.UniformInt(0, 30));
    }
    auto endpoint = [&](Timestamp at_least) {
      const Timestamp a = anchors[rng.NextUint64(anchors.size())];
      if (a >= at_least && rng.Bernoulli(0.6)) return a;
      return static_cast<Timestamp>(at_least + rng.UniformInt(0, 6));
    };
    // Weights on a 1/64 grid: every partial sum is exact, so the sweep's
    // running sums and the reference's per-stab sums agree bit for bit.
    const bool equal_weights = trial % 5 == 0;
    const double shared_weight =
        static_cast<double>(rng.UniformInt(1, 128)) / 64.0;

    std::vector<StreamInterval> pool;
    const StreamId streams = static_cast<StreamId>(1 + rng.NextUint64(10));
    for (StreamId s = 0; s < streams; ++s) {
      // Disjoint per stream: each start is past the previous end; a start
      // exactly there gives a touching [a,b], [b+1,c] run.
      Timestamp cursor = static_cast<Timestamp>(rng.UniformInt(0, 8));
      for (int64_t n = rng.UniformInt(0, 4); n > 0; --n) {
        const Timestamp start = rng.Bernoulli(0.3) ? cursor : endpoint(cursor);
        const Timestamp end = endpoint(start);
        double w = equal_weights
                       ? shared_weight
                       : static_cast<double>(rng.UniformInt(1, 192)) / 64.0;
        if (!equal_weights && rng.Bernoulli(0.1)) {
          w = rng.Bernoulli(0.5) ? -w : 0.0;  // must be ignored
        }
        pool.push_back(SI(s, start, end, w));
        cursor = end + 1;
      }
    }
    rng.Shuffle(&pool);

    StCombOptions opts;
    opts.min_streams = trial % 2 == 0 ? 1 : 2;
    if (trial % 4 >= 2) opts.max_patterns = 2;
    const auto got = StComb(opts).MineFromIntervals(pool);
    const auto want = ReferenceCliques(pool, opts);
    ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].streams, want[i].streams)
          << "trial " << trial << " pattern " << i;
      EXPECT_EQ(got[i].timeframe, want[i].timeframe)
          << "trial " << trial << " pattern " << i;
      EXPECT_EQ(got[i].score, want[i].score)
          << "trial " << trial << " pattern " << i;
    }
  }
}

}  // namespace
}  // namespace stburst
