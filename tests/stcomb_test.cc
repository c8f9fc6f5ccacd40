// Tests for STComb (core/stcomb).

#include "stburst/core/stcomb.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

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

// The fixed-point images MineFromIntervals compares stabs on: the largest
// live weight is below 2^e and the m live weights are scaled by 2^shift,
// shift = min(44, 62 - ceil(log2 m)) - e, then rounded to the nearest
// integer, with a positive weight never rounding below 1. Indexed like
// `pool`; 0 for intervals that take no part.
std::vector<int64_t> ReferenceImages(const std::vector<StreamInterval>& pool) {
  auto live = [](const StreamInterval& si) {
    return si.burstiness > 0.0 && std::isfinite(si.burstiness) &&
           si.interval.valid();
  };
  double max_weight = 0.0;
  uint64_t m = 0;
  for (const StreamInterval& si : pool) {
    if (!live(si)) continue;
    max_weight = std::max(max_weight, si.burstiness);
    ++m;
  }
  int e = 0;
  std::frexp(max_weight, &e);
  int ceil_log2 = 0;
  while ((uint64_t{1} << ceil_log2) < m) ++ceil_log2;
  std::vector<int64_t> images(pool.size(), 0);
  for (size_t i = 0; i < pool.size(); ++i) {
    if (!live(pool[i])) continue;
    const double scaled =
        std::ldexp(pool[i].burstiness, std::min(44, 62 - ceil_log2) - e);
    images[i] = std::max<int64_t>(1, std::llround(scaled));
  }
  return images;
}

// Brute-force reference for StComb::MineFromIntervals. A clique of an
// interval graph is the set of intervals one timestamp stabs (Helly in 1-D,
// Prop. 1), so each round scans the stabs over the live pool and takes the
// first of largest live weight, summed exactly on ReferenceImages. The live
// weight rises only where an interval starts, so the first maximum is at a
// start and only starts are scanned (every integer stab would give the same
// answer, and far-apart timestamps stay cheap). The round reports the
// intervals the stab holds, folded in stream order; same-stream intervals
// must be disjoint, so a stab holds at most one interval per stream.
// Patterns are ordered by score descending, then timeframe, then streams.
std::vector<CombinatorialPattern> ReferenceCliques(
    std::vector<StreamInterval> pool, const StCombOptions& options) {
  std::vector<int64_t> images = ReferenceImages(pool);
  auto live = [&](size_t i) { return images[i] > 0; };
  std::vector<CombinatorialPattern> patterns;
  while (patterns.size() < options.max_patterns) {
    int64_t best_weight = 0;
    Timestamp best_stab = 0;
    for (size_t s = 0; s < pool.size(); ++s) {
      if (!live(s)) continue;
      const Timestamp t = pool[s].interval.start;
      int64_t weight = 0;
      for (size_t i = 0; i < pool.size(); ++i) {
        if (live(i) && pool[i].interval.Contains(t)) weight += images[i];
      }
      if (weight > best_weight || (weight == best_weight && t < best_stab)) {
        best_weight = weight;
        best_stab = t;
      }
    }
    if (best_weight <= 0) break;

    std::vector<size_t> members;
    for (size_t i = 0; i < pool.size(); ++i) {
      if (live(i) && pool[i].interval.Contains(best_stab)) members.push_back(i);
    }
    std::sort(members.begin(), members.end(), [&](size_t a, size_t b) {
      return pool[a].stream < pool[b].stream;
    });
    CombinatorialPattern p;
    for (size_t i : members) {
      p.score += pool[i].burstiness;
      p.timeframe = p.streams.empty() ? pool[i].interval
                                      : p.timeframe.Intersect(pool[i].interval);
      p.streams.push_back(pool[i].stream);
      images[i] = 0;  // retired: no later round reuses it
    }
    if (p.streams.size() >= options.min_streams) {
      patterns.push_back(std::move(p));
    }
  }
  std::sort(patterns.begin(), patterns.end(),
            [](const CombinatorialPattern& a, const CombinatorialPattern& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.timeframe.start != b.timeframe.start) {
                return a.timeframe.start < b.timeframe.start;
              }
              if (a.timeframe.end != b.timeframe.end) {
                return a.timeframe.end < b.timeframe.end;
              }
              return a.streams < b.streams;
            });
  return patterns;
}

void ExpectSamePatterns(const std::vector<CombinatorialPattern>& got,
                        const std::vector<CombinatorialPattern>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].streams, want[i].streams) << "pattern " << i;
    EXPECT_EQ(got[i].timeframe, want[i].timeframe) << "pattern " << i;
    EXPECT_EQ(got[i].score, want[i].score) << "pattern " << i;
  }
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

// A random pool meeting the precondition (disjoint intervals per stream)
// over [0, 60), with weights drawn by `weight`.
template <typename Weight>
std::vector<StreamInterval> RandomPool(Rng& rng, Weight weight) {
  std::vector<StreamInterval> pool;
  const StreamId streams = static_cast<StreamId>(1 + rng.NextUint64(12));
  for (StreamId s = 0; s < streams; ++s) {
    Timestamp cursor = static_cast<Timestamp>(rng.UniformInt(0, 8));
    for (int64_t n = rng.UniformInt(0, 5); n > 0 && cursor < 55; --n) {
      const Timestamp start =
          cursor + static_cast<Timestamp>(rng.UniformInt(0, 4));
      const Timestamp end =
          start + static_cast<Timestamp>(rng.UniformInt(0, 6));
      pool.push_back(SI(s, start, end, weight()));
      cursor = end + 1;
    }
  }
  rng.Shuffle(&pool);
  return pool;
}

TEST(StCombOracle, OffGridWeightsMatchIntegerReference) {
  Rng rng(28);
  for (int trial = 0; trial < 600; ++trial) {
    // Uniform doubles (no grid), Kleinberg-scale scores around 1e4, and a
    // few values shared across streams so that near-ties are common.
    const double shared = rng.Uniform(0.05, 1.0);
    auto weight = [&] {
      switch (trial % 3) {
        case 0:
          return rng.Uniform(0.01, 1.0);
        case 1:
          return rng.Uniform(5e3, 2e4);
        default:
          return rng.Bernoulli(0.5) ? shared : shared / 3.0;
      }
    };
    const std::vector<StreamInterval> pool = RandomPool(rng, weight);
    StCombOptions opts;
    opts.min_streams = trial % 2 == 0 ? 1 : 2;
    if (trial % 4 >= 2) opts.max_patterns = 1 + rng.NextUint64(3);
    SCOPED_TRACE("trial " + std::to_string(trial));
    ExpectSamePatterns(StComb(opts).MineFromIntervals(pool),
                       ReferenceCliques(pool, opts));
  }
}

TEST(StCombOracle, NearTiesFollowTheIntegerImage) {
  StCombOptions first;
  first.max_patterns = 1;
  StCombOptions two;
  two.max_patterns = 2;
  struct Case {
    const char* name;
    std::vector<StreamInterval> pool;
    StCombOptions options;
    std::vector<StreamId> top;  // streams of the first pattern
  };
  const std::vector<Case> cases = {
      // 0.1 + 0.2 exceeds 0.3 as doubles (by 2^-55), and a float sum reads
      // 0.30000000000000004. The grid is 2^-45 here, and the images are
      // 3518437208883 + 7036874417766 = 10555311626649 against
      // 10555311626650 for 0.3: the single stream wins.
      {"0.1+0.2 vs 0.3",
       {SI(2, 0, 2, 0.3), SI(0, 5, 7, 0.1), SI(1, 5, 7, 0.2)},
       first,
       {2}},
      // Stab 3 holds 0.2 alone, exactly as stab 0 does, but a running float
      // sum reads (0.1 + 0.2) - 0.1 = 0.20000000000000004 there: an exact
      // tie, which goes to the leftmost stab.
      {"running-sum residue",
       {SI(1, 3, 3, 0.2), SI(0, 2, 2, 0.1), SI(2, 0, 0, 0.2)},
       first,
       {2}},
      // 1.0 and 1.0 + 2^-34 are less than one grid step apart (the step is
      // 2^-30 next to 1e4), so their stabs tie and the leftmost wins.
      {"below one grid step",
       {SI(0, 0, 0, 1e4), SI(2, 9, 9, 1.0 + std::ldexp(1.0, -34)),
        SI(1, 5, 5, 1.0)},
       two,
       {0}},
      // 1e-300 vanishes in a float sum with 1e4, but its image is 1, so the
      // stab that also holds it is strictly heavier.
      {"tiny next to the total",
       {SI(0, 0, 9, 1e4), SI(1, 6, 6, 1e-300)},
       first,
       {0, 1}},
      // Kleinberg-scale weights: 12345.5 + 6789.25 ties 19134.75 exactly,
      // and the leftmost stab wins.
      {"kleinberg-scale tie",
       {SI(0, 0, 4, 12345.5), SI(1, 2, 6, 6789.25), SI(2, 10, 12, 19134.75)},
       first,
       {0, 1}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const auto got = StComb(c.options).MineFromIntervals(c.pool);
    ExpectSamePatterns(got, ReferenceCliques(c.pool, c.options));
    ASSERT_FALSE(got.empty());
    EXPECT_EQ(got[0].streams, c.top);
  }

  // The "below one grid step" pool's second round: streams 1 and 2 tie on
  // the image, and stream 1 sits leftmost.
  const auto below = StComb(cases[2].options).MineFromIntervals(cases[2].pool);
  ASSERT_EQ(below.size(), 2u);
  EXPECT_EQ(below[1].streams, (std::vector<StreamId>{1}));
}

TEST(StComb, FarApartTimestampsRankBySortingAndAgree) {
  // The same pools with every timestamp t moved to 40,000,000·t - 2·10^9:
  // the span is then far beyond the rank table's reach, so the endpoints
  // are sorted instead. A strictly increasing map keeps every intersection
  // and every leftmost stab, so the patterns must be the mapped ones.
  auto spread = [](Timestamp t) {
    return static_cast<Timestamp>(int64_t{40'000'000} * t - 2'000'000'000);
  };
  Rng rng(41);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<StreamInterval> pool =
        RandomPool(rng, [&] { return rng.Uniform(0.01, 1.0); });
    std::vector<StreamInterval> far = pool;
    for (StreamInterval& si : far) {
      si.interval =
          Interval{spread(si.interval.start), spread(si.interval.end)};
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::vector<CombinatorialPattern> want = StComb().MineFromIntervals(pool);
    for (CombinatorialPattern& p : want) {
      p.timeframe =
          Interval{spread(p.timeframe.start), spread(p.timeframe.end)};
    }
    ExpectSamePatterns(StComb().MineFromIntervals(far), want);
    ExpectSamePatterns(StComb().MineFromIntervals(far),
                       ReferenceCliques(far, StCombOptions{}));
  }
  // Endpoints at the ends of the timestamp range.
  const Timestamp max = std::numeric_limits<Timestamp>::max();
  const Timestamp min = std::numeric_limits<Timestamp>::min();
  const std::vector<StreamInterval> extreme = {
      SI(0, min, min + 5, 0.5), SI(1, min + 3, max, 0.25),
      SI(2, max, max, 0.5)};
  ExpectSamePatterns(StComb().MineFromIntervals(extreme),
                     ReferenceCliques(extreme, StCombOptions{}));
}

TEST(StComb, ReversedPoolGivesIdenticalPatterns) {
  // Under the precondition the output is a function of the pool's contents:
  // stabs and members do not depend on order, the score folds in stream
  // order, and the output order is total. Equal weights make equal-score
  // patterns common.
  Rng rng(77);
  for (int trial = 0; trial < 300; ++trial) {
    const double shared = rng.Uniform(0.05, 1.0);
    std::vector<StreamInterval> pool = RandomPool(rng, [&] {
      return trial % 2 == 0 ? shared : rng.Uniform(0.01, 1.0);
    });
    std::vector<StreamInterval> reversed(pool.rbegin(), pool.rend());
    SCOPED_TRACE("trial " + std::to_string(trial));
    ExpectSamePatterns(StComb().MineFromIntervals(reversed),
                       StComb().MineFromIntervals(pool));
  }
}

}  // namespace
}  // namespace stburst
