// Tests for the interval-graph maximum-weight clique sweep (core/max_clique).

#include "stburst/core/max_clique.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "stburst/common/random.h"

namespace stburst {
namespace {

WeightedInterval WI(Timestamp a, Timestamp b, double w, int64_t tag) {
  return WeightedInterval{Interval{a, b}, w, tag};
}

TEST(MaxWeightClique, EmptyInput) {
  CliqueResult clique = MaxWeightClique({});
  EXPECT_TRUE(clique.empty());
}

TEST(MaxWeightClique, SingleInterval) {
  auto clique = MaxWeightClique({WI(2, 5, 1.5, 0)});
  ASSERT_EQ(clique.members.size(), 1u);
  EXPECT_DOUBLE_EQ(clique.weight, 1.5);
  EXPECT_TRUE((Interval{2, 5}).Contains(clique.stab));
}

TEST(MaxWeightClique, PaperFigure2Example) {
  // Figure 2 of the paper: intervals I1..I7 with burstiness scores; the
  // highest-scoring subset is {I1, I3, I5, I6} with cumulative score 2.1.
  // Reconstruction of the figure's geometry: I1 [2,9] 0.8 (D1),
  // I2 [12,18] 0.5 (D1), I3 [4,10] 0.4 (D2), I4 [13,19] 0.6 (D2),
  // I5 [3,8] 0.3 (D3), I6 [5,9] 0.6 (D4), I7 [14,17] 0.2 (D4).
  std::vector<WeightedInterval> intervals = {
      WI(2, 9, 0.8, 1),  WI(12, 18, 0.5, 1), WI(4, 10, 0.4, 2),
      WI(13, 19, 0.6, 2), WI(3, 8, 0.3, 3),  WI(5, 9, 0.6, 4),
      WI(14, 17, 0.2, 4),
  };
  auto clique = MaxWeightClique(intervals);
  EXPECT_NEAR(clique.weight, 2.1, 1e-12);
  std::vector<size_t> expected = {0, 2, 4, 5};
  EXPECT_EQ(clique.members, expected);
  // The stab point must lie in the common segment [5, 8].
  EXPECT_GE(clique.stab, 5);
  EXPECT_LE(clique.stab, 8);
}

TEST(MaxWeightClique, TouchingEndpointsIntersect) {
  // Closed intervals [0,5] and [5,9] share timestamp 5.
  auto clique = MaxWeightClique({WI(0, 5, 1.0, 0), WI(5, 9, 1.0, 1)});
  EXPECT_EQ(clique.members.size(), 2u);
  EXPECT_DOUBLE_EQ(clique.weight, 2.0);
  EXPECT_EQ(clique.stab, 5);
}

TEST(MaxWeightClique, DisjointIntervalsPickHeaviest) {
  auto clique = MaxWeightClique({WI(0, 2, 1.0, 0), WI(5, 7, 3.0, 1)});
  ASSERT_EQ(clique.members.size(), 1u);
  EXPECT_EQ(clique.members[0], 1u);
  EXPECT_DOUBLE_EQ(clique.weight, 3.0);
}

TEST(MaxWeightClique, IgnoresNonPositiveWeights) {
  auto clique = MaxWeightClique(
      {WI(0, 9, -1.0, 0), WI(0, 9, 0.0, 1), WI(3, 4, 0.5, 2)});
  ASSERT_EQ(clique.members.size(), 1u);
  EXPECT_EQ(clique.members[0], 2u);
}

TEST(MaxWeightClique, AllNegativeYieldsEmpty) {
  auto clique = MaxWeightClique({WI(0, 5, -1.0, 0), WI(1, 3, -0.1, 1)});
  EXPECT_TRUE(clique.empty());
  EXPECT_DOUBLE_EQ(clique.weight, 0.0);
}

TEST(MaxWeightClique, ManyIntervalsSharedCore) {
  // 10 intervals all containing timestamp 50.
  std::vector<WeightedInterval> intervals;
  for (int i = 0; i < 10; ++i) {
    intervals.push_back(WI(50 - i, 50 + i, 1.0, i));
  }
  auto clique = MaxWeightClique(intervals);
  EXPECT_EQ(clique.members.size(), 10u);
  EXPECT_DOUBLE_EQ(clique.weight, 10.0);
}

// Differential test against brute force over stab points.
double BruteForceBestStabWeight(const std::vector<WeightedInterval>& ivs,
                                Timestamp lo, Timestamp hi) {
  double best = 0.0;
  for (Timestamp t = lo; t <= hi; ++t) {
    double w = 0.0;
    for (const auto& iv : ivs) {
      if (iv.weight > 0.0 && iv.interval.Contains(t)) w += iv.weight;
    }
    best = std::max(best, w);
  }
  return best;
}

TEST(MaxWeightClique, MatchesBruteForceOnRandomInstances) {
  Rng rng(42);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<WeightedInterval> ivs;
    size_t m = 1 + rng.NextUint64(20);
    for (size_t i = 0; i < m; ++i) {
      Timestamp a = static_cast<Timestamp>(rng.UniformInt(0, 40));
      Timestamp b = static_cast<Timestamp>(rng.UniformInt(a, 40));
      // Distinct tags: the per-stream dedup path is tested separately.
      ivs.push_back(WI(a, b, rng.Uniform(0.1, 2.0), static_cast<int64_t>(i)));
    }
    auto clique = MaxWeightClique(ivs);
    EXPECT_NEAR(clique.weight, BruteForceBestStabWeight(ivs, 0, 40), 1e-9)
        << "trial " << trial;
    // Verify the clique members all contain the stab point.
    for (size_t idx : clique.members) {
      EXPECT_TRUE(ivs[idx].interval.Contains(clique.stab));
    }
  }
}

TEST(MaxWeightClique, SameTagKeepsHeaviest) {
  // Two overlapping intervals with the same tag both contain point 5; only
  // the heavier may join the clique.
  auto clique = MaxWeightClique(
      {WI(0, 9, 1.0, 7), WI(4, 6, 2.0, 7), WI(5, 5, 0.5, 8)});
  ASSERT_EQ(clique.members.size(), 2u);
  EXPECT_TRUE(std::find(clique.members.begin(), clique.members.end(), 1u) !=
              clique.members.end());
  EXPECT_TRUE(std::find(clique.members.begin(), clique.members.end(), 0u) ==
              clique.members.end());
}

// ---- EnumerateMaximalCliques --------------------------------------------

TEST(EnumerateMaximalCliques, EmptyAndSingle) {
  EXPECT_TRUE(EnumerateMaximalCliques({}).empty());
  auto cliques = EnumerateMaximalCliques({WI(0, 5, 1.0, 0)});
  ASSERT_EQ(cliques.size(), 1u);
  EXPECT_EQ(cliques[0].members, (std::vector<size_t>{0}));
}

TEST(EnumerateMaximalCliques, ChainOfOverlaps) {
  // [0,4], [3,8], [7,12]: maximal cliques {0,1} and {1,2}.
  auto cliques = EnumerateMaximalCliques(
      {WI(0, 4, 1.0, 0), WI(3, 8, 1.0, 1), WI(7, 12, 1.0, 2)});
  ASSERT_EQ(cliques.size(), 2u);
  EXPECT_EQ(cliques[0].members, (std::vector<size_t>{0, 1}));
  EXPECT_EQ(cliques[1].members, (std::vector<size_t>{1, 2}));
}

TEST(EnumerateMaximalCliques, NestedIntervalsSingleClique) {
  auto cliques = EnumerateMaximalCliques(
      {WI(0, 10, 1.0, 0), WI(2, 8, 1.0, 1), WI(4, 6, 1.0, 2)});
  ASSERT_EQ(cliques.size(), 1u);
  EXPECT_EQ(cliques[0].members, (std::vector<size_t>{0, 1, 2}));
}

TEST(EnumerateMaximalCliques, DisjointIntervals) {
  auto cliques = EnumerateMaximalCliques(
      {WI(0, 2, 1.0, 0), WI(5, 7, 1.0, 1), WI(10, 12, 1.0, 2)});
  ASSERT_EQ(cliques.size(), 3u);
}

TEST(EnumerateMaximalCliques, CoversMaxWeightClique) {
  // The maximum-weight clique must appear among (or be contained in) the
  // enumerated maximal cliques, with at least its weight.
  Rng rng(77);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<WeightedInterval> ivs;
    size_t m = 1 + rng.NextUint64(15);
    for (size_t i = 0; i < m; ++i) {
      Timestamp a = static_cast<Timestamp>(rng.UniformInt(0, 30));
      Timestamp b = static_cast<Timestamp>(rng.UniformInt(a, 30));
      ivs.push_back(WI(a, b, rng.Uniform(0.1, 1.0), static_cast<int64_t>(i)));
    }
    CliqueResult best = MaxWeightClique(ivs);
    auto all = EnumerateMaximalCliques(ivs);

    // Every enumerated clique is a real clique (pairwise intersecting).
    for (const CliqueResult& c : all) {
      for (size_t x : c.members) {
        for (size_t y : c.members) {
          EXPECT_TRUE(ivs[x].interval.Intersects(ivs[y].interval));
        }
      }
    }
    // And the best weight over the enumeration matches MaxWeightClique.
    double best_enumerated = 0.0;
    for (const CliqueResult& c : all) {
      double positive = 0.0;
      for (size_t idx : c.members) {
        if (ivs[idx].weight > 0.0) positive += ivs[idx].weight;
      }
      best_enumerated = std::max(best_enumerated, positive);
    }
    EXPECT_NEAR(best_enumerated, best.weight, 1e-9) << "trial " << trial;
  }
}

TEST(EnumerateMaximalCliques, NoCliqueContainsAnother) {
  Rng rng(91);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<WeightedInterval> ivs;
    size_t m = 2 + rng.NextUint64(12);
    for (size_t i = 0; i < m; ++i) {
      Timestamp a = static_cast<Timestamp>(rng.UniformInt(0, 20));
      Timestamp b = static_cast<Timestamp>(rng.UniformInt(a, 20));
      ivs.push_back(WI(a, b, 1.0, static_cast<int64_t>(i)));
    }
    auto all = EnumerateMaximalCliques(ivs);
    for (size_t i = 0; i < all.size(); ++i) {
      for (size_t j = 0; j < all.size(); ++j) {
        if (i == j) continue;
        EXPECT_FALSE(std::includes(all[i].members.begin(),
                                   all[i].members.end(),
                                   all[j].members.begin(),
                                   all[j].members.end()))
            << "clique " << j << " inside clique " << i << ", trial " << trial;
      }
    }
  }
}

}  // namespace
}  // namespace stburst
