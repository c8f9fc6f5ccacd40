// Tests for core/temporal: B_T (Eq. 1) and bursty interval extraction,
// with a bit-exact differential test of the occupied-cell extractor (and
// the span wrapper around it) against the dense score loop.

#include "stburst/core/temporal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "stburst/common/random.h"
#include "stburst/core/getmax.h"

namespace stburst {
namespace {

TEST(TemporalBurstiness, MatchesEquationOne) {
  std::vector<double> y = {1, 1, 8, 8, 1, 1};  // W = 20, N = 6
  Interval burst{2, 3};
  // (16/20) - (2/6) = 0.8 - 0.3333...
  EXPECT_NEAR(TemporalBurstiness(y, burst), 0.8 - 2.0 / 6.0, 1e-12);
}

TEST(TemporalBurstiness, WholeTimelineScoresZero) {
  std::vector<double> y = {2, 5, 1};
  EXPECT_NEAR(TemporalBurstiness(y, Interval{0, 2}), 0.0, 1e-12);
}

TEST(TemporalBurstiness, BoundedByOne) {
  Rng rng(1);
  std::vector<double> y(50);
  for (double& v : y) v = rng.Uniform(0.0, 10.0);
  for (int trial = 0; trial < 100; ++trial) {
    Timestamp a = static_cast<Timestamp>(rng.UniformInt(0, 49));
    Timestamp b = static_cast<Timestamp>(rng.UniformInt(a, 49));
    double bt = TemporalBurstiness(y, Interval{a, b});
    EXPECT_GE(bt, -1.0);
    EXPECT_LE(bt, 1.0);
  }
}

TEST(TemporalBurstiness, DegenerateInputs) {
  std::vector<double> empty;
  std::vector<double> two = {1, 2};
  std::vector<double> zeros = {0, 0, 0};
  EXPECT_DOUBLE_EQ(TemporalBurstiness(empty, Interval{0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(TemporalBurstiness(two, Interval{}), 0.0);
  EXPECT_DOUBLE_EQ(TemporalBurstiness(two, Interval{0, 5}), 0.0);  // OOR
  EXPECT_DOUBLE_EQ(TemporalBurstiness(zeros, Interval{0, 1}), 0.0);  // no mass
}

TEST(ExtractBurstyIntervals, FindsThePlantedBurst) {
  // Flat background of 1 with a strong burst at [10, 14].
  std::vector<double> y(30, 1.0);
  for (int t = 10; t <= 14; ++t) y[t] = 12.0;
  auto bursts = ExtractBurstyIntervals(y);
  ASSERT_EQ(bursts.size(), 1u);
  EXPECT_EQ(bursts[0].interval, (Interval{10, 14}));
  EXPECT_NEAR(bursts[0].burstiness, TemporalBurstiness(y, bursts[0].interval),
              1e-12);
  EXPECT_GT(bursts[0].burstiness, 0.5);
}

TEST(ExtractBurstyIntervals, FindsMultipleSeparatedBursts) {
  std::vector<double> y(60, 1.0);
  for (int t = 5; t <= 8; ++t) y[t] = 10.0;
  for (int t = 40; t <= 46; ++t) y[t] = 8.0;
  auto bursts = ExtractBurstyIntervals(y);
  ASSERT_EQ(bursts.size(), 2u);
  EXPECT_EQ(bursts[0].interval, (Interval{5, 8}));
  EXPECT_EQ(bursts[1].interval, (Interval{40, 46}));
}

TEST(ExtractBurstyIntervals, NonOverlappingAndOrdered) {
  Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> y(120);
    for (double& v : y) v = rng.Exponential(1.0);
    auto bursts = ExtractBurstyIntervals(y);
    for (size_t i = 1; i < bursts.size(); ++i) {
      EXPECT_GT(bursts[i].interval.start, bursts[i - 1].interval.end);
    }
    for (const auto& b : bursts) {
      EXPECT_GT(b.burstiness, 0.0);
      EXPECT_LE(b.burstiness, 1.0);
      // Score consistency with the definition.
      EXPECT_NEAR(b.burstiness, TemporalBurstiness(y, b.interval), 1e-9);
    }
  }
}

TEST(ExtractBurstyIntervals, ThresholdFilters) {
  std::vector<double> y(30, 1.0);
  for (int t = 10; t <= 14; ++t) y[t] = 12.0;  // strong burst
  y[25] = 4.0;                                 // small blip
  auto all = ExtractBurstyIntervals(y, 0.0);
  auto strong = ExtractBurstyIntervals(y, 0.3);
  EXPECT_GT(all.size(), strong.size());
  ASSERT_EQ(strong.size(), 1u);
  EXPECT_EQ(strong[0].interval, (Interval{10, 14}));
}

TEST(ExtractBurstyIntervals, UniformSequenceHasNoBursts) {
  std::vector<double> y(50, 3.0);
  EXPECT_TRUE(ExtractBurstyIntervals(y).empty());
}

TEST(ExtractBurstyIntervals, ZeroOrEmptySequence) {
  EXPECT_TRUE(ExtractBurstyIntervals({}).empty());
  EXPECT_TRUE(ExtractBurstyIntervals(std::vector<double>(10, 0.0)).empty());
}

// The dense score loop the extractor replaced: every one of the L cells
// divided by W and fed to Ruzzo–Tompa. The oracle of the tests below.
std::vector<BurstyInterval> DenseReference(std::span<const double> y,
                                           double min_burstiness) {
  std::vector<BurstyInterval> out;
  if (y.empty()) return out;
  double total = 0.0;
  for (double v : y) total += v;
  if (total <= 0.0) return out;
  const double baseline = 1.0 / static_cast<double>(y.size());
  OnlineMaxSegments getmax;
  for (double v : y) getmax.Add(v / total - baseline);
  for (const Segment& seg : getmax.CurrentSegments()) {
    if (seg.score <= min_burstiness) continue;
    out.push_back(BurstyInterval{Interval{static_cast<Timestamp>(seg.start),
                                          static_cast<Timestamp>(seg.end)},
                                 seg.score});
  }
  return out;
}

std::vector<RowCell> NonzeroCells(std::span<const double> y) {
  std::vector<RowCell> cells;
  for (size_t t = 0; t < y.size(); ++t) {
    if (y[t] != 0.0) cells.push_back(RowCell{t, y[t]});
  }
  return cells;
}

void ExpectSameBits(const std::vector<BurstyInterval>& got,
                    const std::vector<BurstyInterval>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].interval.start, want[i].interval.start) << i;
    EXPECT_EQ(got[i].interval.end, want[i].interval.end) << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i].burstiness),
              std::bit_cast<uint64_t>(want[i].burstiness))
        << i << ": " << got[i].burstiness << " vs " << want[i].burstiness;
  }
}

// `shared` lives across rows of every length, so its cached running sums
// are dropped and regrown as the length changes; a fresh extractor and the
// span wrapper must agree with it and with the dense loop.
void ExpectMatchesDense(BurstyIntervalExtractor* shared,
                        const std::vector<double>& y, double min_burstiness) {
  const std::vector<BurstyInterval> want = DenseReference(y, min_burstiness);
  const std::vector<RowCell> cells = NonzeroCells(y);
  std::vector<BurstyInterval> got = {BurstyInterval{Interval{7, 9}, 0.5}};
  shared->Append(cells, y.size(), min_burstiness, &got);
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got.front().interval, (Interval{7, 9}));  // appended, not cleared
  got.erase(got.begin());
  ExpectSameBits(got, want);

  BurstyIntervalExtractor fresh;
  got.clear();
  fresh.Append(cells, y.size(), min_burstiness, &got);
  ExpectSameBits(got, want);

  ExpectSameBits(ExtractBurstyIntervals(y, min_burstiness), want);
}

// A count in [1, 1e9], log-uniform, so rows mix ones with huge counts.
double DrawCount(Rng& rng) {
  return std::round(std::pow(10.0, rng.Uniform(0.0, 9.0)));
}

TEST(BurstyIntervalExtractor, MatchesDenseLoopBitForBit) {
  Rng rng(20260419);
  BurstyIntervalExtractor shared;
  size_t rows = 0, nonempty = 0;
  for (size_t length : {1u, 2u, 48u, 49u, 1000u}) {
    for (double min_burstiness : {0.0, 0.1}) {
      SCOPED_TRACE(testing::Message() << "L=" << length
                                      << " min=" << min_burstiness);
      const auto check = [&](const std::vector<double>& y) {
        ++rows;
        nonempty += DenseReference(y, min_burstiness).empty() ? 0 : 1;
        ExpectMatchesDense(&shared, y, min_burstiness);
      };
      for (int trial = 0; trial < 40; ++trial) {
        const double count = trial < 2 ? 1.0 : DrawCount(rng);
        std::vector<double> y(length, 0.0);
        y.front() = count;  // a single posting at column 0
        check(y);
        y.front() = 0.0;
        y.back() = count;  // a single posting at column L-1
        check(y);
        y.front() = DrawCount(rng);  // postings only at the two ends
        check(y);
        for (double& v : y) v = DrawCount(rng);  // every cell occupied
        check(y);
        for (double density : {0.02, 0.2, 0.6}) {  // sparse rows
          for (double& v : y) {
            v = rng.Bernoulli(density) ? DrawCount(rng) : 0.0;
          }
          check(y);
        }
        // Two equal postings far apart: tied segments.
        if (length >= 4) {
          std::fill(y.begin(), y.end(), 0.0);
          const size_t a = rng.NextUint64(length / 2);
          const size_t b = length / 2 + rng.NextUint64(length - length / 2);
          if (b > a + 1) {
            y[a] = count;
            y[b] = count;
            check(y);
          }
        }
      }
    }
  }
  EXPECT_GT(rows, 3000u);
  EXPECT_GT(nonempty, rows / 2);  // most rows do emit intervals
}

TEST(BurstyIntervalExtractor, ListedZeroCellsScoreLikeUnlistedOnes) {
  // The contract allows a listed cell of value 0.0: it must score like the
  // same cell of the dense row.
  Rng rng(5);
  BurstyIntervalExtractor extractor;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> y(48, 0.0);
    std::vector<RowCell> cells;
    for (size_t t = 0; t < y.size(); ++t) {
      if (rng.Bernoulli(0.1)) {
        y[t] = DrawCount(rng);
        cells.push_back(RowCell{t, y[t]});
      } else if (rng.Bernoulli(0.1)) {
        cells.push_back(RowCell{t, 0.0});
      }
    }
    std::vector<BurstyInterval> got;
    extractor.Append(cells, y.size(), 0.0, &got);
    ExpectSameBits(got, DenseReference(y, 0.0));
  }
}

TEST(AppendBurstyIntervals, FeedsNegativeSignedZeroAndNaNCellsLikeDenseLoop) {
  // The wrapper gathers cells != 0.0: negatives and NaNs are listed, -0.0
  // is not (it scores like +0.0). A NaN cell makes W NaN, and then every
  // score, zero cells included, is NaN.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(11);
  BurstyIntervalExtractor shared;
  size_t nan_rows = 0;
  for (size_t length : {1u, 2u, 48u, 49u, 1000u}) {
    for (double min_burstiness : {0.0, 0.1}) {
      SCOPED_TRACE(testing::Message() << "L=" << length
                                      << " min=" << min_burstiness);
      for (int trial = 0; trial < 60; ++trial) {
        std::vector<double> y(length, 0.0);
        for (double& v : y) {
          const double u = rng.NextDouble();
          if (u < 0.15) {
            v = DrawCount(rng);
          } else if (u < 0.22) {
            v = -rng.Uniform(0.0, 10.0);
          } else if (u < 0.35) {
            v = -0.0;
          }
        }
        if (trial % 4 == 1) y[rng.NextUint64(length)] = nan;
        if (trial % 4 == 2) y[rng.NextUint64(length)] = inf;
        if (trial % 8 == 3) {  // +inf beside -inf: W is NaN
          y.front() = inf;
          y.back() = -inf;
        }
        const std::vector<BurstyInterval> dense =
            DenseReference(y, min_burstiness);
        if (!dense.empty() && std::isnan(dense[0].burstiness)) ++nan_rows;
        ExpectMatchesDense(&shared, y, min_burstiness);
      }
    }
  }
  EXPECT_GT(nan_rows, 50u);  // the NaN branch was exercised
}

}  // namespace
}  // namespace stburst
