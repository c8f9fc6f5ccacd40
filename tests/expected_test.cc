// Tests for the expected-frequency models (core/expected) and the seeded
// long-horizon mean (history/long_horizon.h).

#include "stburst/core/expected.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "stburst/common/random.h"
#include "stburst/history/long_horizon.h"

namespace stburst {
namespace {

// E over the row `y`, and the length of its prefix without history.
struct ExpectedRow {
  std::vector<double> e;
  size_t fresh = 0;
};

ExpectedRow RowOf(const ExpectedFrequencyModel& model,
                  const std::vector<double>& y) {
  ExpectedRow row;
  row.e.assign(y.size(), -1.0);
  row.fresh = model.Expected(y, row.e);
  return row;
}

// A placeholder for the step after the observed ones: E never reads it.
constexpr double kNext = 12345.0;

TEST(GlobalMeanModel, MeanOfAllPastObservations) {
  GlobalMeanModel m;
  const ExpectedRow row = RowOf(m, {2.0, 4.0, 9.0, kNext});
  EXPECT_EQ(row.fresh, 1u);
  EXPECT_DOUBLE_EQ(row.e[1], 2.0);
  EXPECT_DOUBLE_EQ(row.e[2], 3.0);
  EXPECT_DOUBLE_EQ(row.e[3], 5.0);
}

TEST(GlobalMeanModel, MeanOfEightObservations) {
  const ExpectedRow row =
      RowOf(GlobalMeanModel(), {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0, kNext});
  EXPECT_EQ(row.fresh, 1u);
  EXPECT_DOUBLE_EQ(row.e[8], 5.0);
}

TEST(GlobalMeanModel, EmptyAndSingleRows) {
  GlobalMeanModel m;
  EXPECT_EQ(RowOf(m, {}).fresh, 0u);
  const ExpectedRow single = RowOf(m, {3.0});
  EXPECT_EQ(single.fresh, 1u);
  EXPECT_EQ(single.e[0], 0.0);
  EXPECT_DOUBLE_EQ(RowOf(m, {3.0, kNext}).e[1], 3.0);
}

TEST(GlobalMeanModel, MatchesBatchMeanOnRandomData) {
  Rng rng(1);
  std::vector<double> y(5000);
  double sum = 0.0;
  for (double& v : y) {
    v = rng.Uniform(-10.0, 10.0);
    sum += v;
  }
  const double mean = sum / static_cast<double>(y.size());
  y.push_back(kNext);
  EXPECT_NEAR(RowOf(GlobalMeanModel(), y).e.back(), mean, 1e-9);
}

// The Welford loop GlobalMeanModel ran before it skipped leading zeros:
// one division per cell from the first one on.
size_t ReferenceGlobalMean(const std::vector<double>& y, std::vector<double>* e) {
  double mean = 0.0;
  for (size_t i = 0; i < y.size(); ++i) {
    (*e)[i] = mean;
    mean += (y[i] - mean) / static_cast<double>(i + 1);
  }
  return std::min<size_t>(1, y.size());
}

TEST(GlobalMeanModel, LeadingZeroSkipMatchesWelfordLoopBitForBit) {
  Rng rng(29);
  for (size_t length : {1u, 2u, 48u}) {
    for (size_t zeros : {size_t{0}, size_t{1}, length - 1, length}) {
      for (int trial = 0; trial < 50; ++trial) {
        SCOPED_TRACE(testing::Message() << "L=" << length << " zeros=" << zeros
                                        << " trial=" << trial);
        std::vector<double> y(length);
        for (size_t i = 0; i < length; ++i) {
          if (i < zeros) {
            y[i] = rng.Bernoulli(0.3) ? -0.0 : 0.0;  // zeros of either sign
          } else if (trial % 2 == 0) {
            y[i] = static_cast<double>(rng.Poisson(0.5));
          } else {
            y[i] = rng.Uniform(-3.0, 3.0);
          }
        }
        if (zeros < length && y[zeros] == 0.0) y[zeros] = 1.0;
        std::vector<double> want(length, -1.0);
        const size_t want_fresh = ReferenceGlobalMean(y, &want);
        const ExpectedRow got = RowOf(GlobalMeanModel(), y);
        EXPECT_EQ(got.fresh, want_fresh);
        for (size_t i = 0; i < length; ++i) {
          EXPECT_EQ(std::bit_cast<uint64_t>(got.e[i]),
                    std::bit_cast<uint64_t>(want[i]))
              << i << ": " << got.e[i] << " vs " << want[i];
        }
      }
    }
  }
}

TEST(WindowMeanModel, OnlyRecentWindowCounts) {
  // 100 falls out of the 2-wide window.
  const ExpectedRow row =
      RowOf(WindowMeanModel(2), {100.0, 2.0, 4.0, 6.0, kNext});
  EXPECT_DOUBLE_EQ(row.e[3], 3.0);
  EXPECT_DOUBLE_EQ(row.e[4], 5.0);
}

TEST(WindowMeanModel, PartialWindow) {
  EXPECT_DOUBLE_EQ(RowOf(WindowMeanModel(10), {4.0, 8.0, kNext}).e[2], 6.0);
}

TEST(EwmaModel, TracksWithSmoothing) {
  const ExpectedRow row = RowOf(EwmaModel(0.5), {10.0, 0.0, kNext});
  EXPECT_EQ(row.fresh, 1u);
  EXPECT_DOUBLE_EQ(row.e[1], 10.0);
  EXPECT_DOUBLE_EQ(row.e[2], 5.0);
}

TEST(Ewma, FirstObservationInitializes) {
  const ExpectedRow row = RowOf(EwmaModel(0.5), {10.0, kNext});
  EXPECT_EQ(row.fresh, 1u);
  EXPECT_DOUBLE_EQ(row.e[1], 10.0);
}

TEST(Ewma, SmoothsTowardNewValues) {
  const ExpectedRow row = RowOf(EwmaModel(0.5), {0.0, 10.0, 10.0, kNext});
  EXPECT_DOUBLE_EQ(row.e[2], 5.0);
  EXPECT_DOUBLE_EQ(row.e[3], 7.5);
}

TEST(Ewma, AlphaOneTracksExactly) {
  EXPECT_DOUBLE_EQ(RowOf(EwmaModel(1.0), {3.0, -2.0, kNext}).e[2], -2.0);
}

TEST(SeasonalMeanModel, UsesSamePhaseHistory) {
  // Weekly seasonality over a daily timeline: two full weeks whose
  // weekends (phases 5, 6) run hot, then five plain weekdays.
  std::vector<double> y;
  for (int day = 0; day < 14; ++day) y.push_back(day % 7 >= 5 ? 10.0 : 2.0);
  for (int day = 14; day < 19; ++day) y.push_back(2.0);
  y.push_back(kNext);
  const ExpectedRow row = RowOf(SeasonalMeanModel(7), y);
  EXPECT_DOUBLE_EQ(row.e[14], 2.0);   // phase 0 (weekday): the weekday mean
  EXPECT_DOUBLE_EQ(row.e[19], 10.0);  // phase 5 (weekend): the weekend mean
}

TEST(SeasonalMeanModel, FallsBackToGlobalMeanBeforeFullPeriod) {
  // Phase 2 has no history yet: global mean 6.
  EXPECT_DOUBLE_EQ(RowOf(SeasonalMeanModel(5), {4.0, 8.0, kNext}).e[2], 6.0);
}

TEST(BurstinessSeries, FirstTimestampNeutral) {
  GlobalMeanModel m;
  std::vector<double> y = {5.0, 5.0, 9.0};
  auto b = BurstinessSeries(y, m);
  ASSERT_EQ(b.size(), 3u);
  EXPECT_DOUBLE_EQ(b[0], 0.0);       // no history: neutral
  EXPECT_DOUBLE_EQ(b[1], 0.0);       // 5 - mean(5)
  EXPECT_DOUBLE_EQ(b[2], 4.0);       // 9 - mean(5, 5)
}

TEST(BurstinessSeries, DetectsDeviationFromRunningMean) {
  GlobalMeanModel m;
  std::vector<double> y = {2, 2, 2, 2, 10, 2};
  auto b = BurstinessSeries(y, m);
  EXPECT_DOUBLE_EQ(b[4], 8.0);  // 10 - mean(2,2,2,2)
  EXPECT_LT(b[5], 0.0);         // 2 - inflated mean
}

TEST(BurstinessSeries, IsCausal) {
  // Prefix invariance: b[i] must not depend on later observations.
  std::vector<double> y1 = {3, 1, 4, 1, 5};
  std::vector<double> y2 = {3, 1, 4, 99, 99};
  GlobalMeanModel m;
  auto b1 = BurstinessSeries(y1, m);
  auto b2 = BurstinessSeries(y2, m);
  for (size_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(b1[i], b2[i]);
}

TEST(PriorFloorModel, FloorsTheInnerExpectation) {
  PriorFloorModel m(std::make_unique<GlobalMeanModel>(), 0.5);
  const ExpectedRow row = RowOf(m, {0.1, 3.9, kNext});
  EXPECT_EQ(row.fresh, 0u);         // the prior counts as history
  EXPECT_DOUBLE_EQ(row.e[0], 0.5);  // no inner history: the floor applies
  EXPECT_DOUBLE_EQ(row.e[1], 0.5);  // inner mean below the floor
  EXPECT_DOUBLE_EQ(row.e[2], 2.0);  // inner mean above the floor wins
}

TEST(PriorFloorModel, SilentStreamScoresNegative) {
  // The motivating property: a stream that never mentions the term yields a
  // strictly negative burstiness everywhere, so rectangles pay to cover it.
  PriorFloorModel m(std::make_unique<GlobalMeanModel>(), 0.2);
  std::vector<double> y(10, 0.0);
  auto b = BurstinessSeries(y, m);
  for (double v : b) EXPECT_DOUBLE_EQ(v, -0.2);
}

TEST(WithPriorFloor, DecoratesFactory) {
  ExpectedModelFactory factory = WithPriorFloor(
      [] { return std::make_unique<GlobalMeanModel>(); }, 0.3);
  const ExpectedRow row = RowOf(*factory(), {10.0, kNext});
  EXPECT_DOUBLE_EQ(row.e[0], 0.3);
  EXPECT_DOUBLE_EQ(row.e[1], 10.0);
}

TEST(ExpectedModelFactory, ProducesIndependentModels) {
  // A model carries nothing from one row to the next, so models from one
  // factory, or one model called twice, agree on every row.
  ExpectedModelFactory factory = [] {
    return std::make_unique<GlobalMeanModel>();
  };
  auto a = factory();
  auto b = factory();
  const std::vector<double> y = {1.0, 7.0, 2.0};
  const std::vector<double> first = RowOf(*a, y).e;
  RowOf(*a, {100.0, 100.0});
  EXPECT_EQ(RowOf(*a, y).e, first);
  EXPECT_EQ(RowOf(*b, y).e, first);
}

TEST(SeededMeanModel, SeedCountsAsHistory) {
  const ExpectedRow row =
      RowOf(SeededMeanModel(/*seed_sum=*/10.0, /*seed_count=*/5), {8.0, kNext});
  EXPECT_EQ(row.fresh, 0u);
  EXPECT_EQ(row.e[0], 2.0);
  EXPECT_EQ(row.e[1], 3.0);  // (10+8)/6
  EXPECT_EQ(RowOf(SeededMeanModel(), {8.0}).fresh, 1u);
}

// ------------------------------------------------- differential oracle
//
// Step-at-a-time references of every model kind, written the way a
// per-observation model reads: ask for E, then observe y. Each keeps the
// arithmetic of its row loop (Welford means, window add-then-subtract,
// the EWMA blend, plain seeded sum/count) but none of its indexing, so a
// row loop that reads y[i] early, drops the wrong window entry or picks the
// wrong phase diverges from it in the last bit.

class RefModel {
 public:
  virtual ~RefModel() = default;
  virtual bool HasHistory() const = 0;
  virtual double Expected() const = 0;
  virtual void Observe(double y) = 0;
};

class RefMean : public RefModel {
 public:
  bool HasHistory() const override { return n_ > 0; }
  double Expected() const override { return mean_; }
  void Observe(double y) override {
    ++n_;
    const double delta = y - mean_;
    mean_ += delta / static_cast<double>(n_);
  }

 private:
  int64_t n_ = 0;
  double mean_ = 0.0;
};

class RefWindow : public RefModel {
 public:
  explicit RefWindow(size_t window) : window_(window) {}
  bool HasHistory() const override { return !recent_.empty(); }
  double Expected() const override {
    return recent_.empty() ? 0.0 : sum_ / static_cast<double>(recent_.size());
  }
  void Observe(double y) override {
    recent_.push_back(y);
    sum_ += y;
    if (recent_.size() > window_) {
      sum_ -= recent_.front();
      recent_.pop_front();
    }
  }

 private:
  size_t window_;
  std::deque<double> recent_;
  double sum_ = 0.0;
};

class RefEwma : public RefModel {
 public:
  explicit RefEwma(double alpha) : alpha_(alpha) {}
  bool HasHistory() const override { return !empty_; }
  double Expected() const override { return value_; }
  void Observe(double y) override {
    value_ = empty_ ? y : alpha_ * y + (1.0 - alpha_) * value_;
    empty_ = false;
  }

 private:
  double alpha_;
  double value_ = 0.0;
  bool empty_ = true;
};

class RefSeasonal : public RefModel {
 public:
  explicit RefSeasonal(size_t period) : phases_(period) {}
  bool HasHistory() const override { return n_ > 0; }
  double Expected() const override {
    const RefMean& phase = phases_[n_ % phases_.size()];
    return phase.HasHistory() ? phase.Expected() : global_.Expected();
  }
  void Observe(double y) override {
    phases_[n_ % phases_.size()].Observe(y);
    global_.Observe(y);
    ++n_;
  }

 private:
  size_t n_ = 0;
  std::vector<RefMean> phases_;
  RefMean global_;
};

class RefSeeded : public RefModel {
 public:
  RefSeeded(double seed_sum, uint64_t seed_count)
      : seed_sum_(seed_sum), seed_count_(seed_count) {}
  bool HasHistory() const override { return seed_count_ + hot_count_ > 0; }
  double Expected() const override {
    const uint64_t n = seed_count_ + hot_count_;
    return n == 0 ? 0.0 : (seed_sum_ + hot_sum_) / static_cast<double>(n);
  }
  void Observe(double y) override {
    hot_sum_ += y;
    ++hot_count_;
  }

 private:
  double seed_sum_;
  uint64_t seed_count_;
  double hot_sum_ = 0.0;
  uint64_t hot_count_ = 0;
};

class RefFloor : public RefModel {
 public:
  RefFloor(std::unique_ptr<RefModel> inner, double floor)
      : inner_(std::move(inner)), floor_(floor) {}
  bool HasHistory() const override { return true; }
  double Expected() const override {
    const double e = inner_->HasHistory() ? inner_->Expected() : 0.0;
    return e > floor_ ? e : floor_;
  }
  void Observe(double y) override { inner_->Observe(y); }

 private:
  std::unique_ptr<RefModel> inner_;
  double floor_;
};

std::vector<double> RefBurstiness(const std::vector<double>& y,
                                  RefModel& model) {
  std::vector<double> b(y.size());
  for (size_t i = 0; i < y.size(); ++i) {
    b[i] = model.HasHistory() ? y[i] - model.Expected() : 0.0;
    model.Observe(y[i]);
  }
  return b;
}

enum class Family { kIntegerCounts, kUniform, kLongZeroRuns, kNear1e15 };

std::vector<double> MakeRow(Family family, size_t length, Rng& rng) {
  std::vector<double> y(length);
  for (double& v : y) {
    switch (family) {
      case Family::kIntegerCounts:
        v = static_cast<double>(rng.Poisson(3.0));
        break;
      case Family::kUniform:
        v = rng.Uniform(0.0, 10.0);
        break;
      case Family::kLongZeroRuns:
        v = rng.Bernoulli(0.03) ? static_cast<double>(rng.UniformInt(1, 40))
                                : 0.0;
        break;
      case Family::kNear1e15:
        v = 1e15 + rng.Uniform(-1000.0, 1000.0);
        break;
    }
  }
  return y;
}

// One model kind: the row model and its step-at-a-time reference, built
// for a given floor (a negative floor means none).
struct KindCase {
  std::string name;
  std::function<std::unique_ptr<ExpectedFrequencyModel>()> row;
  std::function<std::unique_ptr<RefModel>()> ref;
};

// Compares BurstinessSeries under every case, bare and floored, with its
// reference on seeded rows of every family, over lengths that include 0,
// 1 and 2 and lengths below and above each case's window or period.
void ExpectRowFormMatchesReference(const std::vector<KindCase>& cases) {
  const Family families[] = {Family::kIntegerCounts, Family::kUniform,
                             Family::kLongZeroRuns, Family::kNear1e15};
  const size_t lengths[] = {0, 1, 2, 3, 6, 13, 48, 301};
  const double floors[] = {-1.0, 0.2, 5e14};
  Rng rng(20120827);
  for (const KindCase& kind : cases) {
    for (double floor : floors) {
      std::unique_ptr<ExpectedFrequencyModel> model = kind.row();
      if (floor >= 0.0) {
        model = std::make_unique<PriorFloorModel>(std::move(model), floor);
      }
      for (Family family : families) {
        for (size_t length : lengths) {
          for (int draw = 0; draw < 3; ++draw) {
            const std::vector<double> y = MakeRow(family, length, rng);
            std::unique_ptr<RefModel> ref = kind.ref();
            if (floor >= 0.0) {
              ref = std::make_unique<RefFloor>(std::move(ref), floor);
            }
            const std::vector<double> want = RefBurstiness(y, *ref);
            const std::vector<double> got = BurstinessSeries(y, *model);
            ASSERT_EQ(got.size(), want.size());
            for (size_t i = 0; i < got.size(); ++i) {
              ASSERT_EQ(std::bit_cast<uint64_t>(got[i]),
                        std::bit_cast<uint64_t>(want[i]))
                  << kind.name << " floor " << floor << " family "
                  << static_cast<int>(family) << " length " << length
                  << " index " << i << ": " << got[i] << " vs " << want[i];
            }
          }
        }
      }
    }
  }
}

TEST(ExpectedModelOracle, GlobalMeanRowsMatchReference) {
  ExpectRowFormMatchesReference(
      {{"mean", [] { return std::make_unique<GlobalMeanModel>(); },
        [] { return std::make_unique<RefMean>(); }}});
}

TEST(ExpectedModelOracle, WindowMeanRowsMatchReference) {
  std::vector<KindCase> cases;
  for (size_t window : {1, 2, 5, 14, 1000}) {
    cases.push_back(
        {"window-" + std::to_string(window),
         [window] { return std::make_unique<WindowMeanModel>(window); },
         [window] { return std::make_unique<RefWindow>(window); }});
  }
  ExpectRowFormMatchesReference(cases);
}

TEST(ExpectedModelOracle, EwmaRowsMatchReference) {
  std::vector<KindCase> cases;
  for (double alpha : {0.1, 0.37, 1.0}) {
    cases.push_back(
        {"ewma-" + std::to_string(alpha),
         [alpha] { return std::make_unique<EwmaModel>(alpha); },
         [alpha] { return std::make_unique<RefEwma>(alpha); }});
  }
  ExpectRowFormMatchesReference(cases);
}

TEST(ExpectedModelOracle, SeasonalRowsMatchReference) {
  std::vector<KindCase> cases;
  for (size_t period : {1, 2, 7, 52, 1000}) {
    cases.push_back(
        {"seasonal-" + std::to_string(period),
         [period] { return std::make_unique<SeasonalMeanModel>(period); },
         [period] { return std::make_unique<RefSeasonal>(period); }});
  }
  ExpectRowFormMatchesReference(cases);
}

TEST(ExpectedModelOracle, SeededMeanRowsMatchReference) {
  struct Seed {
    double sum;
    uint64_t count;
  };
  std::vector<KindCase> cases;
  for (Seed seed : {Seed{0.0, 0}, Seed{10.0, 5}, Seed{2.5, 1},
                    Seed{3e15, 3}}) {
    cases.push_back(
        {"seeded-" + std::to_string(seed.count),
         [seed] {
           return std::make_unique<SeededMeanModel>(seed.sum, seed.count);
         },
         [seed] { return std::make_unique<RefSeeded>(seed.sum, seed.count); }});
  }
  ExpectRowFormMatchesReference(cases);
}

}  // namespace
}  // namespace stburst
