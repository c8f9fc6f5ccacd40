// LongHorizonBaseline: expected-frequency baselines that see past the
// retention window by seeding models from the cold tier.
//
// The paper's default baseline is the mean observed frequency over *all*
// snapshots before timestamp i (§4) — but a windowed FeedRuntime only holds
// the hot window raw. The cold tier keeps exactly what that mean needs for
// the evicted span: per-(term, stream) frequency sums over [covered_start(),
// folded_until()), with covered_length() the observation count (every
// covered timestamp is one observation; silent ones are zeros).
// SeededMeanModel puts that (sum, count) prior ahead of the hot row, so
//
//     Expected = (cold_sum + hot_sum) / (cold_count + hot_count)
//
// equals the unwindowed global mean over the full horizon. For integer-
// valued frequencies (document-driven feeds; see the determinism note in
// stream/frequency.h) the equality is bit-exact regardless of how the cold
// sum was associated into buckets, because integer partial sums are exact in
// double. Only the arithmetic-mean family is seedable from (sum, count);
// window/EWMA/seasonal models would need per-bucket moments the tier does
// not store — a documented limitation, not an oversight.

#ifndef STBURST_HISTORY_LONG_HORIZON_H_
#define STBURST_HISTORY_LONG_HORIZON_H_

#include <cstdint>
#include <memory>
#include <span>

#include "stburst/core/expected.h"
#include "stburst/history/cold_tier.h"
#include "stburst/stream/types.h"

namespace stburst {

/// GlobalMeanModel with a (sum, count) prior. Uses plain sum/count
/// arithmetic (not Welford) so a seeded model and an unseeded model that
/// observed the seed span agree bit-exactly on integer-valued inputs:
/// E[i] = (seed_sum + y[0] + ... + y[i−1]) / (seed_count + i). The seed
/// counts as history, so a term with months of folded baseline is never
/// scored as "first observation" again.
class SeededMeanModel : public ExpectedFrequencyModel {
 public:
  SeededMeanModel() = default;
  SeededMeanModel(double seed_sum, uint64_t seed_count)
      : seed_sum_(seed_sum), seed_count_(seed_count) {}

  size_t Expected(std::span<const double> y,
                  std::span<double> e) const override {
    double hot_sum = 0.0;
    for (size_t i = 0; i < y.size(); ++i) {
      const uint64_t n = seed_count_ + i;
      e[i] = n == 0 ? 0.0 : (seed_sum_ + hot_sum) / static_cast<double>(n);
      hot_sum += y[i];
    }
    return seed_count_ > 0 || y.empty() ? 0 : 1;
  }

 private:
  double seed_sum_ = 0.0;
  uint64_t seed_count_ = 0;
};

/// Adapter from a ColdTier to the existing model interfaces: hands out
/// SeededMeanModel instances whose prior is the tier's aggregate for one
/// (term, stream). Borrowed tier; a null tier yields unseeded models (pure
/// hot-window behavior), so callers need no history-on/off branches.
class LongHorizonBaseline {
 public:
  explicit LongHorizonBaseline(const ColdTier* tier) : tier_(tier) {}

  /// Model whose prior is (tier StreamSum, tier covered_length()): over
  /// the hot-window row starting at folded_until(), its Expected() is the
  /// global mean over the full covered horizon.
  std::unique_ptr<ExpectedFrequencyModel> ModelFor(TermId term,
                                                   StreamId stream) const {
    return std::make_unique<SeededMeanModel>(SeedFor(term, stream));
  }

 private:
  SeededMeanModel SeedFor(TermId term, StreamId stream) const {
    if (tier_ == nullptr || tier_->covered_length() <= 0) {
      return SeededMeanModel();
    }
    return SeededMeanModel(tier_->StreamSum(term, stream),
                           static_cast<uint64_t>(tier_->covered_length()));
  }

  const ColdTier* tier_;
};

}  // namespace stburst

#endif  // STBURST_HISTORY_LONG_HORIZON_H_
