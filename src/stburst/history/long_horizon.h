// LongHorizonBaseline: expected-frequency baselines that see past the
// retention window by seeding models from the cold tier.
//
// The paper's default baseline is the mean observed frequency over *all*
// snapshots before timestamp i (§4) — but a windowed FeedRuntime only holds
// the hot window raw. The cold tier keeps exactly what that mean needs for
// the evicted span: per-(term, stream) frequency sums over [covered_start(),
// folded_until()), with covered_length() the observation count (every
// covered timestamp is one observation; silent ones are zeros).
// SeededMeanModel
// carries that (sum, count) prior and then observes the hot window, so
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

#include "stburst/core/expected.h"
#include "stburst/history/cold_tier.h"
#include "stburst/stream/types.h"

namespace stburst {

/// GlobalMeanModel with a (sum, count) prior. Uses plain sum/count
/// arithmetic (not Welford) so a seeded model and an unseeded model that
/// observed the seed span agree bit-exactly on integer-valued inputs.
class SeededMeanModel : public ExpectedFrequencyModel {
 public:
  SeededMeanModel() = default;
  SeededMeanModel(double seed_sum, uint64_t seed_count)
      : seed_sum_(seed_sum), seed_count_(seed_count) {}

  double Expected() const override {
    const uint64_t n = seed_count_ + hot_count_;
    return n == 0 ? 0.0 : (seed_sum_ + hot_sum_) / static_cast<double>(n);
  }
  void Observe(double y) override {
    hot_sum_ += y;
    ++hot_count_;
  }
  /// The seed counts as history: a term with months of folded baseline is
  /// never scored as "first observation" again.
  bool HasHistory() const override { return seed_count_ + hot_count_ > 0; }
  /// Restores the freshly-constructed (still seeded) state, per the
  /// Reset-equals-new-instance contract in expected.h.
  void Reset() override {
    hot_sum_ = 0.0;
    hot_count_ = 0;
  }

  double seed_sum() const { return seed_sum_; }
  uint64_t seed_count() const { return seed_count_; }

 private:
  double seed_sum_ = 0.0;
  uint64_t seed_count_ = 0;
  double hot_sum_ = 0.0;
  uint64_t hot_count_ = 0;
};

/// Adapter from a ColdTier to the existing model interfaces: hands out
/// SeededMeanModel instances whose prior is the tier's aggregate for one
/// (term, stream). Borrowed tier; a null tier yields unseeded models (pure
/// hot-window behavior), so callers need no history-on/off branches.
class LongHorizonBaseline {
 public:
  explicit LongHorizonBaseline(const ColdTier* tier) : tier_(tier) {}

  /// Model whose prior is (tier StreamSum, tier covered_length()): feed it
  /// the hot-window series starting at folded_until() and Expected() tracks
  /// the global mean over the full covered horizon.
  std::unique_ptr<ExpectedFrequencyModel> ModelFor(TermId term,
                                                   StreamId stream) const {
    return std::make_unique<SeededMeanModel>(SeedFor(term, stream));
  }

  const ColdTier* tier() const { return tier_; }

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
