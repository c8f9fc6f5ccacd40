// Expected-frequency baselines E_x[i][t] (paper §4, Eq. 7).
//
// The burstiness of term t at stream Dx and timestamp i is the discrepancy
//     B(t, Dx[i]) = Dx[i][t] − Ex[i][t]
// between observed and expected frequency. The paper leaves the baseline
// pluggable ("the average observed frequency ... over all the snapshots
// collected before timestamp i", "only the most recent measurements", or
// seasonal data); this module provides those models behind one interface:
// a const call over one stream's whole row of frequencies that writes
// E[i] for every i from y[0, i) alone. Models are strictly causal and
// stateless between calls, so one model serves every (stream, term) row
// and every thread at once. BurstinessSeries is the one place that turns
// a row and its expectations into y − E.

#ifndef STBURST_CORE_EXPECTED_H_
#define STBURST_CORE_EXPECTED_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <vector>

namespace stburst {

/// Causal expected-frequency model, applied to one (stream, term) row at a
/// time.
class ExpectedFrequencyModel {
 public:
  virtual ~ExpectedFrequencyModel() = default;

  /// Writes e[i], the expected frequency at timestamp i, for every i of
  /// the row `y` (e.size() == y.size()), using only y[0, i). Returns the
  /// length of the leading prefix that has no history (0 or 1 for every
  /// model here), over which e must be 0: BurstinessSeries scores that
  /// prefix 0, and PriorFloorModel floors it like any other E of 0.
  virtual size_t Expected(std::span<const double> y,
                          std::span<double> e) const = 0;
};

/// Builds the model a mining call applies to every row. Each miner calls it
/// once per call, on the calling thread, and shares the const result with
/// its workers.
using ExpectedModelFactory =
    std::function<std::unique_ptr<ExpectedFrequencyModel>()>;

/// E[i] = mean of all observations before i (the paper's default
/// baseline), kept as a Welford running mean: mean += (y − mean) / n.
class GlobalMeanModel : public ExpectedFrequencyModel {
 public:
  size_t Expected(std::span<const double> y,
                  std::span<double> e) const override;
};

/// E[i] = mean of the most recent `window` observations ("only the most
/// recent measurements"), as a running sum that adds y[i−1] and then drops
/// y[i−1−window].
class WindowMeanModel : public ExpectedFrequencyModel {
 public:
  explicit WindowMeanModel(size_t window);

  size_t Expected(std::span<const double> y,
                  std::span<double> e) const override;

 private:
  size_t window_;
};

/// Exponentially-weighted recent mean with smoothing alpha in (0, 1] — a
/// smooth version of the sliding window. The first observation initializes
/// the average; each later one blends in as alpha·y + (1 − alpha)·E.
class EwmaModel : public ExpectedFrequencyModel {
 public:
  explicit EwmaModel(double alpha);

  size_t Expected(std::span<const double> y,
                  std::span<double> e) const override;

 private:
  double alpha_;
};

/// E[i] = mean of observations at i−p, i−2p, ... for period p ("data from
/// previous timeframes ... e.g. the Dec. of previous years"), a Welford
/// mean per phase. Falls back to the global mean until a same-phase
/// observation exists.
class SeasonalMeanModel : public ExpectedFrequencyModel {
 public:
  explicit SeasonalMeanModel(size_t period);

  size_t Expected(std::span<const double> y,
                  std::span<double> e) const override;

 private:
  size_t period_;
};

/// Wraps another model and imposes a minimum expected frequency — a
/// Laplace-style prior: a stream that has never mentioned a term still
/// carries a small expectation. Under the discrepancy score (Eq. 7) this
/// makes silent streams mildly negative instead of exactly neutral, so
/// R-Bursty's rectangles pay for every silent stream they cover and stay
/// tight around the sources that actually report; with a neutral 0 a
/// rectangle could sweep up any number of silent streams for free. The
/// prior counts as history, so the floor applies from the first snapshot.
class PriorFloorModel : public ExpectedFrequencyModel {
 public:
  PriorFloorModel(std::unique_ptr<ExpectedFrequencyModel> inner, double floor)
      : inner_(std::move(inner)), floor_(floor) {}

  size_t Expected(std::span<const double> y,
                  std::span<double> e) const override;

 private:
  std::unique_ptr<ExpectedFrequencyModel> inner_;
  double floor_;
};

/// Decorates a factory with PriorFloorModel.
ExpectedModelFactory WithPriorFloor(ExpectedModelFactory inner, double floor);

/// Writes the burstiness series b[i] = y[i] − E[i] of one stream's row
/// under `model` (b.size() == y.size()). The leading entries without
/// history are scored 0 rather than y[i], so that the very first snapshot
/// is not spuriously bursty for every term.
void BurstinessSeries(std::span<const double> y,
                      const ExpectedFrequencyModel& model,
                      std::span<double> b);

/// The same series, returned.
std::vector<double> BurstinessSeries(std::span<const double> y,
                                     const ExpectedFrequencyModel& model);

}  // namespace stburst

#endif  // STBURST_CORE_EXPECTED_H_
