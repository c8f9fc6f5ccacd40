#include "stburst/core/expected.h"

#include <algorithm>

#include "stburst/common/logging.h"

namespace stburst {

namespace {

// Every model here lacks history only at the row's first entry.
size_t FirstEntryFresh(std::span<const double> y) {
  return std::min<size_t>(1, y.size());
}

}  // namespace

size_t GlobalMeanModel::Expected(std::span<const double> y,
                                 std::span<double> e) const {
  // Across the leading zeros (of either sign) the mean stays exactly +0.0,
  // so the division chain starts at the first nonzero cell.
  size_t i = 0;
  for (; i < y.size() && y[i] == 0.0; ++i) e[i] = 0.0;
  double mean = 0.0;
  for (; i < y.size(); ++i) {
    e[i] = mean;
    mean += (y[i] - mean) / static_cast<double>(i + 1);
  }
  return FirstEntryFresh(y);
}

WindowMeanModel::WindowMeanModel(size_t window) : window_(window) {
  STB_CHECK(window > 0) << "window must be positive";
}

size_t WindowMeanModel::Expected(std::span<const double> y,
                                 std::span<double> e) const {
  double sum = 0.0;
  for (size_t i = 0; i < y.size(); ++i) {
    const size_t count = std::min(i, window_);
    e[i] = count == 0 ? 0.0 : sum / static_cast<double>(count);
    sum += y[i];
    if (i >= window_) sum -= y[i - window_];
  }
  return FirstEntryFresh(y);
}

EwmaModel::EwmaModel(double alpha) : alpha_(alpha) {
  STB_CHECK(alpha > 0.0 && alpha <= 1.0) << "Ewma alpha must be in (0, 1]";
}

size_t EwmaModel::Expected(std::span<const double> y,
                           std::span<double> e) const {
  double value = 0.0;
  for (size_t i = 0; i < y.size(); ++i) {
    e[i] = value;
    value = i == 0 ? y[i] : alpha_ * y[i] + (1.0 - alpha_) * value;
  }
  return FirstEntryFresh(y);
}

SeasonalMeanModel::SeasonalMeanModel(size_t period) : period_(period) {
  STB_CHECK(period > 0) << "period must be positive";
}

size_t SeasonalMeanModel::Expected(std::span<const double> y,
                                   std::span<double> e) const {
  // Entry i is the (i / period)-th observation of its phase.
  std::vector<double> phase_mean(std::min(period_, y.size()), 0.0);
  double mean = 0.0;
  for (size_t i = 0; i < y.size(); ++i) {
    double& phase = phase_mean[i % period_];
    const size_t seen = i / period_;
    e[i] = seen > 0 ? phase : mean;
    phase += (y[i] - phase) / static_cast<double>(seen + 1);
    mean += (y[i] - mean) / static_cast<double>(i + 1);
  }
  return FirstEntryFresh(y);
}

size_t PriorFloorModel::Expected(std::span<const double> y,
                                 std::span<double> e) const {
  // The inner model leaves E at 0 where it has no history.
  inner_->Expected(y, e);
  for (double& v : e) v = v > floor_ ? v : floor_;
  return 0;
}

ExpectedModelFactory WithPriorFloor(ExpectedModelFactory inner, double floor) {
  return [inner = std::move(inner), floor] {
    return std::make_unique<PriorFloorModel>(inner(), floor);
  };
}

void BurstinessSeries(std::span<const double> y,
                      const ExpectedFrequencyModel& model,
                      std::span<double> b) {
  STB_DCHECK(b.size() == y.size()) << "burstiness/row length mismatch";
  // b holds E first; over the prefix without history E is 0, and so is b.
  const size_t fresh = model.Expected(y, b);
  for (size_t i = fresh; i < y.size(); ++i) b[i] = y[i] - b[i];
}

std::vector<double> BurstinessSeries(std::span<const double> y,
                                     const ExpectedFrequencyModel& model) {
  std::vector<double> b(y.size());
  BurstinessSeries(y, model, b);
  return b;
}

}  // namespace stburst
