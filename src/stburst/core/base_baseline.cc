#include "stburst/core/base_baseline.h"

#include <algorithm>
#include <numeric>

#include "stburst/common/logging.h"

namespace stburst {

std::vector<Interval> BaseBinarizedIntervals(const std::vector<double>& burstiness,
                                             int gap_fill) {
  const size_t n = burstiness.size();
  std::vector<uint8_t> bits(n);
  for (size_t i = 0; i < n; ++i) bits[i] = burstiness[i] > 0.0 ? 1 : 0;

  // Fill interior zero-runs shorter than gap_fill ("not in the beginning or
  // end of the sequence").
  size_t i = 0;
  while (i < n) {
    if (bits[i] != 0) {
      ++i;
      continue;
    }
    size_t j = i;
    while (j < n && bits[j] == 0) ++j;
    bool interior = i > 0 && j < n;
    if (interior && static_cast<int>(j - i) < gap_fill) {
      for (size_t k = i; k < j; ++k) bits[k] = 1;
    }
    i = j;
  }

  std::vector<Interval> intervals;
  i = 0;
  while (i < n) {
    if (bits[i] == 0) {
      ++i;
      continue;
    }
    size_t j = i;
    while (j < n && bits[j] == 1) ++j;
    intervals.push_back(Interval{static_cast<Timestamp>(i),
                                 static_cast<Timestamp>(j - 1)});
    i = j;
  }
  return intervals;
}

std::vector<BasePattern> BaseMine(const TermSeries& series,
                                  const ExpectedModelFactory& model_factory,
                                  const BaseOptions& options,
                                  const std::vector<StreamId>* order) {
  std::vector<StreamId> stream_order;
  if (order != nullptr) {
    stream_order = *order;
  } else {
    stream_order.resize(series.num_streams());
    std::iota(stream_order.begin(), stream_order.end(), 0);
  }

  const std::unique_ptr<ExpectedFrequencyModel> model = model_factory();
  std::vector<BasePattern> patterns;
  for (StreamId s : stream_order) {
    STB_CHECK(s < series.num_streams()) << "stream order references stream " << s;
    std::vector<double> b = BurstinessSeries(series.StreamRow(s), *model);
    for (const Interval& interval :
         BaseBinarizedIntervals(b, options.gap_fill)) {
      // Find the best-matching existing pattern.
      BasePattern* best = nullptr;
      double best_sim = options.merge_jaccard;
      for (BasePattern& p : patterns) {
        double sim = p.timeframe.TemporalJaccard(interval);
        if (sim >= best_sim) {
          best_sim = sim;
          best = &p;
        }
      }
      if (best != nullptr) {
        // "I and I' are merged, and I' ∩ I replaces I' in I."
        best->timeframe = best->timeframe.Intersect(interval);
        if (!std::binary_search(best->streams.begin(), best->streams.end(), s)) {
          best->streams.insert(
              std::lower_bound(best->streams.begin(), best->streams.end(), s),
              s);
        }
      } else {
        patterns.push_back(BasePattern{{s}, interval});
      }
    }
  }
  return patterns;
}

}  // namespace stburst
