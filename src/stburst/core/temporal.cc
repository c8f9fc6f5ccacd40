#include "stburst/core/temporal.h"

#include "stburst/common/logging.h"

namespace stburst {

double TemporalBurstiness(std::span<const double> y, const Interval& interval) {
  if (y.empty() || !interval.valid()) return 0.0;
  if (interval.start < 0 ||
      static_cast<size_t>(interval.end) >= y.size()) {
    return 0.0;
  }
  double total = 0.0;
  for (double v : y) total += v;
  if (total <= 0.0) return 0.0;

  double in_interval = 0.0;
  for (Timestamp t = interval.start; t <= interval.end; ++t) {
    in_interval += y[static_cast<size_t>(t)];
  }
  return in_interval / total -
         static_cast<double>(interval.length()) / static_cast<double>(y.size());
}

void BurstyIntervalExtractor::Append(std::span<const RowCell> cells,
                                     size_t length, double min_burstiness,
                                     std::vector<BurstyInterval>* out) {
  // W: the zero cells would add +0.0, which leaves an in-order sum that
  // starts at +0.0 unchanged.
  double total = 0.0;
  for (const RowCell& c : cells) total += c.value;
  if (total <= 0.0) return;

  // A zero cell scores 0/W − 1/L: exactly −1/L, unless W is NaN (a NaN
  // cell, or +inf beside −inf). Then every score is NaN, and a zero cell
  // opens and extends candidates like any other cell, so every cell is fed.
  const double baseline = 1.0 / static_cast<double>(length);
  const double zero_score = 0.0 / total - baseline;
  const bool zeros_inert = zero_score <= 0.0;

  // `cells` is nonempty here: no cell, no mass.
  size_t next = 0;  // first column not yet fed
  if (zeros_inert) {
    if (length != length_) {
      length_ = length;
      leading_.assign(1, 0.0);
    }
    next = cells.front().column;
    while (leading_.size() <= next) {
      leading_.push_back(leading_.back() + zero_score);
    }
    getmax_.Reset(next, leading_[next]);
  } else {
    getmax_.Reset();
  }
  for (const RowCell& c : cells) {
    STB_DCHECK(c.column >= next && c.column < length)
        << "cell columns must strictly increase and stay below the length";
    for (; next < c.column; ++next) getmax_.Add(zero_score);
    getmax_.Add(c.value / total - baseline);
    next = c.column + 1;
  }
  // Inert trailing zeros only lower the running total, which no emitted
  // segment reads.
  if (!zeros_inert) {
    for (; next < length; ++next) getmax_.Add(zero_score);
  }

  segments_.clear();
  getmax_.AppendCurrentSegments(&segments_);
  for (const Segment& seg : segments_) {
    if (seg.score <= min_burstiness) continue;
    out->push_back(BurstyInterval{
        Interval{static_cast<Timestamp>(seg.start),
                 static_cast<Timestamp>(seg.end)},
        seg.score});
  }
}

void AppendBurstyIntervals(std::span<const double> y, double min_burstiness,
                           std::vector<BurstyInterval>* out) {
  thread_local std::vector<RowCell> cells;
  thread_local BurstyIntervalExtractor extractor;
  cells.clear();
  for (size_t t = 0; t < y.size(); ++t) {
    if (y[t] != 0.0) cells.push_back(RowCell{t, y[t]});
  }
  extractor.Append(cells, y.size(), min_burstiness, out);
}

std::vector<BurstyInterval> ExtractBurstyIntervals(std::span<const double> y,
                                                   double min_burstiness) {
  std::vector<BurstyInterval> out;
  AppendBurstyIntervals(y, min_burstiness, &out);
  return out;
}

}  // namespace stburst
