#include "stburst/core/stlocal.h"

#include <algorithm>
#include <utility>

#include "stburst/common/logging.h"

namespace stburst {

StLocal::StLocal(const SpatialBinning& binning, StLocalOptions options)
    : binning_(&binning), options_(options) {}

Status StLocal::ProcessSnapshot(std::span<const double> burstiness) {
  if (burstiness.size() != num_streams()) {
    return Status::InvalidArgument("burstiness size does not match stream count");
  }

  // Line 6: bursty rectangles of this snapshot, against the standing
  // binning.
  STB_ASSIGN_OR_RETURN(std::vector<BurstyRectangle> rects,
                       RBursty(*binning_, burstiness, options_.rbursty));

  // Line 7: open a sequence for every newly seen region. The stream set is
  // the map key and nothing else: try_emplace hashes the set it is handed
  // and moves it in only on actual insertion — one lookup, zero copies.
  for (BurstyRectangle& r : rects) {
    auto [it, inserted] = live_.try_emplace(std::move(r.streams));
    if (inserted) {
      it->second.rect = r.rect;
      it->second.born = time_;
    }
  }

  // Lines 8-12: extend every live sequence with this snapshot's r-score of
  // its region, update its maximal windows, retire on negative total.
  for (auto it = live_.begin(); it != live_.end();) {
    Sequence& seq = it->second;
    double r_score = 0.0;
    for (StreamId s : it->first) r_score += burstiness[s];
    seq.segments.Add(r_score);
    if (seq.segments.total() < 0.0) {
      Retire(it->first, seq);
      it = live_.erase(it);
    } else {
      ++it;
    }
  }

  ++time_;
  return Status::OK();
}

void StLocal::Retire(const std::vector<StreamId>& streams, const Sequence& seq) {
  for (const Segment& seg : seq.segments.CurrentSegments()) {
    // Rounding can leave a maximal segment scoring 0; that is no burst.
    if (seg.score <= 0.0) continue;
    SpatiotemporalWindow w;
    w.region = seq.rect;
    w.streams = streams;
    w.timeframe = Interval{seq.born + static_cast<Timestamp>(seg.start),
                           seq.born + static_cast<Timestamp>(seg.end)};
    w.score = seg.score;
    finished_.push_back(std::move(w));
  }
}

std::vector<SpatiotemporalWindow> StLocal::Finish() {
  for (const auto& [streams, seq] : live_) Retire(streams, seq);
  live_.clear();
  std::vector<SpatiotemporalWindow> out = finished_;
  std::sort(out.begin(), out.end(),
            [](const SpatiotemporalWindow& a, const SpatiotemporalWindow& b) {
              return a.score > b.score;
            });
  return out;
}

size_t StLocal::num_open_windows() const {
  size_t total = 0;
  for (const auto& [key, seq] : live_) total += seq.segments.num_candidates();
  return total;
}

std::vector<double> SnapshotBurstiness(const TermSeries& series,
                                       const ExpectedFrequencyModel& model) {
  const size_t n = series.num_streams();
  const size_t timeline = static_cast<size_t>(series.timeline_length());
  std::vector<double> burstiness(n * timeline);
  std::vector<double> row(timeline);
  for (StreamId s = 0; s < n; ++s) {
    BurstinessSeries(series.StreamRow(s), model, row);
    for (size_t t = 0; t < timeline; ++t) burstiness[t * n + s] = row[t];
  }
  return burstiness;
}

StatusOr<std::vector<SpatiotemporalWindow>> MineRegionalPatterns(
    const TermSeries& series, const std::vector<Point2D>& positions,
    const ExpectedModelFactory& model_factory, const StLocalOptions& options) {
  if (series.num_streams() != positions.size()) {
    return Status::InvalidArgument("series/positions stream count mismatch");
  }
  STB_ASSIGN_OR_RETURN(SpatialBinning binning,
                       SpatialBinning::Create(positions, options.rbursty.rect));
  return MineRegionalPatterns(series, binning, *model_factory(), options);
}

StatusOr<std::vector<SpatiotemporalWindow>> MineRegionalPatterns(
    const TermSeries& series, const SpatialBinning& binning,
    const ExpectedFrequencyModel& model, const StLocalOptions& options) {
  if (series.num_streams() != binning.num_points()) {
    return Status::InvalidArgument("series/binning stream count mismatch");
  }
  const size_t n = series.num_streams();
  const std::vector<double> burstiness = SnapshotBurstiness(series, model);
  StLocal miner(binning, options);
  for (Timestamp t = 0; t < series.timeline_length(); ++t) {
    STB_RETURN_NOT_OK(miner.ProcessSnapshot(std::span<const double>(
        burstiness.data() + static_cast<size_t>(t) * n, n)));
  }
  return miner.Finish();
}

}  // namespace stburst
