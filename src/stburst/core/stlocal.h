// STLocal (paper §4, Algorithm 2): online mining of maximal spatiotemporal
// windows for one term.
//
// For every snapshot, R-Bursty proposes bursty rectangles; each distinct
// region (identified by the set of streams it covers) owns a sequence of
// per-timestamp r-scores, and an online Ruzzo–Tompa instance over that
// sequence maintains the region's maximal windows. A sequence whose running
// total drops below zero can never seed another maximal window and is
// retired (lines 11-12 of the algorithm).

#ifndef STBURST_CORE_STLOCAL_H_
#define STBURST_CORE_STLOCAL_H_

#include <map>
#include <memory>
#include <span>
#include <vector>

#include "stburst/common/statusor.h"
#include "stburst/core/expected.h"
#include "stburst/core/getmax.h"
#include "stburst/core/pattern.h"
#include "stburst/core/rbursty.h"
#include "stburst/geo/point.h"
#include "stburst/stream/frequency.h"

namespace stburst {

struct StLocalOptions {
  RBurstyOptions rbursty;
};

/// Per-term online miner. Feed one snapshot of per-stream burstiness values
/// per timestamp; call Finish() once the stream closes.
///
/// Binning: R-Bursty's cell geometry depends only on the stream positions,
/// so the miner solves every snapshot against one SpatialBinning, built
/// once by the code that holds the positions and shared by every miner over
/// them (see docs/ARCHITECTURE.md, "Shared spatial binning").
class StLocal {
 public:
  /// Mines over the binning's points: stream s is binned point s, and the
  /// binning fixes the cell geometry (options.rbursty.rect is not read).
  /// The binning is not owned and must outlive the miner.
  explicit StLocal(const SpatialBinning& binning, StLocalOptions options = {});

  /// Processes the snapshot for the next timestamp. `burstiness[s]` is
  /// B(t, Dx[i]) per Eq. 7. Must match the stream count.
  Status ProcessSnapshot(std::span<const double> burstiness);
  Status ProcessSnapshot(const std::vector<double>& burstiness) {
    return ProcessSnapshot(std::span<const double>(burstiness));
  }

  /// Retires all live sequences and returns every maximal window found, in
  /// descending w-score order. The miner can keep processing afterwards;
  /// Finish() is idempotent on a closed stream.
  std::vector<SpatiotemporalWindow> Finish();

  /// Timestamps processed so far.
  Timestamp current_time() const { return time_; }

  /// Streams this miner was constructed over.
  size_t num_streams() const { return binning_->num_points(); }

  /// Live region sequences (bounded by n·L in theory, tiny in practice —
  /// Figure 6's subject).
  size_t num_live_sequences() const { return live_.size(); }

  /// Maximal-window candidates currently maintained across live sequences.
  size_t num_open_windows() const;

 private:
  struct Sequence {
    Rect rect;           // geometry when first reported
    Timestamp born = 0;  // timestamp of the first score
    OnlineMaxSegments segments;
  };

  /// Moves a sequence's maximal segments into finished_. `streams` is the
  /// region identity — the sequence's key in live_.
  void Retire(const std::vector<StreamId>& streams, const Sequence& seq);

  const SpatialBinning* binning_;
  StLocalOptions options_;
  Timestamp time_ = 0;
  // Keyed by the region's canonical stream set so a region re-reported on a
  // later snapshot extends its existing sequence. The key IS the region
  // identity; sequences do not duplicate it.
  std::map<std::vector<StreamId>, Sequence> live_;
  std::vector<SpatiotemporalWindow> finished_;
};

/// Burstiness of every (stream, timestamp) cell of `series` under `model`
/// (BurstinessSeries of each stream row), laid out time-major: snapshot t
/// occupies [t·n, (t+1)·n) for n streams — the span StLocal's
/// ProcessSnapshot and RBursty take.
std::vector<double> SnapshotBurstiness(const TermSeries& series,
                                       const ExpectedFrequencyModel& model);

/// Batch driver for one term: derives per-stream burstiness from the
/// frequency matrix with one expected-frequency model applied to every
/// stream row (SnapshotBurstiness), replays the timeline through StLocal,
/// and returns the maximal windows. Timeframes are relative to the series'
/// first column: over a windowed index's DenseSeries they count from the
/// window's first timestamp, and the batch miner shifts them back to
/// absolute time.
///
/// This form builds the binning of `positions` under options.rbursty.rect
/// and calls `model_factory` once, for the one call.
StatusOr<std::vector<SpatiotemporalWindow>> MineRegionalPatterns(
    const TermSeries& series, const std::vector<Point2D>& positions,
    const ExpectedModelFactory& model_factory,
    const StLocalOptions& options = {});

/// The same driver over a binning of the stream positions built by the
/// caller (it fixes the cell geometry; options.rbursty.rect is not read)
/// and a model built by the caller. The batch miner builds one binning and
/// one model per call and shares both, read-only, across its workers.
StatusOr<std::vector<SpatiotemporalWindow>> MineRegionalPatterns(
    const TermSeries& series, const SpatialBinning& binning,
    const ExpectedFrequencyModel& model, const StLocalOptions& options);

}  // namespace stburst

#endif  // STBURST_CORE_STLOCAL_H_
