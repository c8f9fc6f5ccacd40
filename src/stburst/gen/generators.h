// distGen / randGen — synthetic spatiotemporal data generators (paper §B).
//
// Background frequencies are sampled per (stream, timestamp) from an
// exponential distribution (which the paper verified fits the Topix data);
// injected patterns add a Weibull-shaped frequency profile (Eq. 12) whose
// shape k, scale c, and peak P are re-sampled per stream so the same event
// looks different at every affected location.
//
// The two modes differ only in how a pattern's stream set is chosen:
//  - distGen (realistic): a seed stream is drawn uniformly; every additional
//    stream joins with probability decaying in its distance from the seed,
//    giving the spatial locality of real events.
//  - randGen: the stream count is drawn uniformly and the streams sampled
//    uniformly at random — no spatial structure.
//
// Generation is lazy and deterministic: GenerateTerm(t) materializes only
// term t's n x L matrix, from an RNG stream keyed by (seed, t), so huge
// corpora (Figure 8 sweeps up to 128k streams) never exist in memory at
// once.

#ifndef STBURST_GEN_GENERATORS_H_
#define STBURST_GEN_GENERATORS_H_

#include <vector>

#include "stburst/common/random.h"
#include "stburst/common/statusor.h"
#include "stburst/core/interval.h"
#include "stburst/geo/point.h"
#include "stburst/stream/frequency.h"
#include "stburst/stream/types.h"

namespace stburst {

enum class GeneratorMode { kDist, kRand };

struct GeneratorOptions {
  Timestamp timeline = 365;
  size_t num_streams = 200;
  size_t num_terms = 10000;
  size_t num_patterns = 1000;
  uint64_t seed = 42;

  /// Square map side; stream positions are uniform over [0, map_size]^2.
  double map_size = 100.0;
  /// Mean of the exponential background frequency.
  double background_mean = 0.5;
  /// Peak injected frequency P, sampled uniformly per (pattern, stream).
  double peak_min = 8.0;
  double peak_max = 25.0;
  /// Weibull shape k range (k > 1 so the profile rises then decays).
  double shape_min = 1.3;
  double shape_max = 5.0;
  /// Pattern timeframe length range (timestamps).
  Timestamp span_min = 10;
  Timestamp span_max = 45;
  /// Streams per pattern.
  size_t streams_min = 4;
  size_t streams_max = 24;
  /// distGen locality: join probability ∝ exp(−distance / locality_scale).
  /// Small relative to map_size so patterns are clearly regional.
  double locality_scale = 6.0;
};

/// Ground truth for one injected pattern.
struct InjectedPattern {
  TermId term = kInvalidTerm;
  Interval timeframe;
  std::vector<StreamId> streams;  // sorted
};

/// Deterministic lazy generator; see file comment.
class SyntheticGenerator {
 public:
  /// Validates options and precomputes stream positions and the pattern
  /// ground truth (but no frequency data).
  static StatusOr<SyntheticGenerator> Create(GeneratorMode mode,
                                             GeneratorOptions options);

  const GeneratorOptions& options() const { return options_; }
  GeneratorMode mode() const { return mode_; }

  /// Planar stream positions, indexed by StreamId.
  const std::vector<Point2D>& positions() const { return locations_; }

  /// All injected patterns, in generation order.
  const std::vector<InjectedPattern>& patterns() const { return patterns_; }

  /// Indices into patterns() of the patterns injected into `term`.
  std::vector<size_t> PatternsForTerm(TermId term) const;

  /// Materializes term `t`'s full n x L frequency matrix: exponential
  /// background plus this term's injected Weibull bursts.
  TermSeries GenerateTerm(TermId term) const;

 private:
  SyntheticGenerator(GeneratorMode mode, GeneratorOptions options);

  void GeneratePatterns();
  std::vector<StreamId> SampleDistStreams(size_t count, Rng* rng) const;
  std::vector<StreamId> SampleRandStreams(size_t count, Rng* rng) const;

  GeneratorMode mode_;
  GeneratorOptions options_;
  std::vector<Point2D> locations_;
  std::vector<InjectedPattern> patterns_;
  std::vector<std::vector<size_t>> patterns_by_term_;
};

/// The injected Weibull profile: frequency added at offset `x` (0-based
/// timestamps since the pattern's start) for shape k, scale c, peak P. The
/// curve is Eq. 12's PDF rescaled so its maximum over the pattern span
/// equals P (paper: "multiplying all the values in the sequence with v/m").
double InjectedProfile(Timestamp x, double k, double c, double peak);

}  // namespace stburst

#endif  // STBURST_GEN_GENERATORS_H_
