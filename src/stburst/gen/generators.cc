#include "stburst/gen/generators.h"

#include <algorithm>
#include <cmath>

#include "stburst/common/logging.h"

namespace stburst {

namespace {

// Separate RNG streams per purpose so that, e.g., adding terms does not
// perturb the pattern ground truth.
constexpr uint64_t kPositionsSalt = 0x706f736974696f6eULL;
constexpr uint64_t kPatternsSalt = 0x7061747465726e73ULL;
constexpr uint64_t kTermSalt = 0x7465726d64617461ULL;

uint64_t MixSeed(uint64_t seed, uint64_t salt, uint64_t key) {
  uint64_t z = seed ^ salt ^ (key * 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

double InjectedProfile(Timestamp x, double k, double c, double peak) {
  if (x < 0) return 0.0;
  double mode = WeibullMode(k, c);
  // PDF value at the mode; guard the k <= 1 corner (mode at 0, PDF finite
  // only for k == 1) by evaluating slightly inside.
  double at_mode = WeibullPdf(std::max(mode, 1e-9), k, c);
  if (at_mode <= 0.0 || !std::isfinite(at_mode)) return 0.0;
  // Evaluate at x + 1 like the paper (timestamp order 1, 2, ..., |T|).
  return WeibullPdf(static_cast<double>(x) + 1.0, k, c) * peak / at_mode;
}

StatusOr<SyntheticGenerator> SyntheticGenerator::Create(
    GeneratorMode mode, GeneratorOptions options) {
  if (options.timeline <= 0) {
    return Status::InvalidArgument("timeline must be positive");
  }
  if (options.num_streams == 0) {
    return Status::InvalidArgument("need at least one stream");
  }
  if (options.num_terms == 0) {
    return Status::InvalidArgument("need at least one term");
  }
  if (options.span_min <= 0 || options.span_max < options.span_min) {
    return Status::InvalidArgument("invalid pattern span range");
  }
  if (options.streams_min == 0 || options.streams_max < options.streams_min) {
    return Status::InvalidArgument("invalid pattern stream-count range");
  }
  if (options.peak_min <= 0.0 || options.peak_max < options.peak_min) {
    return Status::InvalidArgument("invalid peak range");
  }
  if (options.shape_min <= 1.0 || options.shape_max < options.shape_min) {
    return Status::InvalidArgument("shape range must lie above 1");
  }
  if (options.background_mean <= 0.0) {
    return Status::InvalidArgument("background mean must be positive");
  }
  SyntheticGenerator gen(mode, options);
  gen.GeneratePatterns();
  return gen;
}

SyntheticGenerator::SyntheticGenerator(GeneratorMode mode,
                                       GeneratorOptions options)
    : mode_(mode), options_(options) {
  Rng rng(MixSeed(options_.seed, kPositionsSalt, 0));
  locations_.resize(options_.num_streams);
  for (Point2D& p : locations_) {
    p.x = rng.Uniform(0.0, options_.map_size);
    p.y = rng.Uniform(0.0, options_.map_size);
  }
}

std::vector<StreamId> SyntheticGenerator::SampleDistStreams(size_t count,
                                                            Rng* rng) const {
  const size_t n = options_.num_streams;
  count = std::min(count, n);
  // Seed stream chosen uniformly; the rest join weighted by distance decay.
  StreamId seed = static_cast<StreamId>(rng->NextUint64(n));
  std::vector<StreamId> chosen{seed};
  if (count == 1) return chosen;

  std::vector<double> weight(n);
  std::vector<bool> taken(n, false);
  taken[seed] = true;
  double total = 0.0;
  for (size_t s = 0; s < n; ++s) {
    if (taken[s]) continue;
    double d = EuclideanDistance(locations_[seed], locations_[s]);
    weight[s] = std::exp(-d / options_.locality_scale);
    total += weight[s];
  }
  while (chosen.size() < count && total > 1e-300) {
    double u = rng->NextDouble() * total;
    double acc = 0.0;
    size_t pick = n;
    for (size_t s = 0; s < n; ++s) {
      if (taken[s]) continue;
      acc += weight[s];
      if (acc >= u) {
        pick = s;
        break;
      }
    }
    if (pick == n) {  // numeric fallout: take the last untaken stream
      for (size_t s = n; s > 0; --s) {
        if (!taken[s - 1]) {
          pick = s - 1;
          break;
        }
      }
    }
    taken[pick] = true;
    total -= weight[pick];
    weight[pick] = 0.0;
    chosen.push_back(static_cast<StreamId>(pick));
  }
  std::sort(chosen.begin(), chosen.end());
  return chosen;
}

std::vector<StreamId> SyntheticGenerator::SampleRandStreams(size_t count,
                                                            Rng* rng) const {
  const size_t n = options_.num_streams;
  count = std::min(count, n);
  std::vector<size_t> idx = rng->SampleWithoutReplacement(n, count);
  std::vector<StreamId> out(idx.begin(), idx.end());
  std::sort(out.begin(), out.end());
  return out;
}

void SyntheticGenerator::GeneratePatterns() {
  Rng rng(MixSeed(options_.seed, kPatternsSalt, 0));
  patterns_.reserve(options_.num_patterns);
  patterns_by_term_.assign(options_.num_terms, {});

  for (size_t p = 0; p < options_.num_patterns; ++p) {
    InjectedPattern pattern;
    pattern.term = static_cast<TermId>(rng.NextUint64(options_.num_terms));

    Timestamp span = static_cast<Timestamp>(
        rng.UniformInt(options_.span_min, options_.span_max));
    span = std::min(span, options_.timeline);
    Timestamp latest_start = options_.timeline - span;
    Timestamp start =
        static_cast<Timestamp>(rng.UniformInt(0, latest_start));
    pattern.timeframe = Interval{start, start + span - 1};

    size_t count = static_cast<size_t>(
        rng.UniformInt(static_cast<int64_t>(options_.streams_min),
                       static_cast<int64_t>(options_.streams_max)));
    pattern.streams = mode_ == GeneratorMode::kDist
                          ? SampleDistStreams(count, &rng)
                          : SampleRandStreams(count, &rng);

    patterns_by_term_[pattern.term].push_back(patterns_.size());
    patterns_.push_back(std::move(pattern));
  }
}

std::vector<size_t> SyntheticGenerator::PatternsForTerm(TermId term) const {
  if (term >= patterns_by_term_.size()) return {};
  return patterns_by_term_[term];
}

TermSeries SyntheticGenerator::GenerateTerm(TermId term) const {
  STB_CHECK(term < options_.num_terms) << "term " << term << " out of range";
  TermSeries series(options_.num_streams, options_.timeline);

  // Background: exponential noise everywhere.
  Rng rng(MixSeed(options_.seed, kTermSalt, term));
  const double lambda = 1.0 / options_.background_mean;
  for (StreamId s = 0; s < options_.num_streams; ++s) {
    for (Timestamp t = 0; t < options_.timeline; ++t) {
      series.set(s, t, rng.Exponential(lambda));
    }
  }

  // Injected patterns: per-stream Weibull profiles with per-stream
  // parameters (paper: "the values for c, k, P are chosen uniformly at
  // random for each stream, to ensure high variability").
  for (size_t pidx : PatternsForTerm(term)) {
    const InjectedPattern& pattern = patterns_[pidx];
    const Timestamp span = pattern.timeframe.length();
    for (StreamId s : pattern.streams) {
      double k = rng.Uniform(options_.shape_min, options_.shape_max);
      // Scale c so the profile's bulk sits inside the pattern span: the
      // Weibull mode c((k-1)/k)^{1/k} lands in [0.2, 0.7] of the span.
      double c = rng.Uniform(0.3, 0.8) * static_cast<double>(span) /
                 std::max(0.2, std::pow((k - 1.0) / k, 1.0 / k));
      double peak = rng.Uniform(options_.peak_min, options_.peak_max);
      for (Timestamp x = 0; x < span; ++x) {
        series.add(s, pattern.timeframe.start + x, InjectedProfile(x, k, c, peak));
      }
    }
  }
  return series;
}

}  // namespace stburst
