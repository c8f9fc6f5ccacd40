// Shared plumbing for the table/figure reproduction harnesses: one cached
// Topix corpus per process, the standard expected-model factory, and the
// pattern-mining wrappers every experiment uses.

#ifndef STBURST_BENCH_BENCH_COMMON_H_
#define STBURST_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "stburst/core/batch_miner.h"
#include "stburst/core/stcomb.h"
#include "stburst/core/stlocal.h"
#include "stburst/gen/topix_sim.h"
#include "stburst/stream/frequency.h"

namespace stburst {
namespace bench {

/// The corpus configuration every experiment shares (documented in
/// EXPERIMENTS.md). mean_docs_per_week 6 yields ~60k documents; the paper's
/// 305k corpus is reproduced in shape, scaled down for harness runtime.
inline TopixOptions StandardTopixOptions() {
  TopixOptions o;
  o.mean_docs_per_week = 6.0;
  o.background_vocab = 20000;  // news-like: a long tail of rare terms
  o.use_mds = true;
  return o;
}

/// Generates (or exits on failure) the standard corpus.
inline TopixSimulator MakeTopix() {
  auto sim = TopixSimulator::Generate(StandardTopixOptions());
  if (!sim.ok()) {
    std::fprintf(stderr, "Topix generation failed: %s\n",
                 sim.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*sim);
}

/// Expected-frequency model used across the experiments: running mean with
/// a Laplace-style prior floor, so streams that never mention a term are
/// mildly negative rather than exactly neutral and rectangles stay tight
/// (see PriorFloorModel in core/expected.h).
inline constexpr double kExpectedPriorFloor = 0.2;

inline ExpectedModelFactory MeanFactory() {
  return WithPriorFloor([] { return std::make_unique<GlobalMeanModel>(); },
                        kExpectedPriorFloor);
}

/// Standard STComb configuration for the Topix experiments: a small
/// burstiness floor removes background-noise intervals.
inline StComb MakeStComb(size_t max_patterns = static_cast<size_t>(-1)) {
  StCombOptions opts;
  opts.min_interval_burstiness = 0.1;
  opts.max_patterns = max_patterns;
  return StComb(opts);
}

/// Mines the top combinatorial pattern across a query's terms; false if no
/// term yields one.
inline bool TopCombinatorialPattern(const FrequencyIndex& freq,
                                    const std::vector<TermId>& terms,
                                    CombinatorialPattern* out) {
  StComb miner = MakeStComb(1);
  bool found = false;
  for (TermId term : terms) {
    auto patterns = miner.MinePatterns(freq.DenseSeries(term));
    if (!patterns.empty() && (!found || patterns[0].score > out->score)) {
      *out = patterns[0];
      found = true;
    }
  }
  return found;
}

/// Mines the top regional window across a query's terms; false if none.
inline bool TopRegionalWindow(const FrequencyIndex& freq,
                              const std::vector<Point2D>& positions,
                              const std::vector<TermId>& terms,
                              SpatiotemporalWindow* out) {
  bool found = false;
  for (TermId term : terms) {
    auto windows =
        MineRegionalPatterns(freq.DenseSeries(term), positions, MeanFactory());
    if (!windows.ok() || windows->empty()) continue;
    if (!found || (*windows)[0].score > out->score) {
      *out = (*windows)[0];
      found = true;
    }
  }
  return found;
}

/// Whole-vocabulary combinatorial mining through the batch engine with the
/// standard experiment configuration.
inline StatusOr<BatchMineResult> MineVocabulary(const FrequencyIndex& freq,
                                                size_t num_threads) {
  BatchMinerOptions opts;
  opts.stcomb.min_interval_burstiness = 0.1;
  opts.num_threads = num_threads;
  return MineAllTerms(freq, opts);
}

/// Machine-readable perf log: every harness appends (op, ns/op, items)
/// entries and writes one BENCH_<name>.json so the perf trajectory is
/// trackable across PRs. Schema:
///   {"benchmark": "...",
///    "corpus": {"documents": D, "streams": n, "terms": V, "timeline": L},
///    "results": [{"op": "...", "ns_per_op": X, "items": N}, ...]}
class PerfJson {
 public:
  explicit PerfJson(std::string benchmark) : benchmark_(std::move(benchmark)) {}

  void SetCorpus(size_t documents, size_t streams, size_t terms,
                 Timestamp timeline) {
    corpus_ = StringPrintf(
        "{\"documents\": %zu, \"streams\": %zu, \"terms\": %zu, "
        "\"timeline\": %d}",
        documents, streams, terms, timeline);
  }

  /// Records one measurement: `ns_per_op` nanoseconds per logical op over
  /// `items` processed units (0 when not meaningful).
  void Add(const std::string& op, double ns_per_op, size_t items = 0) {
    entries_.push_back(StringPrintf(
        "{\"op\": \"%s\", \"ns_per_op\": %.1f, \"items\": %zu}", op.c_str(),
        ns_per_op, items));
  }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"benchmark\": \"%s\",\n  \"corpus\": %s,\n"
                 "  \"results\": [\n", benchmark_.c_str(), corpus_.c_str());
    for (size_t i = 0; i < entries_.size(); ++i) {
      std::fprintf(f, "    %s%s\n", entries_[i].c_str(),
                   i + 1 < entries_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("perf json written to %s\n", path.c_str());
    return true;
  }

 private:
  std::string benchmark_;
  std::string corpus_ = "{}";
  std::vector<std::string> entries_;
};

}  // namespace bench
}  // namespace stburst

#endif  // STBURST_BENCH_BENCH_COMMON_H_
