// Figure 5 — Distribution of the average number of bursty rectangles per
// term per timestamp (the paper renders it as a pie chart; we print the
// histogram buckets).
//
// Paper shape: for the vast majority of terms (92%), the average number of
// rectangles per timestamp lies in [0, 1) — far below the n = 181 worst
// case assumed by the complexity analysis.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "stburst/core/rbursty.h"

using namespace stburst;
using namespace stburst::bench;

int main() {
  TopixSimulator sim = MakeTopix();
  const Collection& corpus = sim.collection();
  FrequencyIndex freq = FrequencyIndex::Build(corpus);
  std::vector<Point2D> positions = corpus.StreamPositions();
  const Timestamp weeks = corpus.timeline_length();

  const size_t n = positions.size();
  // Stream positions are fixed, so every snapshot shares one binning.
  auto binning = SpatialBinning::Create(positions);
  if (!binning.ok()) return 1;
  const std::unique_ptr<ExpectedFrequencyModel> model = MeanFactory()();

  // Average #rectangles per timestamp for every term in the vocabulary.
  std::vector<double> avg_rects;
  for (TermId term = 0; term < corpus.vocabulary().size(); ++term) {
    // Terms that never occur trivially produce 0 rectangles; the paper's
    // population is over observed terms.
    if (freq.TotalCount(term) <= 0.0) continue;
    const std::vector<double> burstiness =
        SnapshotBurstiness(freq.DenseSeries(term), *model);
    size_t total_rects = 0;
    for (Timestamp w = 0; w < weeks; ++w) {
      const std::span<const double> snapshot(burstiness.data() + w * n, n);
      auto rects = RBursty(*binning, snapshot);
      if (!rects.ok()) {
        std::fprintf(stderr, "RBursty failed for term %u at week %d: %s\n",
                     static_cast<unsigned>(term), static_cast<int>(w),
                     rects.status().ToString().c_str());
        return 1;
      }
      total_rects += rects->size();
    }
    avg_rects.push_back(static_cast<double>(total_rects) /
                        static_cast<double>(weeks));
  }

  std::printf("=== Figure 5: avg #bursty rectangles per term/timestamp ===\n");
  std::printf("terms analyzed: %zu (n = %zu streams)\n\n", avg_rects.size(),
              positions.size());
  const char* labels[] = {"[0, 1)", "[1, 2)", "[2, 3)", "[3, 4)", "4+"};
  std::vector<int64_t> buckets(5, 0);
  for (double v : avg_rects) {
    size_t b = v < 4.0 ? static_cast<size_t>(v) : 4;
    ++buckets[b];
  }
  for (size_t b = 0; b < buckets.size(); ++b) {
    std::printf("  %-7s %7lld terms  (%5.1f%%)\n", labels[b],
                static_cast<long long>(buckets[b]),
                100.0 * static_cast<double>(buckets[b]) /
                    static_cast<double>(avg_rects.size()));
  }
  std::printf("\nPaper shape check: the [0, 1) bucket dominates (92%% in the\n"
              "paper), orders of magnitude below the n-per-timestamp worst "
              "case.\n");
  return 0;
}
