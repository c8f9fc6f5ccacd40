// Figure 7 — Running time (ms) per timestamp: online STLocal vs STComb
// re-applied to the growing prefix, emulating the streaming scenario on the
// Topix corpus.
//
// Paper shape: STLocal flat (around 1 ms per term per timestamp at the
// paper's scale); STComb's cost grows with the prefix length but stays
// small in absolute terms.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "stburst/common/timer.h"

using namespace stburst;
using namespace stburst::bench;

int main() {
  TopixSimulator sim = MakeTopix();
  const Collection& corpus = sim.collection();
  FrequencyIndex freq = FrequencyIndex::Build(corpus);
  std::vector<Point2D> positions = corpus.StreamPositions();
  const Timestamp weeks = corpus.timeline_length();
  const size_t n = positions.size();

  // Per-term processing is independent (§6.4), so we time a representative
  // sample of terms and report the average per-term per-timestamp cost.
  std::vector<TermId> terms;
  for (size_t e = 0; e < sim.events().size(); ++e) {
    for (TermId t : sim.QueryTerms(e)) terms.push_back(t);
  }
  for (TermId t = 0; t < corpus.vocabulary().size() && terms.size() < 60;
       t += 23) {
    if (freq.TotalCount(t) > 0.0) terms.push_back(t);
  }

  std::vector<double> stlocal_ms(weeks, 0.0), stcomb_ms(weeks, 0.0);
  StComb stcomb = MakeStComb();
  const std::unique_ptr<ExpectedFrequencyModel> model = MeanFactory()();
  // Stream positions are fixed, so every term's miner shares one binning.
  auto binning = SpatialBinning::Create(positions);
  if (!binning.ok()) return 1;

  for (TermId term : terms) {
    TermSeries series = freq.DenseSeries(term);

    // STLocal: online, one snapshot per tick.
    const std::vector<double> burstiness = SnapshotBurstiness(series, *model);
    StLocal miner(*binning);
    for (Timestamp w = 0; w < weeks; ++w) {
      const std::span<const double> snapshot(burstiness.data() + w * n, n);
      Timer timer;
      if (!miner.ProcessSnapshot(snapshot).ok()) return 1;
      stlocal_ms[w] += timer.ElapsedMillis();
    }

    // STComb: re-applied to the whole prefix at every tick.
    for (Timestamp w = 0; w < weeks; ++w) {
      TermSeries prefix(n, w + 1);
      for (StreamId s = 0; s < n; ++s) {
        for (Timestamp t = 0; t <= w; ++t) prefix.set(s, t, series.at(s, t));
      }
      Timer timer;
      auto patterns = stcomb.MinePatterns(prefix);
      stcomb_ms[w] += timer.ElapsedMillis();
      (void)patterns;
    }
  }

  std::printf("=== Figure 7: running time (ms) per timestamp, per term ===\n");
  std::printf("terms timed: %zu, streams: %zu\n\n", terms.size(), n);
  std::printf("%6s %12s %12s\n", "week", "STComb", "STLocal");
  double denom = static_cast<double>(terms.size());
  PerfJson perf("bench_fig7");
  perf.SetCorpus(corpus.num_documents(), n, corpus.vocabulary().size(), weeks);
  for (Timestamp w = 0; w < weeks; ++w) {
    std::printf("%6d %12.3f %12.3f\n", w, stcomb_ms[w] / denom,
                stlocal_ms[w] / denom);
    perf.Add(StringPrintf("stcomb_week_%d", w), stcomb_ms[w] / denom * 1e6,
             terms.size());
    perf.Add(StringPrintf("stlocal_week_%d", w), stlocal_ms[w] / denom * 1e6,
             terms.size());
  }
  perf.Write("BENCH_fig7.json");
  std::printf("\nPaper shape check: STLocal flat (online, cost independent\n"
              "of the prefix); STComb growing with the prefix length. Note:\n"
              "our clique kernel is fast enough that STComb sits below\n"
              "STLocal at 48 weeks; the paper's crossover appears on longer\n"
              "timelines (see EXPERIMENTS.md).\n");
  return 0;
}
