// Regional monitor: track a localized event through the streaming STLocal
// pipeline, the way a news-monitoring deployment would.
//
// Simulates the paper's Topix setting (181 country streams, 48 weeks) and
// feeds the snapshots of a chosen tier-3 query ("Vieira" — the Guinea-Bissau
// assassination) through StLocal one week at a time, printing the live
// state as data arrives and the final maximal windows at the end.
//
// Run: ./build/examples/regional_monitor

#include <cstdio>
#include <memory>
#include <vector>

#include "stburst/core/expected.h"
#include "stburst/core/stlocal.h"
#include "stburst/gen/topix_sim.h"
#include "stburst/stream/frequency.h"

using namespace stburst;

int main() {
  std::printf("Generating the simulated Topix corpus (181 countries, "
              "48 weeks)...\n");
  TopixOptions options;
  options.mean_docs_per_week = 6.0;
  auto sim = TopixSimulator::Generate(options);
  if (!sim.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 sim.status().ToString().c_str());
    return 1;
  }
  const Collection& corpus = sim->collection();
  std::printf("  %zu documents\n\n", corpus.num_documents());

  const size_t kEvent = 13;  // "Vieira", tier 3
  const MajorEvent& event = sim->events()[kEvent];
  std::printf("Monitoring query \"%s\" (%s)\n\n",
              std::string(event.query).c_str(),
              std::string(event.description).c_str());

  FrequencyIndex freq = FrequencyIndex::Build(corpus);
  TermId term = sim->QueryTerms(kEvent)[0];
  TermSeries series = freq.DenseSeries(term);
  std::vector<Point2D> positions = corpus.StreamPositions();

  // One expected-frequency model scores every stream's row. Its E at week
  // i reads only the weeks before i, so the snapshots below carry exactly
  // the values a live deployment would have had as each week arrived.
  const PriorFloorModel model(std::make_unique<GlobalMeanModel>(), 0.05);
  const size_t n = positions.size();
  const std::vector<double> burstiness = SnapshotBurstiness(series, model);

  auto binning = SpatialBinning::Create(positions);
  if (!binning.ok()) {
    std::fprintf(stderr, "binning failed: %s\n",
                 binning.status().ToString().c_str());
    return 1;
  }
  StLocal miner(*binning);
  for (Timestamp week = 0; week < corpus.timeline_length(); ++week) {
    Status st = miner.ProcessSnapshot(
        std::span<const double>(burstiness.data() + week * n, n));
    if (!st.ok()) {
      std::fprintf(stderr, "snapshot failed: %s\n", st.ToString().c_str());
      return 1;
    }
    if (miner.num_live_sequences() > 0) {
      std::printf("week %2d: %2zu live region(s), %2zu open window(s)\n", week,
                  miner.num_live_sequences(), miner.num_open_windows());
    }
  }

  auto windows = miner.Finish();
  std::printf("\n%zu maximal spatiotemporal windows; strongest first:\n",
              windows.size());
  for (size_t i = 0; i < windows.size() && i < 5; ++i) {
    const auto& w = windows[i];
    std::printf("  w-score %7.2f  weeks [%2d, %2d]  %3zu countries:",
                w.score, w.timeframe.start, w.timeframe.end, w.streams.size());
    for (size_t j = 0; j < w.streams.size() && j < 6; ++j) {
      std::printf(" %s", corpus.stream(w.streams[j]).name.c_str());
    }
    if (w.streams.size() > 6) std::printf(" ...");
    std::printf("\n");
  }

  // Compare to the ground truth the simulator injected.
  auto truth = sim->AffectedStreams(kEvent);
  Interval frame = sim->RelevantTimeframe(kEvent);
  std::printf("\nGround truth: %zu countries affected during weeks [%d, %d]\n",
              truth.size(), frame.start, frame.end);
  return 0;
}
