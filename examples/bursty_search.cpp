// Bursty-document search: the paper's §5 engine end to end.
//
// Builds three engines over the simulated Topix corpus — regional
// (STLocal patterns), combinatorial (STComb patterns), and the
// temporal-only TB baseline — runs a few Major-Events queries through each,
// and prints the top documents with their provenance so the differences in
// what each engine surfaces are visible.
//
// Run: ./build/examples/bursty_search

#include <cstdio>
#include <memory>
#include <string>

#include "stburst/core/stcomb.h"
#include "stburst/core/stlocal.h"
#include "stburst/gen/topix_sim.h"
#include "stburst/index/search_engine.h"
#include "stburst/index/tb_engine.h"

using namespace stburst;

namespace {

ExpectedModelFactory MeanFactory() {
  // Running mean with a Laplace prior floor: silent streams cost rectangle
  // area, keeping regional patterns tight (see PriorFloorModel in
  // core/expected.h).
  return WithPriorFloor([] { return std::make_unique<GlobalMeanModel>(); },
                        0.05);
}

void PrintTop(const TopixSimulator& sim, const char* engine_name,
              const TopKResult& result, size_t event_index) {
  const Collection& corpus = sim.collection();
  std::printf("  [%s] top %zu (sorted accesses: %zu, early stop: %s)\n",
              engine_name, result.docs.size(), result.sorted_accesses,
              result.early_terminated ? "yes" : "no");
  size_t relevant = 0;
  for (size_t i = 0; i < result.docs.size(); ++i) {
    const Document& doc = corpus.document(result.docs[i].doc);
    bool rel = sim.IsRelevant(doc.id, event_index);
    relevant += rel ? 1 : 0;
    if (i < 3) {
      std::printf("    #%zu doc %-7u %-14s week %2d  %s\n", i + 1, doc.id,
                  corpus.stream(doc.stream).name.c_str(), doc.time,
                  rel ? "RELEVANT" : "not relevant");
    }
  }
  std::printf("    precision@%zu = %.2f\n", result.docs.size(),
              result.docs.empty()
                  ? 0.0
                  : static_cast<double>(relevant) / result.docs.size());
}

}  // namespace

int main() {
  TopixOptions options;
  options.mean_docs_per_week = 6.0;
  auto sim = TopixSimulator::Generate(options);
  if (!sim.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 sim.status().ToString().c_str());
    return 1;
  }
  const Collection& corpus = sim->collection();
  FrequencyIndex freq = FrequencyIndex::Build(corpus);

  // A tier-1, a tier-2, and two tier-3 queries.
  const size_t kQueries[] = {3, 10, 13, 16};

  for (size_t event_index : kQueries) {
    const MajorEvent& event = sim->events()[event_index];
    std::printf("\nquery \"%s\" (tier %d)\n", std::string(event.query).c_str(),
                event.tier);
    auto terms = sim->QueryTerms(event_index);

    // Mine patterns per query term, for each engine flavor.
    PatternIndex regional, combinatorial;
    StCombOptions copts;
    copts.min_interval_burstiness = 0.1;
    StComb stcomb(copts);
    for (TermId term : terms) {
      TermSeries series = freq.DenseSeries(term);
      auto windows =
          MineRegionalPatterns(series, corpus.StreamPositions(), MeanFactory());
      if (windows.ok()) {
        for (const auto& w : *windows) regional.AddWindow(term, w);
      }
      for (const auto& p : stcomb.MinePatterns(series)) {
        combinatorial.AddCombinatorial(term, p);
      }
    }
    PatternIndex tb = BuildTbPatternIndex(freq, terms);

    auto regional_engine = BurstySearchEngine::Build(corpus, regional);
    auto comb_engine = BurstySearchEngine::Build(corpus, combinatorial);
    auto tb_engine = BurstySearchEngine::Build(corpus, tb);

    PrintTop(*sim, "STLocal", regional_engine.Search(terms, 10), event_index);
    PrintTop(*sim, "STComb ", comb_engine.Search(terms, 10), event_index);
    PrintTop(*sim, "TB     ", tb_engine.Search(terms, 10), event_index);
  }
  return 0;
}
