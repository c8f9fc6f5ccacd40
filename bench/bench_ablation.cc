// Ablation harness for three design choices of the reproduction:
//  (a) exact vs grid discrepancy inside STLocal — result quality and speed;
//  (b) expected-frequency model choice (global mean / window / EWMA) —
//      retrieval quality on distGen;
//  (c) discrepancy-based temporal intervals vs the Kleinberg automaton as
//      STComb's interval source.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "stburst/common/timer.h"
#include "stburst/core/kleinberg.h"
#include "stburst/core/stcomb.h"
#include "stburst/core/stlocal.h"
#include "stburst/eval/pattern_match.h"
#include "stburst/gen/generators.h"

using namespace stburst;

namespace {

GeneratorOptions AblationOptions() {
  GeneratorOptions o;
  o.timeline = 200;
  o.num_streams = 150;
  o.num_terms = 40;
  o.num_patterns = 40;
  o.seed = 5150;
  return o;
}

RetrievalAggregate EvalStLocal(const SyntheticGenerator& gen,
                               const ExpectedModelFactory& factory,
                               const StLocalOptions& opts, double* seconds) {
  // Bound the per-snapshot rectangle count: noise rectangles beyond the
  // first few never win the retrieval match but dominate runtime.
  StLocalOptions bounded = opts;
  bounded.rbursty.max_rectangles = 6;
  Timer timer;
  std::vector<PatternRetrievalScore> scores;
  for (const InjectedPattern& truth : gen.patterns()) {
    TermSeries series = gen.GenerateTerm(truth.term);
    auto windows =
        MineRegionalPatterns(series, gen.positions(), factory, bounded);
    if (!windows.ok()) {
      std::fprintf(stderr, "MineRegionalPatterns failed for term %u: %s\n",
                   static_cast<unsigned>(truth.term),
                   windows.status().ToString().c_str());
      std::exit(1);
    }
    std::vector<MinedPattern> mined;
    for (const auto& w : *windows) {
      mined.push_back(MinedPattern{w.streams, w.timeframe, w.score});
    }
    scores.push_back(ScoreRetrieval(truth.streams, truth.timeframe, mined,
                                    gen.options().timeline));
  }
  *seconds = timer.ElapsedSeconds();
  return Aggregate(scores);
}

}  // namespace

int main() {
  auto gen = SyntheticGenerator::Create(GeneratorMode::kDist, AblationOptions());
  if (!gen.ok()) {
    std::fprintf(stderr, "generator failed\n");
    return 1;
  }

  auto mean_factory = [] {
    return std::unique_ptr<ExpectedFrequencyModel>(new GlobalMeanModel());
  };

  // --- (a) exact vs grid discrepancy ------------------------------------
  std::printf("=== Ablation (a): discrepancy kernel inside STLocal ===\n");
  std::printf("%-14s %10s %12s %10s %10s\n", "kernel", "Jaccard", "StartErr",
              "EndErr", "secs");
  {
    StLocalOptions exact;
    double secs = 0.0;
    auto agg = EvalStLocal(*gen, mean_factory, exact, &secs);
    std::printf("%-14s %10.3f %12.2f %10.2f %10.2f\n", "exact", agg.mean_jaccard,
                agg.mean_start_error, agg.mean_end_error, secs);

    for (size_t g : {16, 32, 64}) {
      StLocalOptions grid;
      grid.rbursty.rect.mode = MaxRectOptions::Mode::kGrid;
      grid.rbursty.rect.grid_cols = g;
      grid.rbursty.rect.grid_rows = g;
      agg = EvalStLocal(*gen, mean_factory, grid, &secs);
      std::printf("grid %-9zu %10.3f %12.2f %10.2f %10.2f\n", g,
                  agg.mean_jaccard, agg.mean_start_error, agg.mean_end_error,
                  secs);
    }
  }

  // --- (b) expected-frequency model choice -------------------------------
  std::printf("\n=== Ablation (b): expected-frequency model (STLocal) ===\n");
  std::printf("%-14s %10s %12s %10s\n", "model", "Jaccard", "StartErr",
              "EndErr");
  struct NamedFactory {
    const char* name;
    ExpectedModelFactory factory;
  };
  const NamedFactory factories[] = {
      {"global-mean",
       [] { return std::unique_ptr<ExpectedFrequencyModel>(new GlobalMeanModel()); }},
      {"window-14",
       [] { return std::unique_ptr<ExpectedFrequencyModel>(new WindowMeanModel(14)); }},
      {"ewma-0.1",
       [] { return std::unique_ptr<ExpectedFrequencyModel>(new EwmaModel(0.1)); }},
      {"seasonal-7",
       [] { return std::unique_ptr<ExpectedFrequencyModel>(new SeasonalMeanModel(7)); }},
  };
  for (const NamedFactory& nf : factories) {
    StLocalOptions opts;
    double secs = 0.0;
    auto agg = EvalStLocal(*gen, nf.factory, opts, &secs);
    std::printf("%-14s %10.3f %12.2f %10.2f\n", nf.name, agg.mean_jaccard,
                agg.mean_start_error, agg.mean_end_error);
  }

  // --- (c) interval detector feeding STComb ------------------------------
  std::printf("\n=== Ablation (c): STComb interval source ===\n");
  std::printf("%-14s %10s %12s %10s\n", "detector", "Jaccard", "StartErr",
              "EndErr");
  {
    StCombOptions copts;
    copts.min_interval_burstiness = 0.3;
    StComb miner(copts);
    std::vector<PatternRetrievalScore> disc_scores, klein_scores;
    for (const InjectedPattern& truth : gen->patterns()) {
      TermSeries series = gen->GenerateTerm(truth.term);

      std::vector<MinedPattern> mined;
      for (const auto& p : miner.MinePatterns(series)) {
        mined.push_back(MinedPattern{p.streams, p.timeframe, p.score});
      }
      disc_scores.push_back(ScoreRetrieval(truth.streams, truth.timeframe,
                                           mined, gen->options().timeline));

      // Kleinberg per stream, pooled through the same clique machinery.
      std::vector<StreamInterval> intervals;
      for (StreamId s = 0; s < series.num_streams(); ++s) {
        std::span<const double> row_view = series.StreamRow(s);
        std::vector<double> row(row_view.begin(), row_view.end());
        std::vector<double> totals(row.size(), 0.0);
        double max_row = 1.0;
        for (double v : row) max_row = std::max(max_row, v);
        for (size_t i = 0; i < row.size(); ++i) totals[i] = max_row * 2.0;
        auto bursts = KleinbergBursts(row, totals);
        if (!bursts.ok()) continue;
        for (const auto& b : *bursts) {
          intervals.push_back(StreamInterval{s, b.interval, b.burstiness});
        }
      }
      mined.clear();
      for (const auto& p : miner.MineFromIntervals(intervals)) {
        mined.push_back(MinedPattern{p.streams, p.timeframe, p.score});
      }
      klein_scores.push_back(ScoreRetrieval(truth.streams, truth.timeframe,
                                            mined, gen->options().timeline));
    }
    auto d = Aggregate(disc_scores);
    auto k = Aggregate(klein_scores);
    std::printf("%-14s %10.3f %12.2f %10.2f\n", "discrepancy", d.mean_jaccard,
                d.mean_start_error, d.mean_end_error);
    std::printf("%-14s %10.3f %12.2f %10.2f\n", "kleinberg", k.mean_jaccard,
                k.mean_start_error, k.mean_end_error);
  }
  return 0;
}
