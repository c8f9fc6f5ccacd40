// Table 2 — Spatiotemporal pattern retrieval on artificial data.
//
// distGen and randGen corpora with injected ground-truth patterns; STLocal,
// STComb, and the Base baseline retrieve them; JaccardSim / Start-Error /
// End-Error are averaged over all injected patterns. Paper shape: STLocal
// best on distGen (0.88), STComb best on randGen (0.91), Base clearly worst
// everywhere (0.34/0.52).
//
// Scale note: the paper uses |D| unstated, 10000 terms, 1000 patterns,
// timeline 365. We keep timeline 365 and patterns-per-processed-term
// identical but evaluate the (identically distributed) patterns of a term
// subset so the harness completes in seconds; metrics are per-pattern
// averages, so the subset is an unbiased estimate.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "stburst/core/base_baseline.h"
#include "stburst/eval/pattern_match.h"
#include "stburst/gen/generators.h"

using namespace stburst;
using namespace stburst::bench;

namespace {

struct Row {
  RetrievalAggregate stlocal, stcomb, base;
};

Row RunMode(GeneratorMode mode, const char* name) {
  // Paper configuration: timeline 365, 10000 terms, 1000 injected patterns
  // (|D| is unstated in the paper; we use 100 streams with patterns covering
  // 20-50 of them so stream-set retrieval is a meaningful target).
  GeneratorOptions opts;
  opts.timeline = 365;
  opts.num_streams = 100;
  opts.num_terms = 10000;
  opts.num_patterns = 1000;
  opts.streams_min = 20;
  opts.streams_max = 50;
  opts.locality_scale = 4.0;
  opts.seed = 2012;

  auto gen = SyntheticGenerator::Create(mode, opts);
  if (!gen.ok()) {
    std::fprintf(stderr, "generator failed: %s\n",
                 gen.status().ToString().c_str());
    std::exit(1);
  }

  // Evaluate the first kEval injected patterns (they hit random terms, so
  // this is an unbiased subset; raise kEval for a full-paper run).
  const size_t kEval = 60;

  StCombOptions comb_opts;
  comb_opts.min_interval_burstiness = 0.3;
  StComb stcomb(comb_opts);
  BaseOptions base_opts;  // ell=2, delta=0.5 (tuned as in the paper)

  // Exact discrepancy kernel, with R-Bursty capped at a handful of
  // rectangles per snapshot: background noise otherwise spawns dozens of
  // throwaway rectangles per timestamp and dominates the harness runtime
  // without affecting which pattern wins.
  StLocalOptions local_opts;
  local_opts.rbursty.max_rectangles = 6;

  std::vector<PatternRetrievalScore> s_local, s_comb, s_base;
  for (size_t p = 0; p < kEval && p < gen->patterns().size(); ++p) {
    const InjectedPattern& truth = gen->patterns()[p];
    TermSeries series = gen->GenerateTerm(truth.term);

    std::vector<MinedPattern> mined;
    auto windows =
        MineRegionalPatterns(series, gen->positions(), MeanFactory(), local_opts);
    if (windows.ok()) {
      for (const auto& w : *windows) {
        mined.push_back(MinedPattern{w.streams, w.timeframe, w.score});
      }
    }
    s_local.push_back(
        ScoreRetrieval(truth.streams, truth.timeframe, mined, opts.timeline));

    mined.clear();
    for (const auto& c : stcomb.MinePatterns(series)) {
      mined.push_back(MinedPattern{c.streams, c.timeframe, c.score});
    }
    s_comb.push_back(
        ScoreRetrieval(truth.streams, truth.timeframe, mined, opts.timeline));

    mined.clear();
    for (const auto& b : BaseMine(series, MeanFactory(), base_opts)) {
      mined.push_back(MinedPattern{b.streams, b.timeframe, 0.0});
    }
    s_base.push_back(
        ScoreRetrieval(truth.streams, truth.timeframe, mined, opts.timeline));
  }
  std::printf("  %s: evaluated %zu injected patterns\n", name, s_local.size());
  return Row{Aggregate(s_local), Aggregate(s_comb), Aggregate(s_base)};
}

void PrintRow(const char* algo, const char* mode, const RetrievalAggregate& a) {
  std::printf("%-8s %-8s %10.2f %12.1f %10.1f\n", algo, mode, a.mean_jaccard,
              a.mean_start_error, a.mean_end_error);
}

// One algorithm's JaccardSim on one mode, for the shape verdicts.
struct Entry {
  const char* algo;
  double jaccard;
};

Entry Stronger(Entry a, Entry b) { return a.jaccard >= b.jaccard ? a : b; }
Entry Weaker(Entry a, Entry b) { return a.jaccard <= b.jaccard ? a : b; }

const char* Verdict(bool holds) { return holds ? "holds" : "does not hold"; }

// "`leader` leads on `mode`": its JaccardSim beats the stronger rival's.
void PrintLeads(const char* mode, Entry leader, Entry rival_a, Entry rival_b) {
  const Entry rival = Stronger(rival_a, rival_b);
  std::printf("  %s leads on %s: %s (%s %.2f vs %s %.2f)\n", leader.algo,
              mode, Verdict(leader.jaccard > rival.jaccard), leader.algo,
              leader.jaccard, rival.algo, rival.jaccard);
}

// "Base trails everywhere": on each mode Base is below the weaker of the
// other two algorithms.
void PrintBaseTrails(const Row& dist, const Row& rand) {
  auto weaker = [](const Row& r) {
    return Weaker(Entry{"STLocal", r.stlocal.mean_jaccard},
                  Entry{"STComb", r.stcomb.mean_jaccard});
  };
  const Entry dist_weak = weaker(dist);
  const Entry rand_weak = weaker(rand);
  const bool holds = dist.base.mean_jaccard < dist_weak.jaccard &&
                     rand.base.mean_jaccard < rand_weak.jaccard;
  std::printf("  Base trails everywhere: %s (distGen: Base %.2f vs %s %.2f; "
              "randGen: Base %.2f vs %s %.2f)\n",
              Verdict(holds), dist.base.mean_jaccard, dist_weak.algo,
              dist_weak.jaccard, rand.base.mean_jaccard, rand_weak.algo,
              rand_weak.jaccard);
}

}  // namespace

int main() {
  std::printf("=== Table 2: Spatiotemporal pattern retrieval ===\n");
  Row dist = RunMode(GeneratorMode::kDist, "distGen");
  Row rand = RunMode(GeneratorMode::kRand, "randGen");

  std::printf("\n%-8s %-8s %10s %12s %10s\n", "", "", "JaccardSim",
              "Start-Error", "End-Error");
  PrintRow("STLocal", "distGen", dist.stlocal);
  PrintRow("STLocal", "randGen", rand.stlocal);
  PrintRow("STComb", "distGen", dist.stcomb);
  PrintRow("STComb", "randGen", rand.stcomb);
  PrintRow("Base", "distGen", dist.base);
  PrintRow("Base", "randGen", rand.base);

  // The paper's shape, decided on JaccardSim from the rows above. Reported
  // only: the exit code does not gate it.
  std::printf("\nPaper shape check (JaccardSim):\n");
  PrintLeads("distGen", Entry{"STLocal", dist.stlocal.mean_jaccard},
             Entry{"STComb", dist.stcomb.mean_jaccard},
             Entry{"Base", dist.base.mean_jaccard});
  PrintLeads("randGen", Entry{"STComb", rand.stcomb.mean_jaccard},
             Entry{"STLocal", rand.stlocal.mean_jaccard},
             Entry{"Base", rand.base.mean_jaccard});
  PrintBaseTrails(dist, rand);
  return 0;
}
