// Microbenchmarks for the core kernels and the whole-vocabulary batch
// mining engine. Self-contained harness (no external benchmark framework):
// each op is timed with an adaptive repetition loop and the results are
// written to BENCH_micro.json (see PerfJson in bench_common.h for the
// schema) so the perf trajectory is tracked across PRs.
//
// Ops suffixed `_naive` are faithful re-implementations of the seed's
// serial hot paths (allocation-heavy per-term loops, unfused Kadane with a
// geometric membership rescan, multiset top-k, sort-merge index build) kept
// here as a fixed baseline: the reported optimized/naive ratios are the
// PR-over-seed speedups, measurable from one binary.

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/bench_common.h"
#include "stburst/common/parallel.h"
#include "stburst/common/random.h"
#include "stburst/common/simd.h"
#include "stburst/common/timer.h"
#include "stburst/core/batch_miner.h"
#include "stburst/history/long_horizon.h"
#include "stburst/stream/feed_runtime.h"
#include "stburst/core/discrepancy.h"
#include "stburst/core/getmax.h"
#include "stburst/core/max_clique.h"
#include "stburst/core/temporal.h"
#include "stburst/geo/grid.h"
#include "stburst/index/inverted_index.h"
#include "stburst/index/threshold_algorithm.h"

namespace stburst {
namespace {

using bench::PerfJson;

// Times `fn`, adaptively repeating until >= 0.2 s of wall clock (or 1 rep
// for ops that already exceed it), then keeps the fastest of three such
// windows — the usual defense against scheduler noise on shared machines
// (the minimum is the run least perturbed by other tenants). Returns ns per
// call.
double TimeNs(const std::function<void()>& fn) {
  fn();  // warm-up
  size_t reps = 1;
  double best_s = 0.0;
  for (;;) {
    Timer timer;
    for (size_t i = 0; i < reps; ++i) fn();
    double s = timer.ElapsedSeconds();
    if (s >= 0.2 || reps >= (1u << 20)) {
      best_s = s;
      break;
    }
    double target = s > 1e-9 ? 0.25 / s : 1e6;
    reps = std::max(reps + 1, static_cast<size_t>(
                                  static_cast<double>(reps) * target));
  }
  for (int window = 0; window < 2; ++window) {
    Timer timer;
    for (size_t i = 0; i < reps; ++i) fn();
    best_s = std::min(best_s, timer.ElapsedSeconds());
  }
  return best_s * 1e9 / static_cast<double>(reps);
}

// ---------------------------------------------------------------------------
// Naive references: the seed's hot-path implementations, verbatim in shape.
// ---------------------------------------------------------------------------

struct NaiveCellMatrix {
  size_t rows = 0, cols = 0;
  std::vector<double> cells;
  std::vector<double> col_lo, col_hi, row_lo, row_hi;
  double at(size_t r, size_t c) const { return cells[r * cols + c]; }
};

struct NaiveKadane {
  double score = -std::numeric_limits<double>::infinity();
  size_t c1 = 0, c2 = 0;
};

NaiveKadane KadaneNaive(const std::vector<double>& sums) {
  NaiveKadane best;
  double run = 0.0;
  size_t run_start = 0;
  for (size_t c = 0; c < sums.size(); ++c) {
    if (run <= 0.0) {
      run = sums[c];
      run_start = c;
    } else {
      run += sums[c];
    }
    if (run > best.score) {
      best.score = run;
      best.c1 = run_start;
      best.c2 = c;
    }
  }
  return best;
}

MaxRectResult SolveCellsNaive(const NaiveCellMatrix& m,
                              const std::vector<Point2D>& points) {
  MaxRectResult result;
  if (m.rows == 0 || m.cols == 0) return result;
  std::vector<size_t> positive_rows;
  for (size_t r = 0; r < m.rows; ++r) {
    for (size_t c = 0; c < m.cols; ++c) {
      if (m.at(r, c) > 0.0) {
        positive_rows.push_back(r);
        break;
      }
    }
  }
  if (positive_rows.empty()) return result;
  const size_t last_positive_row = positive_rows.back();

  double best_score = 0.0;
  size_t best_r1 = 0, best_r2 = 0, best_c1 = 0, best_c2 = 0;
  bool found = false;
  std::vector<double> col_sums(m.cols);
  for (size_t r1 : positive_rows) {
    std::fill(col_sums.begin(), col_sums.end(), 0.0);
    size_t next_positive = 0;
    while (positive_rows[next_positive] < r1) ++next_positive;
    for (size_t r2 = r1; r2 <= last_positive_row; ++r2) {
      for (size_t c = 0; c < m.cols; ++c) col_sums[c] += m.at(r2, c);
      if (positive_rows[next_positive] != r2) continue;
      ++next_positive;
      NaiveKadane k = KadaneNaive(col_sums);
      if (k.score > best_score) {
        best_score = k.score;
        best_r1 = r1;
        best_r2 = r2;
        best_c1 = k.c1;
        best_c2 = k.c2;
        found = true;
      }
      if (next_positive >= positive_rows.size()) break;
    }
  }
  if (!found) return result;
  result.score = best_score;
  result.rect = Rect(m.col_lo[best_c1], m.row_lo[best_r1], m.col_hi[best_c2],
                     m.row_hi[best_r2]);
  for (size_t i = 0; i < points.size(); ++i) {
    if (result.rect.Contains(points[i])) result.points_inside.push_back(i);
  }
  return result;
}

NaiveCellMatrix BuildExactMatrixNaive(const std::vector<Point2D>& points,
                                      const std::vector<double>& weights) {
  NaiveCellMatrix m;
  std::vector<double> xs, ys;
  for (size_t i = 0; i < points.size(); ++i) {
    if (weights[i] == 0.0) continue;
    xs.push_back(points[i].x);
    ys.push_back(points[i].y);
  }
  std::sort(xs.begin(), xs.end());
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());
  std::sort(ys.begin(), ys.end());
  ys.erase(std::unique(ys.begin(), ys.end()), ys.end());
  if (xs.empty() || ys.empty()) return m;
  m.cols = xs.size();
  m.rows = ys.size();
  m.col_lo = xs;
  m.col_hi = xs;
  m.row_lo = ys;
  m.row_hi = ys;
  m.cells.assign(m.rows * m.cols, 0.0);
  auto index_of = [](const std::vector<double>& v, double key) {
    return static_cast<size_t>(
        std::lower_bound(v.begin(), v.end(), key) - v.begin());
  };
  for (size_t i = 0; i < points.size(); ++i) {
    if (weights[i] == 0.0) continue;
    m.cells[index_of(ys, points[i].y) * m.cols + index_of(xs, points[i].x)] +=
        weights[i];
  }
  return m;
}

MaxRectResult MaxWeightRectangleExactNaive(const std::vector<Point2D>& points,
                                           const std::vector<double>& weights) {
  return SolveCellsNaive(BuildExactMatrixNaive(points, weights), points);
}

MaxRectResult MaxWeightRectangleGridNaive(const std::vector<Point2D>& points,
                                          const std::vector<double>& weights,
                                          size_t g) {
  Rect bounds = Rect::BoundingBox(points);
  auto grid = UniformGrid::Create(bounds, g, g);
  if (!grid.ok()) return MaxRectResult{};
  NaiveCellMatrix m;
  m.rows = grid->rows();
  m.cols = grid->cols();
  m.cells = grid->AggregateWeights(points, weights);
  m.col_lo.resize(m.cols);
  m.col_hi.resize(m.cols);
  m.row_lo.resize(m.rows);
  m.row_hi.resize(m.rows);
  for (size_t c = 0; c < m.cols; ++c) {
    Rect r = grid->CellRect(c, 0);
    m.col_lo[c] = r.min_x();
    m.col_hi[c] = r.max_x();
  }
  for (size_t r = 0; r < m.rows; ++r) {
    Rect rr = grid->CellRect(0, r);
    m.row_lo[r] = rr.min_y();
    m.row_hi[r] = rr.max_y();
  }
  return SolveCellsNaive(m, points);
}

// Seed ThresholdTopK: multiset top-k tracker, no reserved maps.
TopKResult ThresholdTopKNaive(const InvertedIndex& index,
                              const std::vector<TermId>& query, size_t k) {
  TopKResult result;
  if (k == 0) return result;
  std::vector<TermId> terms = query;
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  if (terms.empty()) return result;
  std::vector<const std::vector<Posting>*> lists;
  for (TermId t : terms) lists.push_back(&index.postings(t));
  std::vector<size_t> pos(lists.size(), 0);
  std::unordered_map<DocId, double> candidates;
  std::multiset<double> best_k;
  auto offer = [&](double score) {
    if (best_k.size() < k) {
      best_k.insert(score);
    } else if (score > *best_k.begin()) {
      best_k.erase(best_k.begin());
      best_k.insert(score);
    }
  };
  for (;;) {
    bool advanced = false;
    for (size_t i = 0; i < lists.size(); ++i) {
      if (pos[i] >= lists[i]->size()) continue;
      const Posting& p = (*lists[i])[pos[i]];
      ++pos[i];
      ++result.sorted_accesses;
      advanced = true;
      if (candidates.find(p.doc) != candidates.end()) continue;
      double total = 0.0;
      for (size_t j = 0; j < lists.size(); ++j) {
        double s = 0.0;
        if (j == i) {
          s = p.score;
        } else {
          ++result.random_accesses;
          if (!index.Score(terms[j], p.doc, &s)) s = 0.0;
        }
        total += s;
      }
      candidates.emplace(p.doc, total);
      offer(total);
    }
    if (!advanced) break;
    double threshold = 0.0;
    for (size_t i = 0; i < lists.size(); ++i) {
      if (pos[i] < lists[i]->size()) threshold += (*lists[i])[pos[i]].score;
    }
    if (best_k.size() == k && *best_k.begin() >= threshold) break;
    if (threshold <= 0.0 && best_k.size() == k) break;
  }
  for (const auto& [doc, score] : candidates) {
    if (score > 0.0) result.docs.push_back(ScoredDoc{doc, score});
  }
  std::sort(result.docs.begin(), result.docs.end(),
            [](const ScoredDoc& a, const ScoredDoc& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.doc < b.doc;
            });
  if (result.docs.size() > k) result.docs.resize(k);
  return result;
}

// Seed FrequencyIndex::Build: per-doc token sort, append everything, then a
// global per-term sort-merge.
std::vector<std::vector<TermPosting>> BuildFrequencyNaive(
    const Collection& collection) {
  std::vector<std::vector<TermPosting>> postings(
      collection.vocabulary().size());
  for (const Document& doc : collection.documents()) {
    std::vector<TermId> toks = doc.tokens;
    std::sort(toks.begin(), toks.end());
    for (size_t i = 0; i < toks.size();) {
      size_t j = i;
      while (j < toks.size() && toks[j] == toks[i]) ++j;
      postings[toks[i]].push_back(
          TermPosting{doc.stream, doc.time, static_cast<double>(j - i)});
      i = j;
    }
  }
  for (auto& plist : postings) {
    std::sort(plist.begin(), plist.end(),
              [](const TermPosting& a, const TermPosting& b) {
                if (a.stream != b.stream) return a.stream < b.stream;
                return a.time < b.time;
              });
    size_t out = 0;
    for (size_t i = 0; i < plist.size();) {
      size_t j = i;
      double count = 0.0;
      while (j < plist.size() && plist[j].stream == plist[i].stream &&
             plist[j].time == plist[i].time) {
        count += plist[j].count;
        ++j;
      }
      plist[out++] = TermPosting{plist[i].stream, plist[i].time, count};
      i = j;
    }
    plist.resize(out);
  }
  return postings;
}

// Seed StComb::MineFromIntervals: rebuild the pool and re-run the full
// MaxWeightClique (fresh event sort + hash maps) for every extracted
// pattern.
size_t MineFromIntervalsNaive(const std::vector<StreamInterval>& intervals) {
  size_t num_patterns = 0;
  std::vector<WeightedInterval> pool;
  pool.reserve(intervals.size());
  for (const StreamInterval& si : intervals) {
    pool.push_back(WeightedInterval{si.interval, si.burstiness,
                                    static_cast<int64_t>(si.stream)});
  }
  for (;;) {
    CliqueResult clique = MaxWeightClique(pool);
    if (clique.empty() || clique.weight <= 0.0) break;
    for (size_t idx : clique.members) pool[idx].weight = 0.0;
    ++num_patterns;
  }
  return num_patterns;
}

// Seed whole-vocabulary loop: fresh dense matrix per term, a row copy and a
// score-vector allocation per stream, iterated full-rebuild clique mining,
// serial over the vocabulary.
size_t MineVocabularyNaive(const FrequencyIndex& freq,
                           double min_interval_burstiness) {
  size_t total_patterns = 0;
  const size_t n = freq.num_streams();
  const size_t L = static_cast<size_t>(freq.timeline_length());
  for (TermId term = 0; term < freq.num_terms(); ++term) {
    TermSeries series = freq.DenseSeries(term);
    std::vector<StreamInterval> intervals;
    for (StreamId s = 0; s < n; ++s) {
      std::span<const double> view = series.StreamRow(s);
      std::vector<double> row(view.begin(), view.end());  // seed copied rows
      double total = 0.0;
      for (double v : row) total += v;
      if (total <= 0.0) continue;
      std::vector<double> scores(L);  // seed allocated scores per stream
      const double baseline = 1.0 / static_cast<double>(L);
      for (size_t i = 0; i < L; ++i) scores[i] = row[i] / total - baseline;
      for (const Segment& seg : MaximalSegments(scores)) {
        if (seg.score <= min_interval_burstiness) continue;
        intervals.push_back(
            StreamInterval{s,
                           Interval{static_cast<Timestamp>(seg.start),
                                    static_cast<Timestamp>(seg.end)},
                           seg.score});
      }
    }
    total_patterns += MineFromIntervalsNaive(intervals);
  }
  return total_patterns;
}

// ---------------------------------------------------------------------------

std::vector<double> RandomScores(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.Uniform(-1.0, 1.0);
  return v;
}

void RandomPlane(size_t n, uint64_t seed, std::vector<Point2D>* pts,
                 std::vector<double>* w) {
  Rng rng(seed);
  pts->resize(n);
  w->resize(n);
  for (size_t i = 0; i < n; ++i) {
    (*pts)[i] = Point2D{rng.Uniform(0, 100), rng.Uniform(0, 100)};
    (*w)[i] = rng.Uniform(-1.0, 1.0);
  }
}

InvertedIndex RandomIndex(size_t docs, uint64_t seed) {
  Rng rng(seed);
  InvertedIndex idx;
  for (TermId t = 0; t < 3; ++t) {
    for (DocId d = 0; d < docs; ++d) {
      if (rng.Bernoulli(0.5)) idx.Add(t, d, rng.Uniform(0.01, 10.0));
    }
  }
  idx.Finalize();
  return idx;
}

int Run() {
  PerfJson perf("bench_micro");
  auto report = [&perf](const std::string& op, double ns, size_t items) {
    perf.Add(op, ns, items);
    std::printf("%-34s %14.0f ns/op  (%zu items)\n", op.c_str(), ns, items);
  };

  std::printf("=== bench_micro: kernels ===\n");

  {
    auto scores = RandomScores(1 << 14, 1);
    report("maximal_segments_16k",
           TimeNs([&] { MaximalSegments(scores); }), scores.size());
  }
  {
    Rng rng(3);
    std::vector<WeightedInterval> intervals;
    for (size_t i = 0; i < 4096; ++i) {
      Timestamp a = static_cast<Timestamp>(rng.UniformInt(0, 360));
      Timestamp b = a + static_cast<Timestamp>(rng.UniformInt(1, 40));
      intervals.push_back(WeightedInterval{Interval{a, b}, rng.Uniform(0.1, 1.0),
                                           static_cast<int64_t>(i)});
    }
    report("max_clique_4096", TimeNs([&] { MaxWeightClique(intervals); }),
           intervals.size());
  }
  {
    Rng rng(4);
    std::vector<double> y(1 << 12);
    for (double& v : y) v = rng.Exponential(2.0);
    y[y.size() / 2] += 50.0;
    report("extract_bursty_intervals_4k",
           TimeNs([&] { ExtractBurstyIntervals(y); }), y.size());
  }

  {
    std::vector<Point2D> pts;
    std::vector<double> w;
    RandomPlane(256, 5, &pts, &w);
    double naive =
        TimeNs([&] { MaxWeightRectangleExactNaive(pts, w); });
    double opt = TimeNs([&] { (void)MaxWeightRectangle(pts, w); });
    report("rect_exact_256_naive", naive, pts.size());
    report("rect_exact_256", opt, pts.size());
    std::printf("  -> exact rect speedup: %.2fx\n", naive / opt);
  }
  {
    std::vector<Point2D> pts;
    std::vector<double> w;
    RandomPlane(1 << 14, 6, &pts, &w);
    MaxRectOptions opts;
    opts.mode = MaxRectOptions::Mode::kGrid;
    double naive =
        TimeNs([&] { MaxWeightRectangleGridNaive(pts, w, opts.grid_cols); });
    double opt = TimeNs([&] { (void)MaxWeightRectangle(pts, w, opts); });
    report("rect_grid64_16k_naive", naive, pts.size());
    report("rect_grid64_16k", opt, pts.size());
    std::printf("  -> grid rect speedup: %.2fx\n", naive / opt);
  }

  // SolveCells kernel against a standing binning (the mining access
  // pattern: geometry built once, one O(points) weight scatter + sweep per
  // snapshot), under the dispatched ISA and with the scalar fallback
  // forced. The two paths are bit-identical by construction; the ratio is
  // the pure SIMD win on the band sweep.
  {
    std::printf("  [simd] active ISA: %s\n",
                simd::IsaName(simd::ActiveIsa()));
    struct Kernel {
      const char* op;
      size_t n;
      MaxRectOptions opts;
    };
    std::vector<Kernel> kernels;
    kernels.push_back({"solve_cells_exact", 256, MaxRectOptions{}});
    {
      MaxRectOptions grid;
      grid.mode = MaxRectOptions::Mode::kGrid;
      kernels.push_back({"solve_cells_grid", 1 << 14, grid});
    }
    for (const Kernel& kernel : kernels) {
      std::vector<Point2D> pts;
      std::vector<double> w;
      RandomPlane(kernel.n, 11, &pts, &w);
      auto binning = SpatialBinning::Create(pts, kernel.opts);
      if (!binning.ok()) return 1;
      double active =
          TimeNs([&] { (void)MaxWeightRectangle(*binning, w); });
      const simd::Isa previous = simd::SetIsaForTest(simd::Isa::kScalar);
      double scalar =
          TimeNs([&] { (void)MaxWeightRectangle(*binning, w); });
      simd::SetIsaForTest(previous);
      report(kernel.op, active, kernel.n);
      report(std::string(kernel.op) + "_scalar", scalar, kernel.n);
      std::printf("  -> %s: %.2fx %s over scalar\n", kernel.op,
                  scalar / active, simd::IsaName(simd::ActiveIsa()));
    }
  }
  {
    InvertedIndex idx = RandomIndex(1 << 16, 7);
    std::vector<TermId> query = {0, 1, 2};
    double naive = TimeNs([&] { ThresholdTopKNaive(idx, query, 10); });
    double opt = TimeNs([&] { ThresholdTopK(idx, query, 10); });
    double exhaustive = TimeNs([&] { ExhaustiveTopK(idx, query, 10); });
    report("threshold_topk_64k_naive", naive, size_t{1} << 16);
    report("threshold_topk_64k", opt, size_t{1} << 16);
    report("exhaustive_topk_64k", exhaustive, size_t{1} << 16);
  }

  std::printf("\n=== bench_micro: standard Topix corpus ===\n");
  TopixSimulator sim = bench::MakeTopix();
  const Collection& corpus = sim.collection();
  std::printf("corpus: %zu documents, %zu streams, %zu terms, %d weeks\n",
              corpus.num_documents(), corpus.num_streams(),
              corpus.vocabulary().size(), corpus.timeline_length());
  perf.SetCorpus(corpus.num_documents(), corpus.num_streams(),
                 corpus.vocabulary().size(), corpus.timeline_length());

  {
    double naive = TimeNs([&] { BuildFrequencyNaive(corpus); });
    double opt = TimeNs([&] { FrequencyIndex::Build(corpus); });
    double t2 = TimeNs([&] { FrequencyIndex::Build(corpus, 2); });
    double t4 = TimeNs([&] { FrequencyIndex::Build(corpus, 4); });
    report("frequency_build_naive", naive, corpus.num_documents());
    report("frequency_build", opt, corpus.num_documents());
    report("frequency_build_t2", t2, corpus.num_documents());
    report("frequency_build_t4", t4, corpus.num_documents());
    std::printf("  -> index build speedup vs seed: %.2fx serial, %.2fx t2, "
                "%.2fx t4 (sharded)\n",
                naive / opt, naive / t2, naive / t4);
  }

  FrequencyIndex freq = FrequencyIndex::Build(corpus);
  const size_t vocab = freq.num_terms();

  size_t naive_patterns = 0;
  Timer t_naive;
  naive_patterns = MineVocabularyNaive(freq, 0.1);
  double naive_s = t_naive.ElapsedSeconds();
  report("mine_vocab_serial_naive", naive_s * 1e9, vocab);

  size_t batch_patterns = 0;
  Timer t1;
  {
    auto r = bench::MineVocabulary(freq, 1);
    if (!r.ok()) return 1;
    for (const TermPatterns& tp : r->terms) batch_patterns += tp.combinatorial.size();
  }
  double batch1_s = t1.ElapsedSeconds();
  report("mine_vocab_batch_t1", batch1_s * 1e9, vocab);

  Timer t4;
  {
    auto r = bench::MineVocabulary(freq, 4);
    if (!r.ok()) return 1;
    size_t check = 0;
    for (const TermPatterns& tp : r->terms) check += tp.combinatorial.size();
    if (check != batch_patterns) {
      std::fprintf(stderr, "parity violation: t1=%zu t4=%zu\n", batch_patterns,
                   check);
      return 1;
    }
  }
  double batch4_s = t4.ElapsedSeconds();
  report("mine_vocab_batch_t4", batch4_s * 1e9, vocab);

  if (naive_patterns != batch_patterns) {
    std::fprintf(stderr, "parity violation: naive=%zu batch=%zu\n",
                 naive_patterns, batch_patterns);
    return 1;
  }
  std::printf("  -> whole-vocab speedup vs seed serial loop: %.2fx (t1), "
              "%.2fx (t4); %zu patterns, parity OK\n",
              naive_s / batch1_s, naive_s / batch4_s, batch_patterns);

  // Live-feed path: one appended snapshot (one extra week of the corpus,
  // ~D/L documents) through Collection::Append + FrequencyIndex::
  // AppendSnapshot — serial and pool-spliced — versus the full rebuild it
  // replaces, plus the dirty-term incremental re-mine versus the
  // whole-vocabulary sweep, plus one full FeedRuntime tick.
  {
    Rng rng(321);
    const size_t docs_per_week =
        corpus.num_documents() / static_cast<size_t>(corpus.timeline_length());
    const size_t vocab_size = corpus.vocabulary().size();
    auto make_snapshot = [&] {
      Snapshot snap;
      snap.reserve(docs_per_week);
      for (size_t d = 0; d < docs_per_week; ++d) {
        SnapshotDocument doc;
        doc.stream =
            static_cast<StreamId>(rng.NextUint64(corpus.num_streams()));
        size_t len = 1 + rng.NextUint64(6);
        for (size_t i = 0; i < len; ++i) {
          TermId tok = static_cast<TermId>(rng.NextUint64(vocab_size));
          if (rng.Bernoulli(0.5)) {
            tok = static_cast<TermId>(tok % (vocab_size / 4 + 1));
          }
          doc.tokens.push_back(tok);
        }
        snap.push_back(std::move(doc));
      }
      return snap;
    };

    const size_t kWeeks = 16;
    // Snapshots are generated outside the timed regions: document synthesis
    // is harness work the library never performs. One master set feeds
    // every variant, so they splice identical data.
    std::vector<Snapshot> master;
    master.reserve(kWeeks);
    for (size_t w = 0; w < kWeeks; ++w) master.push_back(make_snapshot());

    Collection live = corpus;
    FrequencyIndex feed = FrequencyIndex::Build(live);
    auto mined = bench::MineVocabulary(feed, 1);
    if (!mined.ok()) return 1;
    (void)feed.TakeDirtyTerms();

    std::vector<Snapshot> snapshots = master;
    Timer t_append;
    for (Snapshot& snap : snapshots) {
      if (!live.Append(std::move(snap)).ok()) return 1;
      if (!feed.AppendSnapshot(live).ok()) return 1;
    }
    double append_s = t_append.ElapsedSeconds();
    report("frequency_append_snapshot",
           append_s * 1e9 / static_cast<double>(kWeeks), docs_per_week);

    // The same appends with the per-term splice fanned across a 4-worker
    // pool (3 pool threads + the caller).
    {
      Collection live4 = corpus;
      FrequencyIndex feed4 = FrequencyIndex::Build(live4);
      (void)feed4.TakeDirtyTerms();
      std::vector<Snapshot> snapshots4 = master;
      ThreadPool splice_pool(3);
      Timer t_splice;
      for (Snapshot& snap : snapshots4) {
        if (!live4.Append(std::move(snap)).ok()) return 1;
        if (!feed4.AppendSnapshot(live4, &splice_pool).ok()) return 1;
      }
      double splice_s = t_splice.ElapsedSeconds();
      report("append_splice_t4",
             splice_s * 1e9 / static_cast<double>(kWeeks), docs_per_week);
    }

    double rebuild = TimeNs([&] { FrequencyIndex::Build(live); });
    report("frequency_rebuild_after_append", rebuild, live.num_documents());
    std::printf("  -> append path: one snapshot in %.2f ms vs %.2f ms full "
                "rebuild (%.1fx)\n",
                append_s * 1e3 / static_cast<double>(kWeeks), rebuild / 1e6,
                rebuild / (append_s * 1e9 / static_cast<double>(kWeeks)));

    std::vector<TermId> dirty = feed.TakeDirtyTerms();
    BatchMinerOptions remine_opts;
    remine_opts.stcomb.min_interval_burstiness = 0.1;
    remine_opts.num_threads = 1;
    Timer t_remine;
    if (!RemineTerms(feed, dirty, remine_opts, &*mined).ok()) return 1;
    double remine_s = t_remine.ElapsedSeconds();
    report("remine_dirty_terms", remine_s * 1e9, dirty.size());
    std::printf("  -> re-mined %zu dirty terms in %.0f ms (vs %zu-term full "
                "sweep)\n",
                dirty.size(), remine_s * 1e3, vocab);

    // One full FeedRuntime tick over the corpus: pooled append splice,
    // retention eviction (window = the corpus timeline, so every tick
    // evicts one timestamp), dirty re-mine, and a budget-64 refresh sweep.
    {
      FeedRuntimeOptions fr_opts;
      fr_opts.miner.stcomb.min_interval_burstiness = 0.1;
      fr_opts.num_threads = 4;
      fr_opts.retention_window = corpus.timeline_length();
      fr_opts.refresh_budget = 64;
      auto runtime = FeedRuntime::Create(corpus, fr_opts);
      if (!runtime.ok()) return 1;
      std::vector<Snapshot> ticks = master;
      Timer t_tick;
      for (Snapshot& snap : ticks) {
        if (!runtime->Tick(std::move(snap)).ok()) return 1;
      }
      double tick_s = t_tick.ElapsedSeconds();
      report("feed_runtime_tick",
             tick_s * 1e9 / static_cast<double>(kWeeks), docs_per_week);
      std::printf("  -> runtime tick: %.1f ms/snapshot (splice + evict + "
                  "re-mine + refresh), window %d weeks\n",
                  tick_s * 1e3 / static_cast<double>(kWeeks),
                  runtime->index().window_length());
    }

    // The same ticks with the defensive machinery on: per-document snapshot
    // validation under kDropDocument (each snapshot carries a few invalid
    // documents that must be quarantined) and an armed-but-roomy tick
    // deadline, so both degradation checks run every tick. Gates the cost of
    // the transactional guard rails against the raw tick above.
    {
      FeedRuntimeOptions fr_opts;
      fr_opts.miner.stcomb.min_interval_burstiness = 0.1;
      fr_opts.num_threads = 4;
      fr_opts.retention_window = corpus.timeline_length();
      fr_opts.refresh_budget = 64;
      fr_opts.on_invalid = InvalidDocPolicy::kDropDocument;
      fr_opts.tick_deadline_seconds = 3600.0;
      auto runtime = FeedRuntime::Create(corpus, fr_opts);
      if (!runtime.ok()) return 1;
      std::vector<Snapshot> ticks = master;
      for (Snapshot& snap : ticks) {
        for (size_t d = 0; d < 4; ++d) {
          SnapshotDocument bad;
          bad.stream = static_cast<StreamId>(corpus.num_streams() + d);
          bad.tokens = {TermId{0}};
          snap.push_back(std::move(bad));
        }
      }
      size_t rejected = 0;
      Timer t_tick;
      for (Snapshot& snap : ticks) {
        auto stats = runtime->Tick(std::move(snap));
        if (!stats.ok()) return 1;
        rejected += stats->rejected_documents;
      }
      double tick_s = t_tick.ElapsedSeconds();
      report("feed_runtime_tick_guarded",
             tick_s * 1e9 / static_cast<double>(kWeeks), docs_per_week);
      std::printf("  -> guarded tick: %.1f ms/snapshot (validation dropped "
                  "%zu documents, deadline armed)\n",
                  tick_s * 1e3 / static_cast<double>(kWeeks), rejected);
    }

    // The same ticks with the cold history tier on (kInMemory, 4-week
    // buckets): every evicted week folds into per-term coarse aggregates
    // inside the transactional tick. Gates the fold overhead against
    // feed_runtime_tick above. Then the read side: seeding one long-horizon
    // baseline (tier sums -> SeededMeanModel) for every (term, stream)
    // pair, the per-pair cost the expected-model adapter adds to scoring.
    {
      FeedRuntimeOptions fr_opts;
      fr_opts.miner.stcomb.min_interval_burstiness = 0.1;
      fr_opts.num_threads = 4;
      fr_opts.retention_window = corpus.timeline_length();
      fr_opts.refresh_budget = 64;
      fr_opts.history_mode = HistoryMode::kInMemory;
      fr_opts.history_bucket_width = 4;
      auto runtime = FeedRuntime::Create(corpus, fr_opts);
      if (!runtime.ok()) return 1;
      std::vector<Snapshot> ticks = master;
      size_t folded = 0;
      Timer t_tick;
      for (Snapshot& snap : ticks) {
        auto stats = runtime->Tick(std::move(snap));
        if (!stats.ok()) return 1;
        folded += stats->folded_terms;
      }
      double tick_s = t_tick.ElapsedSeconds();
      report("history_fold_tick",
             tick_s * 1e9 / static_cast<double>(kWeeks), docs_per_week);
      std::printf("  -> folding tick: %.1f ms/snapshot (%zu term-folds, "
                  "tier covers [%d, %d) at width 4)\n",
                  tick_s * 1e3 / static_cast<double>(kWeeks), folded,
                  runtime->history()->covered_start(),
                  runtime->history()->folded_until());

      const LongHorizonBaseline baseline(runtime->history());
      const size_t baseline_terms = corpus.vocabulary().size();
      const size_t baseline_streams = corpus.num_streams();
      double seeded_mass = 0.0;
      double pair_ns = TimeNs([&] {
        double mass = 0.0;
        for (size_t t = 0; t < baseline_terms; ++t) {
          for (size_t s = 0; s < baseline_streams; ++s) {
            auto model = baseline.ModelFor(static_cast<TermId>(t),
                                           static_cast<StreamId>(s));
            mass += model->Expected();
          }
        }
        seeded_mass = mass;
      });
      const size_t pairs = baseline_terms * baseline_streams;
      report("baseline_long_horizon",
             pair_ns / static_cast<double>(pairs), pairs);
      std::printf("  -> long-horizon baseline: %.0f ns/(term,stream) over "
                  "%zu pairs (seeded mass %.1f)\n",
                  pair_ns / static_cast<double>(pairs), pairs, seeded_mass);
    }
  }

  // Read plane: Search() throughput from concurrent reader threads against
  // a live runtime. The idle measurement runs with a CPU-matched spinner
  // thread standing in for the ticker, so the idle/under-ticks ratio
  // isolates read-path blocking from plain CPU contention (on a saturated
  // box the ticker steals cycles either way). The wait-free contract says
  // the ratio stays near 1; the binary reports it but does not gate (shared
  // runners time contention unreliably) — the committed baseline carries
  // the locally verified numbers.
  {
    FeedRuntimeOptions fr_opts;
    fr_opts.miner.stcomb.min_interval_burstiness = 0.1;
    // Single-threaded ticker: the idle leg's spinner burns one thread, so
    // the tick path must occupy one thread too or the ratio measures CPU
    // share instead of read-path blocking on small machines.
    fr_opts.num_threads = 1;
    // Roomy window: an evicting tick dirties a whole week of terms
    // (hundreds of ms re-mining), so the readers would outlive one tick.
    // Append-only ticks re-mine only the snapshot's few hundred terms,
    // publishing tens of generations while the readers run.
    fr_opts.retention_window = corpus.timeline_length() + 256;
    fr_opts.refresh_budget = 64;
    fr_opts.search_serving = SearchServing::kCombinatorial;
    auto runtime = FeedRuntime::Create(corpus, fr_opts);
    if (!runtime.ok()) return 1;

    Rng qrng(654);
    const size_t vocab_size = corpus.vocabulary().size();
    std::vector<std::vector<TermId>> queries;
    for (size_t q = 0; q < 64; ++q) {
      TermId a = static_cast<TermId>(qrng.NextUint64(vocab_size));
      TermId b = static_cast<TermId>(qrng.NextUint64(vocab_size));
      queries.push_back({a, b});
    }

    constexpr size_t kReaders = 2;
    constexpr size_t kQueriesPerReader = 131072;
    // Runs the readers to completion next to `competitor` (the spinner or
    // the ticker), returns ns per query.
    auto run_readers = [&](const std::function<void(
                               const std::atomic<bool>&)>& competitor) {
      std::atomic<bool> done{false};
      std::thread other([&] { competitor(done); });
      Timer t_read;
      std::vector<std::thread> readers;
      for (size_t r = 0; r < kReaders; ++r) {
        readers.emplace_back([&, r] {
          for (size_t q = 0; q < kQueriesPerReader; ++q) {
            (void)runtime->Search(queries[(r + q) % queries.size()], 10);
          }
        });
      }
      for (std::thread& th : readers) th.join();
      double s = t_read.ElapsedSeconds();
      done.store(true, std::memory_order_relaxed);
      other.join();
      return s * 1e9 / static_cast<double>(kReaders * kQueriesPerReader);
    };

    const double idle_ns = run_readers([](const std::atomic<bool>& done) {
      // CPU-matched stand-in for the ticker: burn one core.
      volatile uint64_t sink = 0;
      while (!done.load(std::memory_order_relaxed)) sink = sink + 1;
    });
    report("search_qps_idle", idle_ns, kReaders * kQueriesPerReader);

    // Small snapshots (few hundred dirty terms, not the whole vocabulary)
    // keep each tick in the tens of milliseconds, so many generations
    // publish while the readers run — the scenario the wait-free claim is
    // about, rather than one giant tick the readers outlive.
    Rng srng(655);
    auto make_tick = [&] {
      Snapshot snap;
      for (size_t d = 0; d < 256; ++d) {
        SnapshotDocument doc;
        doc.stream =
            static_cast<StreamId>(srng.NextUint64(corpus.num_streams()));
        size_t len = 1 + srng.NextUint64(3);
        for (size_t i = 0; i < len; ++i) {
          doc.tokens.push_back(
              static_cast<TermId>(srng.NextUint64(vocab_size)));
        }
        snap.push_back(std::move(doc));
      }
      return snap;
    };
    const uint64_t gen_before = runtime->search_snapshot()->generation;
    const double ticked_ns = run_readers([&](const std::atomic<bool>& done) {
      while (!done.load(std::memory_order_relaxed)) {
        if (!runtime->Tick(make_tick()).ok()) std::abort();
      }
    });
    const uint64_t gen_after = runtime->search_snapshot()->generation;
    report("search_qps_under_ticks", ticked_ns,
           kReaders * kQueriesPerReader);
    std::printf("  -> read plane: %.2f us/query idle (spinner-matched), "
                "%.2f us/query under ticks (%" PRIu64
                " snapshots published) — %.2fx idle throughput\n",
                idle_ns / 1e3, ticked_ns / 1e3, gen_after - gen_before,
                idle_ns / ticked_ns);
  }

  // The generation-keyed query cache: hot-hit latency for a repeated query
  // against a standing snapshot (every lookup after the first is a pure
  // LRU hit — the floor a dashboard polling a fixed panel of queries pays).
  {
    FeedRuntimeOptions fr_opts;
    fr_opts.miner.stcomb.min_interval_burstiness = 0.1;
    fr_opts.num_threads = 4;
    fr_opts.retention_window = corpus.timeline_length();
    fr_opts.refresh_budget = 64;
    fr_opts.search_serving = SearchServing::kCombinatorial;
    fr_opts.search_cache_entries = 1024;
    auto runtime = FeedRuntime::Create(corpus, fr_opts);
    if (!runtime.ok()) return 1;
    // A dashboard-shaped panel: 16 fixed queries polled round-robin, every
    // lookup after the warm pass a pure LRU hit. Timing the panel rather
    // than one query amortizes per-call allocator jitter (a hit copies the
    // k-doc result), which a sub-100ns single-query op cannot.
    std::vector<std::vector<TermId>> panel;
    for (TermId t = 0; t < 16; ++t) panel.push_back({t, t + 1, t + 2});
    for (const auto& q : panel) (void)runtime->Search(q, 10);
    double panel_ns = TimeNs([&] {
      for (const auto& q : panel) (void)runtime->Search(q, 10);
    });
    report("search_cached", panel_ns / panel.size(), panel.size());
    const QueryCacheStats cache_stats = runtime->search_cache_stats();
    std::printf("  -> cached search: %.0f ns/hit (%zu hits, %zu misses)\n",
                panel_ns / panel.size(), cache_stats.hits,
                cache_stats.misses);
  }

  // Regional mining over a vocabulary sample (one standalone
  // MineRegionalPatterns per term — each call builds its own binning), then
  // the whole vocabulary through the batch engine sharing one standing
  // binning across every term.
  {
    std::vector<Point2D> positions = corpus.StreamPositions();
    ExpectedModelFactory factory = bench::MeanFactory();
    StLocalOptions local_opts;
    std::vector<TermId> sample;
    for (TermId t = 0; t < vocab; t += 97) sample.push_back(t);

    Timer tr;
    size_t windows = 0;
    for (TermId term : sample) {
      TermSeries series = freq.DenseSeries(term);
      auto w = MineRegionalPatterns(series, positions, factory, local_opts);
      if (!w.ok()) return 1;
      windows += w->size();
    }
    double serial_s = tr.ElapsedSeconds();
    report("mine_regional_sample",
           serial_s * 1e9 / static_cast<double>(sample.size()), sample.size());
    std::printf("  -> regional sample: %zu windows over %zu terms\n", windows,
                sample.size());

    // Whole-vocabulary STLocal (one Timer window; a second run would double
    // the harness's longest op for no signal on a shared machine).
    BatchMinerOptions regional_opts;
    regional_opts.mine_combinatorial = false;
    regional_opts.mine_regional = true;
    regional_opts.positions = positions;
    regional_opts.model_factory = factory;
    regional_opts.stlocal = local_opts;
    regional_opts.num_threads = 1;
    Timer tv;
    auto regional = MineAllTerms(freq, regional_opts);
    if (!regional.ok()) return 1;
    double vocab_s = tv.ElapsedSeconds();
    size_t vocab_windows = 0;
    for (const TermPatterns& tp : regional->terms) {
      vocab_windows += tp.regional.size();
    }
    report("mine_all_terms_regional", vocab_s * 1e9, vocab);
    std::printf("  -> whole-vocab regional: %zu windows over %zu terms in "
                "%.1f s (shared binning, %s sweep)\n",
                vocab_windows, vocab, vocab_s,
                simd::IsaName(simd::ActiveIsa()));
  }

  // Retention-complete serving: the search index following a sliding window
  // in place (Reopen -> EvictBefore -> append -> Finalize) versus the full
  // rebuild it replaces, and a windowed regional watchlist's steady-state
  // tick (push one snapshot + rebase to the window).
  {
    // A search-shaped index in steady state: W ticks of docs live, each doc
    // scoring on a handful of Zipf-ish terms.
    constexpr size_t kTerms = 20000;
    constexpr size_t kDocsPerTick = 2000;
    constexpr size_t kWindowTicks = 48;
    Rng rng(97);
    InvertedIndex live_index;
    DocId next_doc = 0;
    std::vector<TermId> doc_terms;
    auto add_tick_docs = [&](InvertedIndex* idx) {
      for (size_t d = 0; d < kDocsPerTick; ++d) {
        const DocId doc = next_doc++;
        const size_t hits = 2 + rng.NextUint64(5);
        doc_terms.clear();
        for (size_t h = 0; h < hits; ++h) {
          TermId t = static_cast<TermId>(rng.NextUint64(kTerms));
          if (rng.Bernoulli(0.5)) t = static_cast<TermId>(t % (kTerms / 8 + 1));
          // Add() takes each (term, doc) pair at most once; colliding draws
          // after the Zipf fold are simply dropped.
          if (std::find(doc_terms.begin(), doc_terms.end(), t) !=
              doc_terms.end()) {
            continue;
          }
          doc_terms.push_back(t);
          idx->Add(t, doc, rng.Uniform(0.01, 10.0));
        }
      }
    };
    for (size_t w = 0; w < kWindowTicks; ++w) add_tick_docs(&live_index);
    live_index.Finalize();

    // Min of three 8-tick windows (the state slides steadily, so windows
    // are comparable) — single-window timing is too noisy for the 10% gate
    // on a shared machine.
    constexpr size_t kTicksPerWindow = 8;
    size_t evicted_ticks = 0;
    double evict_s = std::numeric_limits<double>::infinity();
    for (int window = 0; window < 3; ++window) {
      Timer t_evict;
      for (size_t tick = 0; tick < kTicksPerWindow; ++tick) {
        live_index.Reopen();
        live_index.EvictBefore(
            static_cast<DocId>(++evicted_ticks * kDocsPerTick));
        add_tick_docs(&live_index);
        live_index.Finalize();
      }
      evict_s = std::min(evict_s, t_evict.ElapsedSeconds());
    }
    report("inverted_reopen_evict",
           evict_s * 1e9 / static_cast<double>(kTicksPerWindow),
           live_index.total_postings());

    // The rebuild it replaces: re-Add every surviving posting from scratch
    // and freeze (scoring work excluded — this is the floor a rebuilding
    // consumer pays even with scores in hand).
    std::vector<std::vector<Posting>> frozen(kTerms);
    for (TermId t = 0; t < kTerms; ++t) frozen[t] = live_index.postings(t);
    double rebuild_ns = TimeNs([&] {
      InvertedIndex rebuilt;
      for (TermId t = 0; t < kTerms; ++t) {
        for (const Posting& p : frozen[t]) rebuilt.Add(t, p.doc, p.score);
      }
      rebuilt.Finalize();
    });
    report("inverted_rebuild_after_evict", rebuild_ns,
           live_index.total_postings());
    const double evict_ns =
        evict_s * 1e9 / static_cast<double>(kTicksPerWindow);
    std::printf("  -> eviction-aware refreeze: %.2f ms/tick vs %.2f ms "
                "rebuild (%.1fx)\n",
                evict_ns / 1e6, rebuild_ns / 1e6, rebuild_ns / evict_ns);

    // Windowed regional watchlist at corpus scale (181 streams): one
    // steady-state tick = push the next snapshot + EvictBefore back to a
    // 48-snapshot window (fresh models re-observe the window, per-region
    // sequences replay from the rebased burstiness).
    std::vector<Point2D> positions = corpus.StreamPositions();
    const size_t n = positions.size();
    constexpr Timestamp kWatchWindow = 48;
    constexpr size_t kWatchTicks = 96;
    Rng wrng(998);
    std::vector<std::vector<double>> snaps;
    for (size_t t = 0; t < kWatchWindow + kWatchTicks; ++t) {
      std::vector<double> snap(n);
      for (size_t s = 0; s < n; ++s) snap[s] = wrng.Exponential(1.0);
      if ((t / 8) % 3 == 0) {
        for (size_t s = 0; s < n / 6; ++s) snap[s] += 4.0;  // regional burst
      }
      snaps.push_back(std::move(snap));
    }
    OnlineRegionalMiner watch(positions, bench::MeanFactory());
    for (size_t t = 0; t < kWatchWindow; ++t) {
      if (!watch.Push(snaps[t]).ok()) return 1;
    }
    // Min of three windows over the steady-state ticks, as above.
    constexpr size_t kWatchTicksPerWindow = kWatchTicks / 3;
    double watch_s = std::numeric_limits<double>::infinity();
    size_t consumed = 0;
    for (int window = 0; window < 3; ++window) {
      Timer t_watch;
      for (size_t tick = 0; tick < kWatchTicksPerWindow; ++tick) {
        if (!watch.Push(snaps[kWatchWindow + consumed++]).ok()) return 1;
        if (!watch.EvictBefore(watch.current_time() - kWatchWindow).ok()) {
          return 1;
        }
      }
      watch_s = std::min(watch_s, t_watch.ElapsedSeconds());
    }
    report("watchlist_evict_tick",
           watch_s * 1e9 / static_cast<double>(kWatchTicksPerWindow), n);
    std::printf("  -> windowed regional watchlist: %.2f ms/tick "
                "(%d-snapshot window, %zu streams)\n",
                watch_s * 1e3 / static_cast<double>(kWatchTicksPerWindow),
                kWatchWindow, n);
  }

  perf.Write("BENCH_micro.json");
  return 0;
}

}  // namespace
}  // namespace stburst

int main() { return stburst::Run(); }
