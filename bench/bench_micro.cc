// Microbenchmarks for the core kernels and the whole-vocabulary batch
// mining engine. Self-contained harness (no external benchmark framework):
// each op is timed with an adaptive repetition loop and the results are
// written to BENCH_micro.json (see PerfJson in bench_common.h for the
// schema).
//
// Every op times library code. Correctness references live in the tests
// (the brute-force cliques in tests/stcomb_test.cc, the brute-force
// rectangles in tests/discrepancy_test.cc, the thread-count parity suites);
// bench/diff_bench.py compares runs of two builds op by op.

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "stburst/common/random.h"
#include "stburst/common/timer.h"
#include "stburst/core/batch_miner.h"
#include "stburst/history/long_horizon.h"
#include "stburst/stream/feed_runtime.h"
#include "stburst/core/discrepancy.h"
#include "stburst/core/getmax.h"
#include "stburst/core/rbursty.h"
#include "stburst/core/stcomb.h"
#include "stburst/core/temporal.h"
#include "stburst/index/inverted_index.h"
#include "stburst/index/search_engine.h"
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
  std::vector<std::vector<Posting>> lists(3);
  for (TermId t = 0; t < 3; ++t) {
    for (DocId d = 0; d < docs; ++d) {
      if (rng.Bernoulli(0.5)) {
        lists[t].push_back(Posting{d, rng.Uniform(0.01, 10.0)});
      }
    }
  }
  return InvertedIndex(std::move(lists));
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
    Rng rng(4);
    std::vector<double> y(1 << 12);
    for (double& v : y) v = rng.Exponential(2.0);
    y[y.size() / 2] += 50.0;
    report("extract_bursty_intervals_4k",
           TimeNs([&] { ExtractBurstyIntervals(y); }), y.size());
  }
  {
    // The rows a live tick extracts: a 48-column window and 1–8 postings
    // per (term, stream) row, handed over as occupied cells. Thousands of
    // short rows per call time the kernel rather than one loop's placement.
    constexpr size_t kLength = 48;
    constexpr size_t kRows = 4096;
    Rng rng(6);
    std::vector<RowCell> cells;
    std::vector<size_t> row_end;
    std::vector<size_t> columns(kLength);
    for (size_t r = 0; r < kRows; ++r) {
      for (size_t c = 0; c < kLength; ++c) columns[c] = c;
      const size_t postings = 1 + rng.NextUint64(8);
      for (size_t i = 0; i < postings; ++i) {  // distinct columns
        std::swap(columns[i], columns[i + rng.NextUint64(kLength - i)]);
      }
      std::sort(columns.begin(), columns.begin() + postings);
      for (size_t i = 0; i < postings; ++i) {
        cells.push_back(RowCell{
            columns[i], static_cast<double>(1 + rng.NextUint64(6))});
      }
      row_end.push_back(cells.size());
    }
    BurstyIntervalExtractor extractor;
    std::vector<BurstyInterval> out;
    report("extract_intervals_live_rows", TimeNs([&] {
             size_t begin = 0;
             for (size_t end : row_end) {
               out.clear();
               extractor.Append(
                   std::span<const RowCell>(cells.data() + begin,
                                            end - begin),
                   kLength, 0.1, &out);
               begin = end;
             }
           }),
           kRows);
  }

  {
    std::vector<Point2D> pts;
    std::vector<double> w;
    RandomPlane(256, 5, &pts, &w);
    report("rect_exact_256",
           TimeNs([&] { (void)MaxWeightRectangle(pts, w); }), pts.size());
  }
  {
    std::vector<Point2D> pts;
    std::vector<double> w;
    RandomPlane(1 << 14, 6, &pts, &w);
    MaxRectOptions opts;
    opts.mode = MaxRectOptions::Mode::kGrid;
    report("rect_grid64_16k",
           TimeNs([&] { (void)MaxWeightRectangle(pts, w, opts); }),
           pts.size());
  }

  // The solver against a standing binning (the mining access pattern:
  // geometry built once, one cell sum + sweep per snapshot), on uniform
  // [-1, 1] planes: half the weights positive, every cell in play.
  {
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
      report(kernel.op,
             TimeNs([&] { (void)MaxWeightRectangle(*binning, w); }),
             kernel.n);
    }
  }
  {
    InvertedIndex idx = RandomIndex(1 << 16, 7);
    std::vector<TermId> query = {0, 1, 2};
    double opt = TimeNs([&] { ThresholdTopK(idx, query, 10); });
    double exhaustive = TimeNs([&] { ExhaustiveTopK(idx, query, 10); });
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

  report("frequency_build", TimeNs([&] { FrequencyIndex::Build(corpus); }),
         corpus.num_documents());

  FrequencyIndex freq = FrequencyIndex::Build(corpus);
  const size_t vocab = freq.num_terms();

  Timer t1;
  if (!bench::MineVocabulary(freq, 1).ok()) return 1;
  report("mine_vocab_batch_t1", t1.ElapsedSeconds() * 1e9, vocab);

  // Live-feed path: one appended snapshot (one extra week of the corpus,
  // ~D/L documents) through Collection::Append + FrequencyIndex::
  // AppendSnapshot versus the full rebuild it replaces, plus the dirty-term
  // incremental re-mine versus the whole-vocabulary sweep, plus one full
  // FeedRuntime tick.
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

    // Each append returns the terms it touched; their union over the weeks
    // is the dirty set the re-mine below stages.
    std::vector<Snapshot> snapshots = master;
    std::vector<TermId> dirty;
    Timer t_append;
    for (Snapshot& snap : snapshots) {
      if (!live.Append(std::move(snap)).ok()) return 1;
      StatusOr<std::vector<TermId>> touched = feed.AppendSnapshot(live);
      if (!touched.ok()) return 1;
      dirty.insert(dirty.end(), touched->begin(), touched->end());
    }
    double append_s = t_append.ElapsedSeconds();
    report("frequency_append_snapshot",
           append_s * 1e9 / static_cast<double>(kWeeks), docs_per_week);

    double rebuild = TimeNs([&] { FrequencyIndex::Build(live); });
    report("frequency_rebuild_after_append", rebuild, live.num_documents());
    std::printf("  -> append path: one snapshot in %.2f ms vs %.2f ms full "
                "rebuild (%.1fx)\n",
                append_s * 1e3 / static_cast<double>(kWeeks), rebuild / 1e6,
                rebuild / (append_s * 1e9 / static_cast<double>(kWeeks)));

    std::sort(dirty.begin(), dirty.end());
    dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
    BatchMinerOptions remine_opts;
    remine_opts.stcomb.min_interval_burstiness = 0.1;
    remine_opts.num_threads = 1;
    std::vector<TermPatterns> staged;
    Timer t_remine;
    StatusOr<std::vector<TermId>> remined =
        StageRemineTerms(feed, dirty, remine_opts, &staged);
    if (!remined.ok()) return 1;
    double remine_s = t_remine.ElapsedSeconds();
    report("remine_dirty_terms", remine_s * 1e9, dirty.size());
    std::printf("  -> re-mined %zu dirty terms in %.0f ms (vs %zu-term full "
                "sweep)\n",
                dirty.size(), remine_s * 1e3, vocab);

    // The re-mine's clique alone: each dirty term's pool of per-stream
    // bursty intervals, extracted outside the timed region (the same
    // intervals the re-mine pools, on window-relative times), then iterated
    // maxClique over every pool per pass. Each call copies its pool, as the
    // by-value signature asks.
    {
      const StComb stcomb(remine_opts.stcomb);
      std::vector<std::vector<StreamInterval>> pools;
      pools.reserve(dirty.size());
      size_t pooled = 0;
      for (TermId term : dirty) {
        pools.push_back(stcomb.ExtractStreamIntervals(feed.DenseSeries(term)));
        pooled += pools.back().size();
      }
      size_t cliques = 0;
      const double ns = TimeNs([&] {
        cliques = 0;
        for (const std::vector<StreamInterval>& pool : pools) {
          cliques += stcomb.MineFromIntervals(pool).size();
        }
      });
      report("stcomb_corpus_pools", ns, pools.size());
      std::printf("  -> %zu pools, %zu intervals, %zu patterns per pass\n",
                  pools.size(), pooled, cliques);
    }

    // One tick's re-score of the dirty terms against their staged patterns,
    // read in place, serially: ScoreTermsByCell's pattern-to-posting lookup
    // (phase 1) and its per-cell document pass (phase 2).
    {
      size_t postings = 0;
      size_t tokens = 0;
      const double ns = TimeNs([&] {
        const std::vector<std::vector<Posting>> lists = ScoreTermsByCell(
            live, feed, *remined,
            [&](size_t i) -> std::span<const CombinatorialPattern> {
              return staged[i].combinatorial;
            },
            nullptr, &tokens);
        postings = 0;
        for (const std::vector<Posting>& list : lists) postings += list.size();
      });
      report("score_terms_by_cell", ns, remined->size());
      std::printf("  -> re-scored %zu terms: %zu postings, %zu document "
                  "tokens read\n",
                  remined->size(), postings, tokens);
    }

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

    // The same ticks with per-document snapshot validation under
    // kDropDocument: each snapshot carries a few invalid documents that must
    // be quarantined. Gates the cost of the validation guard rail against
    // the raw tick above.
    {
      FeedRuntimeOptions fr_opts;
      fr_opts.miner.stcomb.min_interval_burstiness = 0.1;
      fr_opts.num_threads = 4;
      fr_opts.retention_window = corpus.timeline_length();
      fr_opts.refresh_budget = 64;
      fr_opts.on_invalid = InvalidDocPolicy::kDropDocument;
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
                  "%zu documents)\n",
                  tick_s * 1e3 / static_cast<double>(kWeeks), rejected);
    }

    // The same ticks with the cold history tier on (kInMemory, 4-week
    // buckets): every evicted week folds into per-term coarse aggregates
    // inside the transactional tick. Gates the fold overhead against
    // feed_runtime_tick above. Then the read side: seeding one long-horizon
    // baseline (tier sums -> SeededMeanModel) for every (term, stream)
    // pair and reading its expectation through a one-cell row call, the
    // per-pair cost the expected-model adapter adds to scoring.
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
        const double row[1] = {0.0};
        double expected[1];
        for (size_t t = 0; t < baseline_terms; ++t) {
          for (size_t s = 0; s < baseline_streams; ++s) {
            auto model = baseline.ModelFor(static_cast<TermId>(t),
                                           static_cast<StreamId>(s));
            model->Expected(row, expected);
            mass += expected[0];
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
  // box the ticker steals cycles either way). The read-plane contract says
  // the ratio stays near 1; the binary reports it but does not gate (shared
  // runners time contention unreliably).
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
    // publish while the readers run — the scenario the read-plane claim is
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

  // Regional mining over a vocabulary sample (one standalone
  // MineRegionalPatterns per term — each call builds its own binning), then
  // the whole vocabulary through the batch engine, which builds one binning
  // for the call and shares it across every term.
  {
    std::vector<Point2D> positions = corpus.StreamPositions();
    ExpectedModelFactory factory = bench::MeanFactory();
    StLocalOptions local_opts;

    // R-Bursty on batch_mine's shape: the burstiness planes of every 29th
    // term (one per snapshot, derived with the standard expected model
    // outside the timed region), each solved against one binning of the
    // stream positions with its iterated extractions. Most streams sit
    // mildly negative and a plane holds a few positive ones, unlike the
    // uniform planes of the solve_cells_* ops.
    {
      auto binning = SpatialBinning::Create(positions);
      if (!binning.ok()) return 1;
      const size_t n = positions.size();
      const std::unique_ptr<ExpectedFrequencyModel> model = factory();
      std::vector<double> planes;  // plane p at [p * n, (p + 1) * n)
      for (TermId term = 0; term < vocab; term += 29) {
        const std::vector<double> term_planes =
            SnapshotBurstiness(freq.DenseSeries(term), *model);
        planes.insert(planes.end(), term_planes.begin(), term_planes.end());
      }
      const size_t num_planes = planes.size() / n;
      size_t rectangles = 0;
      const double ns = TimeNs([&] {
        rectangles = 0;
        for (size_t p = 0; p < num_planes; ++p) {
          auto r = RBursty(*binning,
                           std::span<const double>(planes.data() + p * n, n));
          if (!r.ok()) std::abort();
          rectangles += r->size();
        }
      });
      report("rbursty_corpus_planes", ns, num_planes);
      std::printf("  -> %zu corpus planes, %zu rectangles per pass\n",
                  num_planes, rectangles);
    }

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
                "%.1f s (shared binning)\n",
                vocab_windows, vocab, vocab_s);
  }

  // Retention-complete serving: the search index following a sliding window
  // the way FeedRuntime's tick does, one InvertedIndex::Successor per tick
  // that evicts the oldest tick of docs and replaces the terms the new docs
  // score on (their surviving postings plus the new ones; only those lists
  // are sorted), versus the list-constructor rebuild it replaces.
  {
    // A search-shaped index in steady state: W ticks of docs live, each doc
    // scoring on a handful of Zipf-ish terms.
    constexpr size_t kTerms = 20000;
    constexpr size_t kDocsPerTick = 2000;
    constexpr size_t kWindowTicks = 48;
    Rng rng(97);
    DocId next_doc = 0;
    std::vector<TermId> doc_terms;
    // One tick of new docs as (term, posting) pairs; each (term, doc) pair
    // at most once, so colliding draws after the Zipf fold are dropped.
    std::vector<std::pair<TermId, Posting>> tick_hits;
    auto draw_tick_docs = [&] {
      tick_hits.clear();
      for (size_t d = 0; d < kDocsPerTick; ++d) {
        const DocId doc = next_doc++;
        const size_t hits = 2 + rng.NextUint64(5);
        doc_terms.clear();
        for (size_t h = 0; h < hits; ++h) {
          TermId t = static_cast<TermId>(rng.NextUint64(kTerms));
          if (rng.Bernoulli(0.5)) t = static_cast<TermId>(t % (kTerms / 8 + 1));
          if (std::find(doc_terms.begin(), doc_terms.end(), t) !=
              doc_terms.end()) {
            continue;
          }
          doc_terms.push_back(t);
          tick_hits.emplace_back(t, Posting{doc, rng.Uniform(0.01, 10.0)});
        }
      }
    };
    std::vector<std::vector<Posting>> window_lists(kTerms);
    for (size_t w = 0; w < kWindowTicks; ++w) {
      draw_tick_docs();
      for (const auto& [t, p] : tick_hits) window_lists[t].push_back(p);
    }
    InvertedIndex live_index(std::move(window_lists));

    // Min of three 8-tick windows (the state slides steadily, so windows
    // are comparable) — single-window timing is too noisy for the 10% gate
    // on a shared machine. Only the Successor call is timed: gathering the
    // replaced lists stands in for the runtime's re-score.
    constexpr size_t kTicksPerWindow = 8;
    size_t evicted_ticks = 0;
    double successor_s = std::numeric_limits<double>::infinity();
    std::vector<size_t> slot_of(kTerms);
    for (int window = 0; window < 3; ++window) {
      double window_s = 0.0;
      for (size_t tick = 0; tick < kTicksPerWindow; ++tick) {
        const DocId min_live =
            static_cast<DocId>(++evicted_ticks * kDocsPerTick);
        draw_tick_docs();
        std::vector<TermId> terms;
        for (const auto& [t, p] : tick_hits) terms.push_back(t);
        std::sort(terms.begin(), terms.end());
        terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
        std::vector<std::vector<Posting>> lists(terms.size());
        for (size_t i = 0; i < terms.size(); ++i) {
          slot_of[terms[i]] = i;
          for (const Posting& p : live_index.postings(terms[i])) {
            if (p.doc >= min_live) lists[i].push_back(p);
          }
        }
        for (const auto& [t, p] : tick_hits) lists[slot_of[t]].push_back(p);
        Timer t_successor;
        live_index = InvertedIndex::Successor(live_index, min_live, terms,
                                              std::move(lists));
        window_s += t_successor.ElapsedSeconds();
      }
      successor_s = std::min(successor_s, window_s);
    }
    const double successor_ns =
        successor_s * 1e9 / static_cast<double>(kTicksPerWindow);
    report("inverted_successor_evict", successor_ns,
           live_index.total_postings());

    // The rebuild it replaces: construct from every surviving posting
    // (scoring work excluded — this is the floor a rebuilding consumer pays
    // even with scores in hand).
    std::vector<std::vector<Posting>> frozen(kTerms);
    for (TermId t = 0; t < kTerms; ++t) frozen[t] = live_index.postings(t);
    double rebuild_ns = TimeNs([&] { InvertedIndex rebuilt(frozen); });
    report("inverted_rebuild_after_evict", rebuild_ns,
           live_index.total_postings());
    std::printf("  -> successor (evict + replace): %.2f ms/tick vs %.2f ms "
                "rebuild (%.1fx)\n",
                successor_ns / 1e6, rebuild_ns / 1e6,
                rebuild_ns / successor_ns);
  }

  perf.Write("BENCH_micro.json");
  return 0;
}

}  // namespace
}  // namespace stburst

int main() { return stburst::Run(); }
