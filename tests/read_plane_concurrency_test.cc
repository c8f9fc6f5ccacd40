// Concurrency stress proof for the decoupled read plane: N reader threads
// hammer Search()/search_snapshot() in a tight loop while
// the main thread runs 25 windowed (appending AND evicting) ticks. Every
// result must be internally consistent — computed wholly against one
// published generation, with per-reader generations monotonically
// non-decreasing — and the final published index must be posting-identical
// to a from-scratch rebuild. Runs at 2/4/8 readers; built into its own
// ctest target (stburst_concurrency_tests, label "concurrency") with a
// long per-test timeout, and exercised by both the ASan and TSan CI legs.
//
// gtest assertions are not thread-safe, so readers record violations into
// per-thread reports and the main thread asserts after joining.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "index_test_util.h"
#include "stburst/common/random.h"
#include "stburst/common/string_util.h"
#include "stburst/index/pattern_index.h"
#include "stburst/index/search_engine.h"
#include "stburst/stream/feed_runtime.h"

namespace stburst {
namespace {

constexpr size_t kStreams = 6;
constexpr size_t kVocab = 48;
constexpr Timestamp kWindow = 6;
constexpr int kWarmupTicks = 8;
constexpr int kStressTicks = 25;

Collection MakeSeedCollection() {
  auto c = Collection::Create(2);
  EXPECT_TRUE(c.ok());
  for (size_t s = 0; s < kStreams; ++s) {
    c->AddStream(StringPrintf("s%zu", s), {},
                 Point2D{static_cast<double>(s % 3),
                         static_cast<double>(s / 3)});
  }
  Vocabulary* v = c->mutable_vocabulary();
  for (size_t t = 0; t < kVocab; ++t) v->Intern("term" + std::to_string(t));
  return std::move(*c);
}

Snapshot MakeSnapshot(Rng& rng) {
  Snapshot snap;
  for (StreamId s = 0; s < kStreams; ++s) {
    const size_t docs = 1 + rng.NextUint64(2);
    for (size_t d = 0; d < docs; ++d) {
      SnapshotDocument doc;
      doc.stream = s;
      const size_t len = 2 + rng.NextUint64(4);
      for (size_t i = 0; i < len; ++i) {
        TermId tok = static_cast<TermId>(rng.NextUint64(kVocab));
        if (rng.Bernoulli(0.5)) {
          tok = static_cast<TermId>(tok % (kVocab / 4 + 1));
        }
        doc.tokens.push_back(tok);
      }
      snap.push_back(std::move(doc));
    }
  }
  return snap;
}

FeedRuntimeOptions StressOptions() {
  FeedRuntimeOptions opts;
  opts.num_threads = 2;  // one pool worker: publication races a real pool
  opts.retention_window = kWindow;
  opts.refresh_budget = 2;
  opts.search_serving = SearchServing::kCombinatorial;
  opts.miner.stcomb.min_interval_burstiness = 0.05;
  return opts;
}

std::vector<std::vector<TermId>> MakeQueries() {
  std::vector<std::vector<TermId>> queries;
  for (TermId t = 0; t < 16; ++t) {
    queries.push_back({t, static_cast<TermId>((t * 7 + 3) % kVocab)});
  }
  return queries;
}

// Everything one reader observed; asserted on the main thread after join.
struct ReaderReport {
  size_t queries_run = 0;
  uint64_t first_generation = 0;
  uint64_t last_generation = 0;
  size_t distinct_generations = 0;
  std::vector<std::string> violations;

  void Violation(std::string what) {
    if (violations.size() < 8) violations.push_back(std::move(what));
  }
};

// The reader loop: load one snapshot, check every derived fact against
// that snapshot alone, repeat. No locks, no gtest, no shared mutable
// state beyond the stop flag.
void ReaderLoop(const FeedRuntime& runtime,
                const std::vector<std::vector<TermId>>& queries,
                const std::atomic<bool>& stop, ReaderReport* report) {
  uint64_t last_generation = 0;
  size_t next_query = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    const std::shared_ptr<const IndexSnapshot> snapshot =
        runtime.search_snapshot();
    if (snapshot == nullptr) {
      report->Violation("search_snapshot() returned null");
      return;
    }
    if (snapshot->generation < last_generation) {
      report->Violation("generation went backwards: " +
                        std::to_string(snapshot->generation) + " after " +
                        std::to_string(last_generation));
      return;
    }
    const std::vector<TermId>& query = queries[next_query];
    next_query = (next_query + 1) % queries.size();

    // Internal consistency of one result: computed wholly against the
    // pinned snapshot — its live-doc floor, and exact agreement with the
    // exhaustive reference over the same snapshot (a torn read would break
    // one of these first).
    const TopKResult result = ThresholdTopK(snapshot->index, query, 5);
    for (const ScoredDoc& doc : result.docs) {
      if (doc.doc < snapshot->doc_id_base) {
        report->Violation("posting precedes the snapshot's live window");
        return;
      }
    }
    // Same score sequence to the 1e-9 the repo's differential test grants
    // TA (its aggregates sum per-term scores in a different order), and
    // the same docs everywhere above the truncation boundary. Docs tied
    // exactly AT the k-th score may legally differ: TA terminates before
    // seeing every member of a tie straddling the cut.
    const TopKResult reference = ExhaustiveTopK(snapshot->index, query, 5);
    bool matches = result.docs.size() == reference.docs.size();
    const double boundary =
        reference.docs.empty() ? 0.0 : reference.docs.back().score;
    for (size_t i = 0; matches && i < result.docs.size(); ++i) {
      const bool score_ok =
          std::abs(result.docs[i].score - reference.docs[i].score) < 1e-9;
      const bool same_doc = result.docs[i].doc == reference.docs[i].doc;
      const bool boundary_tie =
          std::abs(result.docs[i].score - boundary) < 1e-9;
      matches = score_ok && (same_doc || boundary_tie);
    }
    if (!matches) {
      report->Violation("TA and exhaustive disagree on one snapshot");
      return;
    }

    // The public API takes its own (possibly newer) snapshot; it may only
    // move forward relative to what this reader just saw, and no further
    // than what is published once it returns. When it answers from the
    // held generation it ran the same deterministic TA over the same
    // immutable snapshot, so its answer must equal ours exactly.
    const TopKResult via_api = runtime.Search(query, 5);
    if (via_api.generation < snapshot->generation) {
      report->Violation("Search() answered from an older generation");
      return;
    }
    if (via_api.generation > runtime.search_snapshot()->generation) {
      report->Violation("Search() result stamped with a foreign generation");
      return;
    }
    if (via_api.generation == snapshot->generation &&
        via_api.docs != result.docs) {
      report->Violation("Search() and TA disagree on one snapshot");
      return;
    }
    for (size_t i = 1; i < via_api.docs.size(); ++i) {
      if (via_api.docs[i].score > via_api.docs[i - 1].score) {
        report->Violation("Search() result out of score order");
        return;
      }
    }

    if (report->queries_run == 0) {
      report->first_generation = snapshot->generation;
    }
    if (snapshot->generation != last_generation) {
      ++report->distinct_generations;
    }
    last_generation = snapshot->generation;
    report->last_generation = snapshot->generation;
    ++report->queries_run;
  }
}

InvertedIndex RebuildReferenceSearchIndex(const FeedRuntime& runtime) {
  PatternIndex patterns;
  for (TermId t = 0; t < runtime.result().terms.size(); ++t) {
    const TermPatterns& slot = runtime.result().terms[t];
    for (const auto& p : slot.combinatorial) patterns.AddCombinatorial(t, p);
  }
  auto engine = BurstySearchEngine::Build(runtime.collection(), patterns);
  return engine.index();
}

class ReadPlaneStressTest : public testing::TestWithParam<size_t> {};

TEST_P(ReadPlaneStressTest, ReadersStayConsistentUnderLiveTicks) {
  const size_t num_readers = GetParam();
  auto runtime = FeedRuntime::Create(MakeSeedCollection(), StressOptions());
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
  Rng rng(777);
  for (int i = 0; i < kWarmupTicks; ++i) {
    ASSERT_TRUE(runtime->Tick(MakeSnapshot(rng)).ok());
  }
  const uint64_t warm_generation = runtime->search_snapshot()->generation;

  const std::vector<std::vector<TermId>> queries = MakeQueries();
  std::atomic<bool> stop{false};
  std::vector<ReaderReport> reports(num_readers);
  std::vector<std::thread> readers;
  readers.reserve(num_readers);
  for (size_t r = 0; r < num_readers; ++r) {
    readers.emplace_back([&runtime, &queries, &stop, &reports, r] {
      ReaderLoop(*runtime, queries, stop, &reports[r]);
    });
  }

  // 25 windowed ticks: every one appends, evicts, and publishes. The short
  // sleep guarantees readers get scheduled against multiple generations
  // even on a single-core machine.
  for (int i = 0; i < kStressTicks; ++i) {
    ASSERT_TRUE(runtime->Tick(MakeSnapshot(rng)).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  for (size_t r = 0; r < reports.size(); ++r) {
    const ReaderReport& report = reports[r];
    EXPECT_GT(report.queries_run, 0u) << "reader " << r << " never ran";
    for (const std::string& violation : report.violations) {
      ADD_FAILURE() << "reader " << r << ": " << violation;
    }
    EXPECT_GE(report.last_generation, report.first_generation);
  }

  // The write plane made real progress under the readers...
  const std::shared_ptr<const IndexSnapshot> final_snapshot =
      runtime->search_snapshot();
  EXPECT_EQ(final_snapshot->generation,
            warm_generation + static_cast<uint64_t>(kStressTicks));
  // ...and landed exactly where a from-scratch rebuild lands.
  ExpectIdenticalIndexes(final_snapshot->index,
                         RebuildReferenceSearchIndex(*runtime));
}

INSTANTIATE_TEST_SUITE_P(Readers, ReadPlaneStressTest,
                         testing::Values(2, 4, 8),
                         [](const testing::TestParamInfo<size_t>& info) {
                           return std::to_string(info.param) + "readers";
                         });

}  // namespace
}  // namespace stburst
