// Tests for the batch mining engine (core/batch_miner): parallel runs must
// be indistinguishable from the serial per-term pipeline.

#include "stburst/core/batch_miner.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "stburst/common/random.h"
#include "stburst/common/string_util.h"
#include "stburst/core/stcomb.h"
#include "stburst/core/stlocal.h"

namespace stburst {
namespace {

Collection MakeRandomCollection(uint64_t seed, size_t num_streams,
                                Timestamp timeline, size_t vocab,
                                size_t num_docs) {
  auto collection = Collection::Create(timeline);
  EXPECT_TRUE(collection.ok());
  Rng rng(seed);
  for (size_t s = 0; s < num_streams; ++s) {
    collection->AddStream(StringPrintf("s%zu", s), {},
                          Point2D{rng.Uniform(0, 10), rng.Uniform(0, 10)});
  }
  Vocabulary* v = collection->mutable_vocabulary();
  for (size_t t = 0; t < vocab; ++t) v->Intern("term" + std::to_string(t));
  for (size_t d = 0; d < num_docs; ++d) {
    StreamId stream = static_cast<StreamId>(rng.NextUint64(num_streams));
    Timestamp time = static_cast<Timestamp>(rng.NextUint64(
        static_cast<uint64_t>(timeline)));
    size_t len = 1 + rng.NextUint64(6);
    std::vector<TermId> tokens;
    for (size_t i = 0; i < len; ++i) {
      // Zipf-ish skew: low ids are frequent, so some terms are dense and
      // some stay in the singleton tail.
      TermId tok = static_cast<TermId>(rng.NextUint64(vocab));
      if (rng.Bernoulli(0.5)) tok = static_cast<TermId>(tok % (vocab / 4 + 1));
      tokens.push_back(tok);
    }
    EXPECT_TRUE(collection->AddDocument(stream, time, std::move(tokens)).ok());
  }
  return std::move(*collection);
}

ExpectedModelFactory TestFactory() {
  return WithPriorFloor([] { return std::make_unique<GlobalMeanModel>(); },
                        0.2);
}

// `shift` moves b's timeframes to absolute time: a per-term miner over a
// windowed index's DenseSeries reports window-relative timestamps.
void ExpectSamePatterns(const std::vector<CombinatorialPattern>& a,
                        const std::vector<CombinatorialPattern>& b,
                        Timestamp shift = 0) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].streams, b[i].streams);
    EXPECT_EQ(a[i].timeframe.start, b[i].timeframe.start + shift);
    EXPECT_EQ(a[i].timeframe.end, b[i].timeframe.end + shift);
    EXPECT_EQ(a[i].score, b[i].score);
  }
}

void ExpectSameWindows(const std::vector<SpatiotemporalWindow>& a,
                       const std::vector<SpatiotemporalWindow>& b,
                       Timestamp shift = 0) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].region, b[i].region);
    EXPECT_EQ(a[i].streams, b[i].streams);
    EXPECT_EQ(a[i].timeframe.start, b[i].timeframe.start + shift);
    EXPECT_EQ(a[i].timeframe.end, b[i].timeframe.end + shift);
    EXPECT_DOUBLE_EQ(a[i].score, b[i].score);
  }
}

TEST(MineAllTerms, RejectsRegionalWithoutPositions) {
  Collection c = MakeRandomCollection(1, 4, 10, 8, 30);
  FrequencyIndex freq = FrequencyIndex::Build(c);
  BatchMinerOptions opts;
  opts.mine_regional = true;
  EXPECT_TRUE(MineAllTerms(freq, opts).status().IsInvalidArgument());
  opts.positions = c.StreamPositions();
  EXPECT_TRUE(MineAllTerms(freq, opts).status().IsInvalidArgument());
  opts.model_factory = TestFactory();
  EXPECT_TRUE(MineAllTerms(freq, opts).ok());
}

TEST(MineAllTerms, EmptyVocabulary) {
  auto collection = Collection::Create(5);
  ASSERT_TRUE(collection.ok());
  FrequencyIndex freq = FrequencyIndex::Build(*collection);
  auto result = MineAllTerms(freq);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->terms.empty());
}

TEST(MineAllTerms, MatchesSerialPerTermPipeline) {
  Collection c = MakeRandomCollection(7, 10, 30, 40, 400);
  const std::vector<Point2D> positions = c.StreamPositions();
  // The whole timeline, and an evicted (windowed) index: there mining runs
  // over the retained window and reports absolute timeframes.
  FrequencyIndex full = FrequencyIndex::Build(c);
  FrequencyIndex windowed = FrequencyIndex::Build(c);
  ASSERT_TRUE(windowed.EvictBefore(11).ok());
  ASSERT_EQ(windowed.window_start(), 11);

  BatchMinerOptions opts;
  opts.stcomb.min_interval_burstiness = 0.05;
  opts.mine_regional = true;
  opts.positions = positions;
  opts.model_factory = TestFactory();
  opts.num_threads = 4;
  StComb stcomb(opts.stcomb);
  for (const FrequencyIndex* freq : {&full, &windowed}) {
    SCOPED_TRACE(testing::Message() << "window_start " << freq->window_start());
    auto batch = MineAllTerms(*freq, opts);
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(batch->terms.size(), freq->num_terms());
    EXPECT_EQ(batch->threads_used, 4u);

    // Reference: the seed's serial loop — dense per-term series through the
    // standalone miners, shifted to absolute time.
    for (TermId term = 0; term < freq->num_terms(); ++term) {
      TermSeries series = freq->DenseSeries(term);
      ExpectSamePatterns(batch->terms[term].combinatorial,
                         stcomb.MinePatterns(series), freq->window_start());
      auto windows = MineRegionalPatterns(series, positions, opts.model_factory,
                                          opts.stlocal);
      ASSERT_TRUE(windows.ok());
      ExpectSameWindows(batch->terms[term].regional, *windows,
                        freq->window_start());
    }
  }
}

class MineAllTermsParityTest : public ::testing::TestWithParam<int> {};

TEST_P(MineAllTermsParityTest, ThreadCountInvariant) {
  Collection c = MakeRandomCollection(100 + GetParam(), 8, 25, 30, 250);
  FrequencyIndex freq = FrequencyIndex::Build(c);

  BatchMinerOptions serial;
  serial.mine_regional = true;
  serial.positions = c.StreamPositions();
  serial.model_factory = TestFactory();
  serial.num_threads = 1;
  auto base = MineAllTerms(freq, serial);
  ASSERT_TRUE(base.ok());

  for (size_t threads : {2u, 3u, 8u}) {
    BatchMinerOptions par = serial;
    par.num_threads = threads;
    auto run = MineAllTerms(freq, par);
    ASSERT_TRUE(run.ok());
    ASSERT_EQ(run->terms.size(), base->terms.size());
    EXPECT_EQ(run->terms_mined, base->terms_mined);
    EXPECT_EQ(run->terms_skipped, base->terms_skipped);
    for (size_t t = 0; t < base->terms.size(); ++t) {
      EXPECT_EQ(run->terms[t].term, base->terms[t].term);
      ExpectSamePatterns(run->terms[t].combinatorial,
                         base->terms[t].combinatorial);
      ExpectSameWindows(run->terms[t].regional, base->terms[t].regional);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MineAllTermsParityTest, ::testing::Range(0, 5));

TEST(MineAllTerms, RejectsNonFinitePositions) {
  // The run's own binning refuses a NaN stream position; the status reaches
  // the caller instead of a cell index one past the grid.
  Collection c = MakeRandomCollection(5, 6, 10, 12, 80);
  FrequencyIndex freq = FrequencyIndex::Build(c);
  BatchMinerOptions opts;
  opts.mine_regional = true;
  opts.positions = c.StreamPositions();
  opts.positions[2].x = std::numeric_limits<double>::quiet_NaN();
  opts.model_factory = TestFactory();
  EXPECT_TRUE(MineAllTerms(freq, opts).status().IsInvalidArgument());
}

TEST(RemineTerms, DirtyTermsMatchFreshSweepAndQuietSlotsKeepTheirPatterns) {
  Collection c = MakeRandomCollection(31, 8, 20, 30, 300);
  FrequencyIndex freq = FrequencyIndex::Build(c);

  BatchMinerOptions opts;
  opts.stcomb.min_interval_burstiness = 0.05;
  opts.mine_regional = true;
  opts.positions = c.StreamPositions();
  opts.model_factory = TestFactory();
  opts.num_threads = 3;

  auto mined = MineAllTerms(freq, opts);
  ASSERT_TRUE(mined.ok());
  BatchMineResult live = std::move(*mined);
  const BatchMineResult before = live;

  // Feed: a few appended snapshots, some interning new vocabulary.
  Rng rng(55);
  for (int round = 0; round < 4; ++round) {
    Snapshot snap;
    for (size_t d = 0; d < 12; ++d) {
      SnapshotDocument doc;
      doc.stream = static_cast<StreamId>(rng.NextUint64(c.num_streams()));
      size_t len = 1 + rng.NextUint64(4);
      for (size_t i = 0; i < len; ++i) {
        if (rng.Bernoulli(0.1)) {
          doc.tokens.push_back(c.mutable_vocabulary()->Intern(
              "fresh" + std::to_string(rng.NextUint64(8))));
        } else {
          doc.tokens.push_back(static_cast<TermId>(rng.NextUint64(30)));
        }
      }
      snap.push_back(std::move(doc));
    }
    ASSERT_TRUE(c.Append(std::move(snap)).ok());
  }
  auto dirty = freq.AppendSnapshot(c);
  ASSERT_TRUE(dirty.ok());
  ASSERT_FALSE(dirty->empty());

  std::vector<TermPatterns> staged;
  auto todo = StageRemineTerms(freq, *dirty, opts, &staged);
  ASSERT_TRUE(todo.ok());
  ASSERT_EQ(staged.size(), todo->size());
  // Commit as FeedRuntime does: grow for new vocabulary (new slots start
  // out skipped), move the staged slots in, recount.
  const size_t old_size = live.terms.size();
  live.terms.resize(freq.num_terms());
  for (size_t t = old_size; t < live.terms.size(); ++t) {
    live.terms[t].term = static_cast<TermId>(t);
  }
  for (size_t i = 0; i < todo->size(); ++i) {
    live.terms[(*todo)[i]] = std::move(staged[i]);
  }
  live.terms_mined = 0;
  for (const TermPatterns& slot : live.terms) {
    if (slot.mined) ++live.terms_mined;
  }
  live.terms_skipped = live.terms.size() - live.terms_mined;
  ASSERT_EQ(live.terms.size(), freq.num_terms());

  auto fresh = MineAllTerms(freq, opts);
  ASSERT_TRUE(fresh.ok());

  std::vector<bool> is_dirty(freq.num_terms(), false);
  for (TermId t : *dirty) is_dirty[t] = true;
  for (TermId t = 0; t < freq.num_terms(); ++t) {
    if (is_dirty[t]) {
      // Re-mined slots are exactly what a fresh sweep produces.
      EXPECT_EQ(live.terms[t].mined, fresh->terms[t].mined) << "term " << t;
      ExpectSamePatterns(live.terms[t].combinatorial,
                         fresh->terms[t].combinatorial);
      ExpectSameWindows(live.terms[t].regional, fresh->terms[t].regional);
    } else if (t < before.terms.size()) {
      // Quiet slots keep the patterns of their last mine.
      ExpectSamePatterns(live.terms[t].combinatorial,
                         before.terms[t].combinatorial);
      ExpectSameWindows(live.terms[t].regional, before.terms[t].regional);
    } else {
      // New vocabulary that never got postings stays skipped.
      EXPECT_FALSE(live.terms[t].mined);
      EXPECT_EQ(live.terms[t].term, t);
    }
  }

  // Counters keep their invariant after incremental updates.
  size_t mined_slots = 0;
  for (const TermPatterns& slot : live.terms) {
    if (slot.mined) ++mined_slots;
  }
  EXPECT_EQ(live.terms_mined, mined_slots);
  EXPECT_EQ(live.terms_mined + live.terms_skipped, live.terms.size());
}

TEST(RemineTerms, ValidatesInput) {
  Collection c = MakeRandomCollection(3, 4, 10, 10, 60);
  FrequencyIndex freq = FrequencyIndex::Build(c);
  BatchMinerOptions opts;
  auto result = MineAllTerms(freq, opts);
  ASSERT_TRUE(result.ok());

  std::vector<TermPatterns> staged;
  EXPECT_TRUE(StageRemineTerms(freq, {static_cast<TermId>(freq.num_terms())},
                               opts, &staged)
                  .status()
                  .IsInvalidArgument());
  // Empty dirty set is a no-op success.
  auto none = StageRemineTerms(freq, {}, opts, &staged);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
  // Duplicates are tolerated: one slot per distinct term.
  auto deduped = StageRemineTerms(freq, {0, 0, 1}, opts, &staged);
  ASSERT_TRUE(deduped.ok());
  EXPECT_EQ(*deduped, (std::vector<TermId>{0, 1}));
  EXPECT_EQ(staged.size(), 2u);
}

}  // namespace
}  // namespace stburst
