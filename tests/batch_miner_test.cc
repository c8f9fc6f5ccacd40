// Tests for the batch mining engine (core/batch_miner): parallel runs must
// be indistinguishable from the serial per-term pipeline.

#include "stburst/core/batch_miner.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "stburst/common/random.h"
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
    collection->AddStream("s" + std::to_string(s), {},
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

void ExpectSamePatterns(const std::vector<CombinatorialPattern>& a,
                        const std::vector<CombinatorialPattern>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].streams, b[i].streams);
    EXPECT_EQ(a[i].timeframe, b[i].timeframe);
    EXPECT_DOUBLE_EQ(a[i].score, b[i].score);
  }
}

void ExpectSameWindows(const std::vector<SpatiotemporalWindow>& a,
                       const std::vector<SpatiotemporalWindow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].region, b[i].region);
    EXPECT_EQ(a[i].streams, b[i].streams);
    EXPECT_EQ(a[i].timeframe, b[i].timeframe);
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
  FrequencyIndex freq = FrequencyIndex::Build(c);
  const std::vector<Point2D> positions = c.StreamPositions();

  BatchMinerOptions opts;
  opts.stcomb.min_interval_burstiness = 0.05;
  opts.mine_regional = true;
  opts.positions = positions;
  opts.model_factory = TestFactory();
  opts.num_threads = 4;
  auto batch = MineAllTerms(freq, opts);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->terms.size(), freq.num_terms());
  EXPECT_EQ(batch->threads_used, 4u);

  // Reference: the seed's serial loop — dense per-term series through the
  // standalone miners.
  StComb stcomb(opts.stcomb);
  for (TermId term = 0; term < freq.num_terms(); ++term) {
    TermSeries series = freq.DenseSeries(term);
    ExpectSamePatterns(batch->terms[term].combinatorial,
                       stcomb.MinePatterns(series));
    auto windows =
        MineRegionalPatterns(series, positions, opts.model_factory, opts.stlocal);
    ASSERT_TRUE(windows.ok());
    ExpectSameWindows(batch->terms[term].regional, *windows);
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

TEST(MineAllTerms, StandingBinningInvariantAcrossThreadCounts) {
  // Whole-vocabulary regional mining with a caller-lent standing binning
  // (the FeedRuntime configuration) must equal the build-per-call runs at
  // every thread count.
  Collection c = MakeRandomCollection(77, 10, 30, 35, 350);
  FrequencyIndex freq = FrequencyIndex::Build(c);

  BatchMinerOptions opts;
  opts.stcomb.min_interval_burstiness = 0.05;
  opts.mine_regional = true;
  opts.positions = c.StreamPositions();
  opts.model_factory = TestFactory();
  opts.num_threads = 1;
  auto base = MineAllTerms(freq, opts);
  ASSERT_TRUE(base.ok());

  auto binning =
      SpatialBinning::Create(opts.positions, opts.stlocal.rbursty.rect);
  ASSERT_TRUE(binning.ok());
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    BatchMinerOptions standing = opts;
    standing.binning = &*binning;
    standing.num_threads = threads;
    auto run = MineAllTerms(freq, standing);
    ASSERT_TRUE(run.ok());
    ASSERT_EQ(run->terms.size(), base->terms.size());
    for (size_t t = 0; t < base->terms.size(); ++t) {
      ExpectSamePatterns(run->terms[t].combinatorial,
                         base->terms[t].combinatorial);
      ExpectSameWindows(run->terms[t].regional, base->terms[t].regional);
    }
  }

  // The same standing binning drives incremental re-mines too.
  BatchMineResult live = std::move(*base);
  BatchMinerOptions standing = opts;
  standing.binning = &*binning;
  standing.num_threads = 4;
  std::vector<TermId> all_terms;
  for (TermId t = 0; t < freq.num_terms(); ++t) all_terms.push_back(t);
  ASSERT_TRUE(RemineTerms(freq, all_terms, standing, &live).ok());
  auto fresh = MineAllTerms(freq, opts);
  ASSERT_TRUE(fresh.ok());
  for (size_t t = 0; t < fresh->terms.size(); ++t) {
    ExpectSameWindows(live.terms[t].regional, fresh->terms[t].regional);
  }
}

TEST(MineAllTerms, RejectsBinningOfWrongSize) {
  Collection c = MakeRandomCollection(5, 6, 10, 12, 80);
  FrequencyIndex freq = FrequencyIndex::Build(c);
  BatchMinerOptions opts;
  opts.mine_regional = true;
  opts.positions = c.StreamPositions();
  opts.model_factory = TestFactory();
  auto binning = SpatialBinning::Create(std::vector<Point2D>(3));
  ASSERT_TRUE(binning.ok());
  opts.binning = &*binning;
  EXPECT_TRUE(MineAllTerms(freq, opts).status().IsInvalidArgument());
}

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
  ASSERT_TRUE(freq.AppendSnapshot(c).ok());
  const std::vector<TermId> dirty = freq.TakeDirtyTerms();
  ASSERT_FALSE(dirty.empty());

  ASSERT_TRUE(RemineTerms(freq, dirty, opts, &live).ok());
  ASSERT_EQ(live.terms.size(), freq.num_terms());

  auto fresh = MineAllTerms(freq, opts);
  ASSERT_TRUE(fresh.ok());

  std::vector<bool> is_dirty(freq.num_terms(), false);
  for (TermId t : dirty) is_dirty[t] = true;
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

  EXPECT_TRUE(RemineTerms(freq, {static_cast<TermId>(freq.num_terms())}, opts,
                          &*result)
                  .IsInvalidArgument());
  // Empty dirty set is a no-op success.
  EXPECT_TRUE(RemineTerms(freq, {}, opts, &*result).ok());
  // Duplicates are tolerated.
  EXPECT_TRUE(RemineTerms(freq, {0, 0, 1}, opts, &*result).ok());
}

TEST(MineAllTerms, FrequencyFloorSkipsRareTerms) {
  Collection c = MakeRandomCollection(11, 6, 20, 25, 200);
  FrequencyIndex freq = FrequencyIndex::Build(c);
  BatchMinerOptions opts;
  opts.min_term_total = 5.0;
  auto result = MineAllTerms(freq, opts);
  ASSERT_TRUE(result.ok());
  size_t expected_mined = 0;
  for (TermId t = 0; t < freq.num_terms(); ++t) {
    if (!freq.postings(t).empty() && freq.TotalCount(t) >= 5.0) ++expected_mined;
  }
  EXPECT_EQ(result->terms_mined, expected_mined);
  for (TermId t = 0; t < freq.num_terms(); ++t) {
    if (freq.TotalCount(t) < 5.0) {
      EXPECT_TRUE(result->terms[t].combinatorial.empty());
    }
  }
}

}  // namespace
}  // namespace stburst
