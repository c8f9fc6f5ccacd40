// Tests for stream/frequency: TermSeries and FrequencyIndex, including
// Build's bit-for-bit parity with a sort-and-merge reference at every
// thread count and the append-path parity with a from-scratch rebuild.

#include "stburst/stream/frequency.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "stburst/common/parallel.h"
#include "stburst/common/random.h"
#include "stburst/common/string_util.h"

namespace stburst {
namespace {

TEST(TermSeries, ZeroInitializedAndAddressable) {
  TermSeries s(3, 4);
  EXPECT_EQ(s.num_streams(), 3u);
  EXPECT_EQ(s.timeline_length(), 4);
  for (StreamId i = 0; i < 3; ++i) {
    for (Timestamp t = 0; t < 4; ++t) EXPECT_DOUBLE_EQ(s.at(i, t), 0.0);
  }
  s.set(1, 2, 5.0);
  s.add(1, 2, 1.5);
  EXPECT_DOUBLE_EQ(s.at(1, 2), 6.5);
  EXPECT_DOUBLE_EQ(s.Total(), 6.5);
}

TEST(TermSeries, RowColumnAndAggregateViews) {
  TermSeries s(2, 3);
  s.set(0, 0, 1);
  s.set(0, 1, 2);
  s.set(0, 2, 3);
  s.set(1, 0, 10);
  s.set(1, 2, 30);
  std::span<const double> row = s.StreamRow(0);
  EXPECT_EQ(std::vector<double>(row.begin(), row.end()),
            (std::vector<double>{1, 2, 3}));
  EXPECT_EQ(s.AggregateOverStreams(), (std::vector<double>{11, 2, 33}));
}

Collection MakeCollection() {
  auto c = Collection::Create(4);
  StreamId s0 = c->AddStream("A", {}, {});
  StreamId s1 = c->AddStream("B", {}, {});
  Vocabulary* v = c->mutable_vocabulary();
  TermId cat = v->Intern("cat");
  TermId dog = v->Intern("dog");
  // doc with "cat cat dog" on (s0, t1); "cat" on (s0, t1) again; "dog" on (s1, t3)
  (void)c->AddDocument(s0, 1, {cat, cat, dog});
  (void)c->AddDocument(s0, 1, {cat});
  (void)c->AddDocument(s1, 3, {dog});
  return std::move(*c);
}

TEST(FrequencyIndex, MergesPostingsAcrossDocuments) {
  Collection c = MakeCollection();
  FrequencyIndex idx = FrequencyIndex::Build(c);
  EXPECT_EQ(idx.num_streams(), 2u);
  EXPECT_EQ(idx.timeline_length(), 4);
  TermId cat = c.vocabulary().Lookup("cat");
  TermId dog = c.vocabulary().Lookup("dog");

  const auto& cat_postings = idx.postings(cat);
  ASSERT_EQ(cat_postings.size(), 1u);  // both docs at (s0, t1) merged
  EXPECT_EQ(cat_postings[0].stream, 0u);
  EXPECT_EQ(cat_postings[0].time, 1);
  EXPECT_DOUBLE_EQ(cat_postings[0].count, 3.0);

  const auto& dog_postings = idx.postings(dog);
  ASSERT_EQ(dog_postings.size(), 2u);
  EXPECT_DOUBLE_EQ(idx.TotalCount(dog), 2.0);
}

TEST(FrequencyIndex, DenseSeriesMatchesPostings) {
  Collection c = MakeCollection();
  FrequencyIndex idx = FrequencyIndex::Build(c);
  TermId cat = c.vocabulary().Lookup("cat");
  TermSeries series = idx.DenseSeries(cat);
  EXPECT_DOUBLE_EQ(series.at(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(series.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(series.at(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(series.Total(), idx.TotalCount(cat));
}

TEST(FrequencyIndex, UnknownTermIsEmpty) {
  Collection c = MakeCollection();
  FrequencyIndex idx = FrequencyIndex::Build(c);
  EXPECT_TRUE(idx.postings(9999).empty());
  EXPECT_DOUBLE_EQ(idx.TotalCount(9999), 0.0);
}

// Randomized corpus with a Zipf-ish token skew, optionally ingested in a
// shuffled document order so buckets exercise the out-of-order sort path.
Collection MakeRandomCorpus(uint64_t seed, size_t num_streams,
                            Timestamp timeline, size_t vocab, size_t num_docs) {
  auto c = Collection::Create(timeline);
  EXPECT_TRUE(c.ok());
  Rng rng(seed);
  for (size_t s = 0; s < num_streams; ++s) {
    c->AddStream(StringPrintf("s%zu", s), {}, {});
  }
  Vocabulary* v = c->mutable_vocabulary();
  for (size_t t = 0; t < vocab; ++t) v->Intern("term" + std::to_string(t));
  for (size_t d = 0; d < num_docs; ++d) {
    StreamId stream = static_cast<StreamId>(rng.NextUint64(num_streams));
    Timestamp time =
        static_cast<Timestamp>(rng.NextUint64(static_cast<uint64_t>(timeline)));
    size_t len = 1 + rng.NextUint64(5);
    std::vector<TermId> tokens;
    for (size_t i = 0; i < len; ++i) {
      TermId tok = static_cast<TermId>(rng.NextUint64(vocab));
      if (rng.Bernoulli(0.5)) tok = static_cast<TermId>(tok % (vocab / 4 + 1));
      tokens.push_back(tok);
    }
    EXPECT_TRUE(c->AddDocument(stream, time, std::move(tokens)).ok());
  }
  return std::move(*c);
}

// Exact (bit-for-bit) posting equality, including float counts.
void ExpectIdenticalIndexes(const FrequencyIndex& a, const FrequencyIndex& b) {
  ASSERT_EQ(a.num_terms(), b.num_terms());
  ASSERT_EQ(a.num_streams(), b.num_streams());
  ASSERT_EQ(a.timeline_length(), b.timeline_length());
  for (TermId t = 0; t < a.num_terms(); ++t) {
    const auto& pa = a.postings(t);
    const auto& pb = b.postings(t);
    ASSERT_EQ(pa.size(), pb.size()) << "term " << t;
    for (size_t i = 0; i < pa.size(); ++i) {
      EXPECT_EQ(pa[i].stream, pb[i].stream) << "term " << t << " entry " << i;
      EXPECT_EQ(pa[i].time, pb[i].time) << "term " << t << " entry " << i;
      EXPECT_EQ(pa[i].count, pb[i].count) << "term " << t << " entry " << i;
    }
  }
}

// The reference Build is checked against: each document's tokens sorted and
// counted, every (stream, time, count) appended to its term, then each
// term's list stably sorted by (stream, time) and same-cell runs summed in
// document order.
std::vector<std::vector<TermPosting>> ReferencePostings(
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
    std::stable_sort(plist.begin(), plist.end(),
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

// Exact (bit-for-bit) equality of an index with the reference postings of
// the collection it was built from, including its window.
void ExpectMatchesReference(const FrequencyIndex& index,
                            const Collection& collection) {
  const std::vector<std::vector<TermPosting>> expected =
      ReferencePostings(collection);
  ASSERT_EQ(index.num_terms(), expected.size());
  ASSERT_EQ(index.num_streams(), collection.num_streams());
  ASSERT_EQ(index.timeline_length(), collection.timeline_length());
  ASSERT_EQ(index.window_start(), collection.window_start());
  for (TermId t = 0; t < index.num_terms(); ++t) {
    const auto& got = index.postings(t);
    const auto& want = expected[t];
    ASSERT_EQ(got.size(), want.size()) << "term " << t;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].stream, want[i].stream) << "term " << t << " #" << i;
      EXPECT_EQ(got[i].time, want[i].time) << "term " << t << " #" << i;
      EXPECT_EQ(got[i].count, want[i].count) << "term " << t << " #" << i;
    }
  }
}

TEST(FrequencyIndexOracle, BuildMatchesReferenceAtAnyThreadCount) {
  std::vector<Collection> inputs;
  // Documents filed out of time order.
  inputs.push_back(MakeRandomCorpus(17, 14, 40, 500, 17000));
  // The same corpus time-ordered and evicted, so the window starts past 0.
  inputs.push_back(MakeRandomCorpus(17, 14, 40, 500, 17000));
  inputs.back().SortByTime();
  ASSERT_TRUE(inputs.back().EvictBefore(13).ok());
  ASSERT_EQ(inputs.back().window_start(), 13);
  // An empty stream and vocabulary terms that never occur.
  {
    auto c = Collection::Create(6);
    ASSERT_TRUE(c.ok());
    StreamId a = c->AddStream("A", {}, {});
    c->AddStream("empty", {}, {});
    StreamId b = c->AddStream("B", {}, {});
    Vocabulary* v = c->mutable_vocabulary();
    TermId x = v->Intern("x");
    v->Intern("unused1");
    TermId y = v->Intern("y");
    v->Intern("unused2");
    ASSERT_TRUE(c->AddDocument(b, 5, {y, x, y}).ok());
    ASSERT_TRUE(c->AddDocument(a, 2, {x}).ok());
    ASSERT_TRUE(c->AddDocument(b, 5, {x}).ok());
    ASSERT_TRUE(c->AddDocument(a, 0, {y, y, y}).ok());
    inputs.push_back(std::move(*c));
  }

  Rng rng(31);
  for (size_t n = 0; n < inputs.size(); ++n) {
    SCOPED_TRACE("input " + std::to_string(n));
    std::vector<size_t> thread_counts = {1, 2, 4, 8};
    for (int i = 0; i < 3; ++i) {
      thread_counts.push_back(2 + rng.NextUint64(9));  // 2..10
    }
    for (size_t threads : thread_counts) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      FrequencyIndex index = FrequencyIndex::Build(inputs[n], threads);
      ExpectMatchesReference(index, inputs[n]);
    }
  }
}

// Build at any thread count equals the serial Build and the reference, bit
// for bit, on a corpus large enough that the splice has many terms to share.
TEST(FrequencyIndexSharded, BitIdenticalToSerialAt1248Threads) {
  Collection c = MakeRandomCorpus(17, 14, 40, 500, 17000);
  FrequencyIndex serial = FrequencyIndex::Build(c, 1);
  ExpectMatchesReference(serial, c);
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    FrequencyIndex pooled = FrequencyIndex::Build(c, threads);
    ExpectIdenticalIndexes(serial, pooled);
    ExpectMatchesReference(pooled, c);
  }
}

TEST(FrequencyIndexSharded, BitIdenticalAcrossRandomizedThreadCounts) {
  Rng rng(23);
  for (int trial = 0; trial < 4; ++trial) {
    Collection c = MakeRandomCorpus(100 + static_cast<uint64_t>(trial), 9, 25,
                                    200, 9000);
    FrequencyIndex serial = FrequencyIndex::Build(c, 1);
    ExpectMatchesReference(serial, c);
    for (int i = 0; i < 3; ++i) {
      size_t threads = 2 + rng.NextUint64(9);  // 2..10
      SCOPED_TRACE("trial " + std::to_string(trial) + " threads " +
                   std::to_string(threads));
      FrequencyIndex pooled = FrequencyIndex::Build(c, threads);
      ExpectIdenticalIndexes(serial, pooled);
      ExpectMatchesReference(pooled, c);
    }
  }
}

TEST(FrequencyIndexAppend, BuildOnceEqualsRebuildAfterNAppends) {
  Collection c = MakeRandomCorpus(41, 10, 20, 120, 600);
  FrequencyIndex incremental = FrequencyIndex::Build(c);

  Rng rng(42);
  for (int round = 0; round < 12; ++round) {
    Snapshot snap;
    size_t docs = rng.NextUint64(20);  // occasionally an empty snapshot
    for (size_t d = 0; d < docs; ++d) {
      SnapshotDocument doc;
      doc.stream = static_cast<StreamId>(rng.NextUint64(c.num_streams()));
      size_t len = 1 + rng.NextUint64(4);
      for (size_t i = 0; i < len; ++i) {
        if (rng.Bernoulli(0.05)) {
          // Live feeds intern new vocabulary mid-flight.
          doc.tokens.push_back(c.mutable_vocabulary()->Intern(
              "new" + std::to_string(rng.NextUint64(50))));
        } else {
          doc.tokens.push_back(static_cast<TermId>(rng.NextUint64(120)));
        }
      }
      snap.push_back(std::move(doc));
    }
    ASSERT_TRUE(c.Append(std::move(snap)).ok());
    // Sometimes let several snapshots accumulate before catching up.
    if (round % 3 == 2 || round == 11) {
      ASSERT_TRUE(incremental.AppendSnapshot(c).ok());
    }
  }
  ASSERT_TRUE(incremental.AppendSnapshot(c).ok());
  EXPECT_EQ(incremental.timeline_length(), c.timeline_length());

  ExpectIdenticalIndexes(incremental, FrequencyIndex::Build(c));
  ExpectIdenticalIndexes(incremental, FrequencyIndex::Build(c, 4));
}

TEST(FrequencyIndexAppend, TracksDirtyTerms) {
  auto c = Collection::Create(2);
  ASSERT_TRUE(c.ok());
  StreamId s = c->AddStream("A", {}, {});
  Vocabulary* v = c->mutable_vocabulary();
  TermId cat = v->Intern("cat");
  TermId dog = v->Intern("dog");
  (void)c->AddDocument(s, 0, {cat, dog});
  FrequencyIndex idx = FrequencyIndex::Build(*c);

  Snapshot snap;
  snap.push_back(SnapshotDocument{s, {dog, dog}});
  ASSERT_TRUE(c->Append(std::move(snap)).ok());
  auto touched = idx.AppendSnapshot(*c);
  ASSERT_TRUE(touched.ok());
  EXPECT_EQ(*touched, (std::vector<TermId>{dog}));
  // Nothing accumulates in the index: a catch-up with no new timestamps
  // touches nothing.
  auto again = idx.AppendSnapshot(*c);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->empty());
  EXPECT_DOUBLE_EQ(idx.TotalCount(dog), 3.0);
  EXPECT_DOUBLE_EQ(idx.TotalCount(cat), 1.0);
}

TEST(FrequencyIndexAppend, RejectsForeignCollections) {
  auto a = Collection::Create(5);
  ASSERT_TRUE(a.ok());
  a->AddStream("A", {}, {});
  a->mutable_vocabulary()->Intern("x");
  FrequencyIndex idx = FrequencyIndex::Build(*a);

  auto shorter = Collection::Create(3);
  ASSERT_TRUE(shorter.ok());
  shorter->AddStream("A", {}, {});
  shorter->mutable_vocabulary()->Intern("x");
  EXPECT_TRUE(idx.AppendSnapshot(*shorter).status().IsInvalidArgument());

  auto no_vocab = Collection::Create(6);
  ASSERT_TRUE(no_vocab.ok());
  no_vocab->AddStream("A", {}, {});
  EXPECT_TRUE(idx.AppendSnapshot(*no_vocab).status().IsInvalidArgument());
}

TEST(FrequencyIndexRetention, EvictBeforeDropsOldPostingsAndMarksDirty) {
  Collection c = MakeCollection();  // cat at (s0,t1); dog at (s0,t1),(s1,t3)
  FrequencyIndex idx = FrequencyIndex::Build(c);
  TermId cat = c.vocabulary().Lookup("cat");
  TermId dog = c.vocabulary().Lookup("dog");

  auto evicted = idx.EvictBefore(2);
  ASSERT_TRUE(evicted.ok());
  EXPECT_EQ(idx.window_start(), 2);
  EXPECT_EQ(idx.window_length(), 2);
  EXPECT_TRUE(idx.postings(cat).empty());
  ASSERT_EQ(idx.postings(dog).size(), 1u);
  EXPECT_EQ(idx.postings(dog)[0].time, 3);

  // Both terms lost postings and must be returned; re-evicting at the same
  // cutoff is a no-op and returns nothing.
  EXPECT_EQ(*evicted, (std::vector<TermId>{cat, dog}));
  auto again = idx.EvictBefore(2);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->empty());

  // The dense series now covers the window, with column 0 = window_start.
  TermSeries series = idx.DenseSeries(dog);
  EXPECT_EQ(series.timeline_length(), 2);
  EXPECT_DOUBLE_EQ(series.at(1, 1), 1.0);  // (s1, absolute t3)

  EXPECT_TRUE(idx.EvictBefore(99).status().IsOutOfRange());
}

TEST(FrequencyIndexRetention, ParallelEvictionMatchesSerial) {
  Collection c = MakeRandomCorpus(77, 8, 30, 150, 4000);
  FrequencyIndex serial = FrequencyIndex::Build(c);
  auto serial_evicted = serial.EvictBefore(11);
  ASSERT_TRUE(serial_evicted.ok());
  EXPECT_FALSE(serial_evicted->empty());
  for (size_t pool_threads : {1u, 3u, 7u}) {
    FrequencyIndex parallel = FrequencyIndex::Build(c);
    ThreadPool pool(pool_threads);
    auto parallel_evicted = parallel.EvictBefore(11, &pool);
    ASSERT_TRUE(parallel_evicted.ok());
    ExpectIdenticalIndexes(serial, parallel);
    EXPECT_EQ(*serial_evicted, *parallel_evicted);
  }
}

TEST(FrequencyIndexRetention, MemoryShrinksWithEviction) {
  Collection c = MakeRandomCorpus(53, 8, 40, 100, 8000);
  FrequencyIndex idx = FrequencyIndex::Build(c);
  const size_t before = idx.PostingsMemoryBytes();
  ASSERT_TRUE(idx.EvictBefore(30).ok());  // keep the last quarter
  const size_t after = idx.PostingsMemoryBytes();
  EXPECT_LT(static_cast<double>(after), 0.6 * static_cast<double>(before))
      << before << " -> " << after;
}

TEST(FrequencyIndexAppend, ParallelSpliceBitIdenticalToSerial) {
  Collection base = MakeRandomCorpus(71, 10, 20, 120, 2000);
  // Two identical live collections appended in lockstep: one index splices
  // serially, the other across pools of several sizes.
  FrequencyIndex serial = FrequencyIndex::Build(base);
  FrequencyIndex pooled = FrequencyIndex::Build(base);
  Rng rng(72);
  for (size_t pool_threads : {1u, 2u, 5u}) {
    Snapshot snap;
    size_t docs = 30 + rng.NextUint64(30);
    for (size_t d = 0; d < docs; ++d) {
      SnapshotDocument doc;
      doc.stream = static_cast<StreamId>(rng.NextUint64(base.num_streams()));
      size_t len = 1 + rng.NextUint64(5);
      for (size_t i = 0; i < len; ++i) {
        doc.tokens.push_back(static_cast<TermId>(rng.NextUint64(120)));
      }
      snap.push_back(std::move(doc));
    }
    ASSERT_TRUE(base.Append(std::move(snap)).ok());
    auto serial_touched = serial.AppendSnapshot(base);
    ASSERT_TRUE(serial_touched.ok());
    ThreadPool pool(pool_threads);
    auto pooled_touched = pooled.AppendSnapshot(base, &pool);
    ASSERT_TRUE(pooled_touched.ok());
    ExpectIdenticalIndexes(serial, pooled);
    EXPECT_EQ(*serial_touched, *pooled_touched);
  }
}

TEST(FrequencyIndex, PostingsSortedByStreamThenTime) {
  auto c = Collection::Create(5);
  StreamId s0 = c->AddStream("A", {}, {});
  StreamId s1 = c->AddStream("B", {}, {});
  TermId t = c->mutable_vocabulary()->Intern("x");
  (void)c->AddDocument(s1, 4, {t});
  (void)c->AddDocument(s0, 2, {t});
  (void)c->AddDocument(s1, 0, {t});
  (void)c->AddDocument(s0, 0, {t});
  FrequencyIndex idx = FrequencyIndex::Build(*c);
  const auto& p = idx.postings(t);
  ASSERT_EQ(p.size(), 4u);
  for (size_t i = 1; i < p.size(); ++i) {
    bool ordered = p[i - 1].stream < p[i].stream ||
                   (p[i - 1].stream == p[i].stream && p[i - 1].time < p[i].time);
    EXPECT_TRUE(ordered);
  }
}

// The terms whose postings differ between two states of one index, in
// TermId order; a term only `after` holds counts as changed when it has
// postings.
std::vector<TermId> ChangedTerms(const FrequencyIndex& before,
                                 const FrequencyIndex& after) {
  std::vector<TermId> changed;
  for (TermId t = 0; t < after.num_terms(); ++t) {
    const auto& pa = before.postings(t);
    const auto& pb = after.postings(t);
    bool same = pa.size() == pb.size();
    for (size_t i = 0; same && i < pa.size(); ++i) {
      same = pa[i].stream == pb[i].stream && pa[i].time == pb[i].time &&
             pa[i].count == pb[i].count;
    }
    if (!same) changed.push_back(t);
  }
  return changed;
}

// Differential check of the change sets: on seeded random feeds, every list
// AppendSnapshot and EvictBefore return is exactly the set of terms whose
// postings the call changed — serially and with the work fanned across a
// pool — including empty snapshots, new vocabulary and no-op evictions.
TEST(FrequencyIndexChangeSets, ReturnedTermsAreExactlyTheChangedPostings) {
  for (uint64_t seed : {81u, 82u, 83u}) {
    for (size_t pool_threads : {0u, 3u}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " pool " +
                   std::to_string(pool_threads));
      Collection c = MakeRandomCorpus(seed, 7, 12, 90, 700);
      c.SortByTime();
      FrequencyIndex idx = FrequencyIndex::Build(c);
      std::unique_ptr<ThreadPool> pool;
      if (pool_threads > 0) pool = std::make_unique<ThreadPool>(pool_threads);
      Rng rng(seed * 7 + 1);
      size_t appended = 0, evicted = 0;
      for (int round = 0; round < 24; ++round) {
        Snapshot snap;
        const size_t docs = rng.NextUint64(25);  // sometimes empty
        for (size_t d = 0; d < docs; ++d) {
          SnapshotDocument doc;
          doc.stream = static_cast<StreamId>(rng.NextUint64(c.num_streams()));
          const size_t len = 1 + rng.NextUint64(4);
          for (size_t i = 0; i < len; ++i) {
            if (rng.Bernoulli(0.05)) {
              doc.tokens.push_back(c.mutable_vocabulary()->Intern(
                  "new" + std::to_string(rng.NextUint64(30))));
            } else {
              doc.tokens.push_back(static_cast<TermId>(rng.NextUint64(90)));
            }
          }
          snap.push_back(std::move(doc));
        }
        ASSERT_TRUE(c.Append(std::move(snap)).ok());
        const FrequencyIndex before_append = idx;
        auto touched = idx.AppendSnapshot(c, pool.get());
        ASSERT_TRUE(touched.ok());
        EXPECT_EQ(*touched, ChangedTerms(before_append, idx))
            << "append, round " << round;
        appended += touched->size();

        // Slide the window by 0-2 timestamps; a zero step is a no-op
        // eviction that must return nothing.
        const Timestamp cutoff = std::min<Timestamp>(
            c.timeline_length() - 1,
            idx.window_start() + static_cast<Timestamp>(rng.NextUint64(3)));
        ASSERT_TRUE(c.EvictBefore(cutoff).ok());
        const FrequencyIndex before_evict = idx;
        auto lost = idx.EvictBefore(cutoff, pool.get());
        ASSERT_TRUE(lost.ok());
        EXPECT_EQ(*lost, ChangedTerms(before_evict, idx))
            << "eviction, round " << round;
        evicted += lost->size();
      }
      // Not vacuous: both calls changed postings along the way.
      EXPECT_GT(appended, 0u);
      EXPECT_GT(evicted, 0u);
    }
  }
}

TEST(FrequencyIndexRollback, AppendRoundTripRestoresPostings) {
  Collection c = MakeRandomCorpus(51, 6, 10, 80, 300);
  FrequencyIndex idx = FrequencyIndex::Build(c);
  const FrequencyIndex before = idx;

  const auto checkpoint = idx.CheckpointBeforeAppend();
  Rng rng(52);
  for (int round = 0; round < 3; ++round) {
    Snapshot snap;
    for (size_t d = 0; d < 8; ++d) {
      SnapshotDocument doc;
      doc.stream = static_cast<StreamId>(rng.NextUint64(c.num_streams()));
      doc.tokens.push_back(static_cast<TermId>(rng.NextUint64(80)));
      // Mid-flight vocabulary growth must roll back too.
      doc.tokens.push_back(c.mutable_vocabulary()->Intern(
          "new" + std::to_string(rng.NextUint64(20))));
      snap.push_back(std::move(doc));
    }
    ASSERT_TRUE(c.Append(std::move(snap)).ok());
    ASSERT_TRUE(idx.AppendSnapshot(c).ok());
  }
  ASSERT_GT(idx.num_terms(), before.num_terms());

  idx.RollbackAppend(checkpoint);
  ExpectIdenticalIndexes(before, idx);
}

TEST(FrequencyIndexRollback, EvictRoundTripRestoresPostings) {
  Collection c = MakeRandomCorpus(61, 6, 12, 80, 500);
  for (size_t threads : {0u, 3u}) {
    FrequencyIndex idx = FrequencyIndex::Build(c);
    const FrequencyIndex before = idx;
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<ThreadPool>(threads);

    FrequencyEvictUndo undo;
    ASSERT_TRUE(idx.EvictBefore(7, pool.get(), &undo).ok());
    ASSERT_EQ(idx.window_start(), 7);
    ASSERT_FALSE(undo.removed.empty());

    idx.RollbackEvict(std::move(undo));
    ExpectIdenticalIndexes(before, idx);
    EXPECT_EQ(idx.window_start(), before.window_start());
  }
}

TEST(FrequencyIndexRetention, EvictToEmptyWindowStillMines) {
  // Evicting every retained timestamp leaves L = 0 term series; the miner
  // must treat that as "nothing to mine", not a checked crash.
  auto c = Collection::Create(2);
  ASSERT_TRUE(c.ok());
  StreamId s = c->AddStream("A", {}, {});
  TermId w = c->mutable_vocabulary()->Intern("w");
  ASSERT_TRUE(c->AddDocument(s, 0, {w}).ok());
  ASSERT_TRUE(c->AddDocument(s, 1, {w}).ok());
  FrequencyIndex idx = FrequencyIndex::Build(*c);
  ASSERT_TRUE(c->EvictBefore(2).ok());
  ASSERT_TRUE(idx.EvictBefore(2).ok());
  EXPECT_TRUE(idx.postings(w).empty());
  EXPECT_EQ(idx.window_length(), 0);
  EXPECT_DOUBLE_EQ(idx.TotalCount(w), 0.0);
}

}  // namespace
}  // namespace stburst
