// Tests for the bursty-document search engine (index/search_engine).

#include "stburst/index/search_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "index_test_util.h"
#include "stburst/common/random.h"

namespace stburst {
namespace {

// A 2-stream, 10-timestamp corpus with a known pattern on (stream 0,
// weeks [2, 5]).
struct Fixture {
  Collection collection;
  PatternIndex patterns;
  TermId quake;
  DocId in_pattern_strong;   // 3 mentions inside the pattern
  DocId in_pattern_weak;     // 1 mention inside the pattern
  DocId out_of_time;         // mention outside the timeframe
  DocId out_of_space;        // mention on the other stream

  static Fixture Make() {
    auto c = Collection::Create(10);
    StreamId s0 = c->AddStream("A", {}, Point2D{0, 0});
    StreamId s1 = c->AddStream("B", {}, Point2D{9, 9});
    Vocabulary* v = c->mutable_vocabulary();
    TermId quake = v->Intern("earthquake");
    TermId filler = v->Intern("filler");

    DocId strong = *c->AddDocument(s0, 3, {quake, quake, quake, filler});
    DocId weak = *c->AddDocument(s0, 4, {quake, filler});
    DocId late = *c->AddDocument(s0, 8, {quake, quake, quake});
    DocId elsewhere = *c->AddDocument(s1, 3, {quake, quake, quake});

    PatternIndex p;
    p.Add(quake, TermPattern{{s0}, Interval{2, 5}, 2.0});
    return Fixture{std::move(*c), std::move(p), quake,
                   strong, weak, late, elsewhere};
  }
};

TEST(BurstySearchEngine, RanksByRelevanceTimesBurstiness) {
  Fixture f = Fixture::Make();
  auto engine = BurstySearchEngine::Build(f.collection, f.patterns);
  auto result = engine.Search("earthquake", 10);
  ASSERT_EQ(result.docs.size(), 2u);  // only pattern-overlapping docs
  EXPECT_EQ(result.docs[0].doc, f.in_pattern_strong);
  EXPECT_EQ(result.docs[1].doc, f.in_pattern_weak);
  EXPECT_NEAR(result.docs[0].score, std::log(4.0) * 2.0, 1e-9);
  EXPECT_NEAR(result.docs[1].score, std::log(2.0) * 2.0, 1e-9);
}

TEST(BurstySearchEngine, DocsOutsidePatternsAreExcluded) {
  Fixture f = Fixture::Make();
  auto engine = BurstySearchEngine::Build(f.collection, f.patterns);
  auto result = engine.Search("earthquake", 10);
  for (const auto& d : result.docs) {
    EXPECT_NE(d.doc, f.out_of_time);
    EXPECT_NE(d.doc, f.out_of_space);
  }
}

TEST(BurstySearchEngine, UnknownQueryTermYieldsNothing) {
  Fixture f = Fixture::Make();
  auto engine = BurstySearchEngine::Build(f.collection, f.patterns);
  EXPECT_TRUE(engine.Search("nonexistent", 5).docs.empty());
  EXPECT_TRUE(engine.Search("", 5).docs.empty());
}

TEST(BurstySearchEngine, MultiTermQuerySumsContributions) {
  auto c = Collection::Create(10);
  StreamId s0 = c->AddStream("A", {}, {});
  Vocabulary* v = c->mutable_vocabulary();
  TermId air = v->Intern("air");
  TermId france = v->Intern("france");
  DocId both = *c->AddDocument(s0, 1, {air, france});
  DocId only_air = *c->AddDocument(s0, 1, {air});

  PatternIndex p;
  p.Add(air, TermPattern{{s0}, Interval{0, 5}, 1.0});
  p.Add(france, TermPattern{{s0}, Interval{0, 5}, 1.0});

  auto engine = BurstySearchEngine::Build(*c, p);
  auto result = engine.Search("air france", 10);
  ASSERT_EQ(result.docs.size(), 2u);
  EXPECT_EQ(result.docs[0].doc, both);
  EXPECT_EQ(result.docs[1].doc, only_air);
  EXPECT_NEAR(result.docs[0].score, 2.0 * std::log(2.0), 1e-9);
}

TEST(BurstySearchEngine, ThresholdAndExhaustiveAgree) {
  Fixture f = Fixture::Make();
  auto engine = BurstySearchEngine::Build(f.collection, f.patterns);
  auto r1 = engine.Search("earthquake", 5);
  auto r2 = ExhaustiveTopK(engine.index(), {f.quake}, 5);
  ASSERT_EQ(r1.docs.size(), r2.docs.size());
  for (size_t i = 0; i < r1.docs.size(); ++i) {
    EXPECT_EQ(r1.docs[i].doc, r2.docs[i].doc);
  }
}

// The reference for ScoreTermsByCell: the per-term scorer it replaced. For
// each cell holding `term` that a pattern overlaps, every document of the
// cell is visited and its tokens are scanned for the term.
void ReferenceScoreTerm(const Collection& collection,
                        const FrequencyIndex& freq, TermId term,
                        std::span<const TermPattern> patterns,
                        std::vector<Posting>* out) {
  if (patterns.empty()) return;
  for (const TermPosting& cell : freq.postings(term)) {
    double burst_score;
    if (!MaxOverlapScore(patterns, cell.stream, cell.time, &burst_score)) {
      continue;
    }
    for (DocId id : collection.DocumentsAt(cell.stream, cell.time)) {
      const Document& doc = collection.document(id);
      size_t count = 0;
      for (TermId token : doc.tokens) count += token == term ? 1 : 0;
      if (count == 0) continue;
      const double entry =
          Relevance(static_cast<double>(count)) * burst_score;
      if (entry > 0.0) out->push_back(Posting{id, entry});
    }
  }
}

// One seeded adversarial pack: a windowed corpus (window_start > 0) with
// repeated tokens, empty documents and one cell carrying every term, plus
// per-term raw pattern lists (unsorted streams, some repeated or unknown;
// empty lists; scores <= 0; overlapping patterns of different scores) over
// a vocabulary that grew past the frequency index's term count after it
// was built.
struct ScorePack {
  Collection collection;
  FrequencyIndex freq;
  std::vector<std::vector<TermPattern>> raw;  // by TermId, unsorted streams
  PatternIndex patterns;                      // the same, sorted on Add
};

ScorePack MakeScorePack(uint64_t seed) {
  Rng rng(seed);
  constexpr Timestamp kTimeline = 14;
  constexpr Timestamp kEvictBefore = 5;
  const size_t num_streams = 2 + rng.NextUint64(5);
  const size_t vocab = 6 + rng.NextUint64(20);
  const size_t extra_terms = 1 + rng.NextUint64(4);

  auto c = Collection::Create(kTimeline);
  for (size_t s = 0; s < num_streams; ++s) {
    c->AddStream("s", {}, Point2D{static_cast<double>(s), 0.0});
  }
  Vocabulary* v = c->mutable_vocabulary();
  for (size_t t = 0; t < vocab; ++t) v->Intern("t" + std::to_string(t));
  const StreamId hot_stream =
      static_cast<StreamId>(rng.NextUint64(num_streams));
  const Timestamp hot_time = static_cast<Timestamp>(
      kEvictBefore + rng.NextUint64(kTimeline - kEvictBefore));
  for (Timestamp t = 0; t < kTimeline; ++t) {
    for (StreamId s = 0; s < num_streams; ++s) {
      const size_t docs = rng.NextUint64(4);
      for (size_t d = 0; d < docs; ++d) {
        std::vector<TermId> tokens;
        const size_t len = rng.Bernoulli(0.15) ? 0 : 1 + rng.NextUint64(6);
        for (size_t i = 0; i < len; ++i) {
          tokens.push_back(static_cast<TermId>(rng.NextUint64(vocab)));
        }
        if (!tokens.empty() && rng.Bernoulli(0.3)) {
          tokens.insert(tokens.end(), 2 + rng.NextUint64(3), tokens[0]);
        }
        EXPECT_TRUE(c->AddDocument(s, t, std::move(tokens)).ok());
      }
      if (s == hot_stream && t == hot_time) {
        std::vector<TermId> every;
        for (size_t k = 0; k < vocab; ++k) {
          every.insert(every.end(), 1 + rng.NextUint64(2),
                       static_cast<TermId>(k));
        }
        rng.Shuffle(&every);
        EXPECT_TRUE(c->AddDocument(s, t, std::move(every)).ok());
      }
    }
  }
  EXPECT_TRUE(c->EvictBefore(kEvictBefore).ok());
  FrequencyIndex freq = FrequencyIndex::Build(*c);
  for (size_t t = 0; t < extra_terms; ++t) v->Intern("x" + std::to_string(t));

  ScorePack pack{std::move(*c), std::move(freq), {}, {}};
  const size_t total_terms = vocab + extra_terms;
  pack.raw.resize(total_terms);
  for (TermId t = 0; t < total_terms; ++t) {
    if (rng.Bernoulli(0.2)) continue;  // a term with no patterns
    const size_t count = 1 + rng.NextUint64(4);
    for (size_t i = 0; i < count; ++i) {
      std::vector<StreamId> streams;
      for (StreamId s = 0; s < num_streams; ++s) {
        if (rng.Bernoulli(0.5)) streams.push_back(s);
      }
      if (streams.empty()) streams.push_back(hot_stream);
      if (rng.Bernoulli(0.3)) {  // a repeated stream
        streams.push_back(streams[rng.NextUint64(streams.size())]);
      }
      if (rng.Bernoulli(0.1)) {  // a stream the corpus does not have
        streams.push_back(
            static_cast<StreamId>(num_streams + rng.NextUint64(3)));
      }
      rng.Shuffle(&streams);
      const Timestamp start =
          static_cast<Timestamp>(rng.NextUint64(kTimeline));
      const Timestamp end = std::min<Timestamp>(
          kTimeline - 1, start + static_cast<Timestamp>(rng.NextUint64(6)));
      double score = rng.Uniform(0.2, 3.0);
      if (rng.Bernoulli(0.15)) score = 0.0;
      if (rng.Bernoulli(0.15)) score = -rng.Uniform(0.1, 2.0);
      pack.raw[t].push_back(
          TermPattern{std::move(streams), Interval{start, end}, score});
    }
    // Every patterned term also overlaps the hot cell, so that cell holds
    // many score terms at once.
    pack.raw[t].push_back(TermPattern{{hot_stream},
                                      Interval{hot_time, hot_time},
                                      rng.Uniform(-0.5, 3.0)});
  }
  for (TermId t = 0; t < total_terms; ++t) {
    for (const TermPattern& p : pack.raw[t]) pack.patterns.Add(t, p);
  }
  return pack;
}

TEST(ScoreTermsByCell, MatchesPerTermOracleAndDocMajorBuild) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ScorePack pack = MakeScorePack(seed);
    ASSERT_GT(pack.freq.window_start(), 0);
    ASSERT_GT(pack.raw.size(), pack.freq.num_terms());

    // Score terms in shuffled order: the result is index-addressed.
    std::vector<TermId> terms(pack.raw.size());
    for (size_t t = 0; t < terms.size(); ++t) terms[t] = static_cast<TermId>(t);
    Rng order(seed * 7919);
    order.Shuffle(&terms);

    for (size_t threads : {0u, 3u}) {
      std::unique_ptr<ThreadPool> pool =
          threads == 0 ? nullptr : std::make_unique<ThreadPool>(threads);
      size_t scanned = 0;
      std::vector<std::vector<Posting>> staged = ScoreTermsByCell(
          pack.collection, pack.freq, terms,
          [&](size_t i, std::vector<TermPattern>* out) {
            *out = pack.raw[terms[i]];
          },
          pool.get(), &scanned);
      ASSERT_EQ(staged.size(), terms.size());

      // `terms` is a permutation of every term id.
      std::vector<std::vector<Posting>> kernel_lists(terms.size());
      for (size_t i = 0; i < terms.size(); ++i) {
        kernel_lists[terms[i]] = std::move(staged[i]);
      }
      const InvertedIndex kernel(std::move(kernel_lists));

      std::vector<std::vector<Posting>> oracle_lists(pack.raw.size());
      for (TermId t = 0; t < pack.raw.size(); ++t) {
        ReferenceScoreTerm(pack.collection, pack.freq, t,
                           pack.patterns.PatternsFor(t), &oracle_lists[t]);
      }
      const InvertedIndex oracle(std::move(oracle_lists));

      auto engine = BurstySearchEngine::Build(pack.collection, pack.patterns);
      ExpectIdenticalIndexes(kernel, oracle);
      ExpectIdenticalIndexes(kernel, engine.index());

      // The counter is exact: the tokens of every document in a cell where
      // some term's patterns overlap one of its postings, each read once.
      size_t expected = 0;
      for (StreamId s = 0; s < pack.freq.num_streams(); ++s) {
        for (Timestamp time = pack.freq.window_start();
             time < pack.collection.timeline_length(); ++time) {
          bool touched = false;
          for (TermId t = 0; t < pack.freq.num_terms() && !touched; ++t) {
            double burst;
            for (const TermPosting& p : pack.freq.postings(t)) {
              if (p.stream == s && p.time == time &&
                  pack.patterns.MaxOverlapScore(t, s, time, &burst)) {
                touched = true;
              }
            }
          }
          if (!touched) continue;
          for (DocId id : pack.collection.DocumentsAt(s, time)) {
            expected += pack.collection.document(id).tokens.size();
          }
        }
      }
      EXPECT_EQ(scanned, expected);
    }
  }
}

TEST(ScoreTermsByCell, EmptyTermListScoresNothing) {
  ScorePack pack = MakeScorePack(3);
  size_t scanned = 1;
  std::vector<std::vector<Posting>> staged = ScoreTermsByCell(
      pack.collection, pack.freq, {},
      [](size_t, std::vector<TermPattern>*) { FAIL() << "no term to source"; },
      nullptr, &scanned);
  EXPECT_TRUE(staged.empty());
  EXPECT_EQ(scanned, 0u);
}

TEST(Relevance, LogOfFrequencyPlusOne) {
  EXPECT_DOUBLE_EQ(Relevance(0.0), 0.0);
  EXPECT_NEAR(Relevance(1.0), std::log(2.0), 1e-12);
  EXPECT_GT(Relevance(10.0), Relevance(5.0));
}

}  // namespace
}  // namespace stburst
