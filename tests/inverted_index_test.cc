// Tests for index/inverted_index and index/pattern_index.

#include "stburst/index/inverted_index.h"

#include <gtest/gtest.h>

#include <vector>

#include "stburst/common/random.h"
#include "stburst/index/pattern_index.h"
#include "index_test_util.h"

namespace stburst {
namespace {

TEST(InvertedIndex, PostingsSortedByScoreDescending) {
  InvertedIndex idx;
  idx.Add(0, 10, 1.0);
  idx.Add(0, 11, 3.0);
  idx.Add(0, 12, 2.0);
  idx.Finalize();
  const auto& p = idx.postings(0);
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p[0].doc, 11u);
  EXPECT_EQ(p[1].doc, 12u);
  EXPECT_EQ(p[2].doc, 10u);
}

TEST(InvertedIndex, TieBreakByDocId) {
  InvertedIndex idx;
  idx.Add(0, 9, 1.0);
  idx.Add(0, 3, 1.0);
  idx.Finalize();
  EXPECT_EQ(idx.postings(0)[0].doc, 3u);
}

TEST(InvertedIndex, RandomAccess) {
  InvertedIndex idx;
  idx.Add(2, 5, 1.5);
  idx.Finalize();
  double score = 0.0;
  EXPECT_TRUE(idx.Score(2, 5, &score));
  EXPECT_DOUBLE_EQ(score, 1.5);
  EXPECT_FALSE(idx.Score(2, 6, &score));
  EXPECT_FALSE(idx.Score(99, 5, &score));
}

TEST(InvertedIndex, UnknownTermEmpty) {
  InvertedIndex idx;
  idx.Finalize();
  EXPECT_TRUE(idx.postings(42).empty());
  EXPECT_EQ(idx.total_postings(), 0u);
}

TEST(InvertedIndex, CountsAndFinalizeIdempotent) {
  InvertedIndex idx;
  idx.Add(0, 1, 1.0);
  idx.Add(1, 2, 2.0);
  idx.Finalize();
  idx.Finalize();
  EXPECT_EQ(idx.total_postings(), 2u);
  EXPECT_EQ(idx.num_terms(), 2u);
  EXPECT_TRUE(idx.finalized());
}

TEST(InvertedIndex, ReopenIncrementalRefreezeMatchesFromScratch) {
  // Live-feed shape: freeze, reopen, feed more postings, refreeze. The
  // incremental refreeze (only dirty terms re-sorted) must be
  // indistinguishable from an index built in one shot.
  InvertedIndex incremental;
  InvertedIndex reference;
  incremental.Add(0, 1, 1.0);
  incremental.Add(0, 2, 5.0);
  incremental.Add(1, 1, 2.0);
  incremental.Finalize();

  incremental.Reopen();
  incremental.Add(0, 3, 3.0);   // dirty term: existing list
  incremental.Add(2, 9, 0.5);   // dirty term: brand new
  incremental.Finalize();

  reference.Add(0, 1, 1.0);
  reference.Add(0, 2, 5.0);
  reference.Add(1, 1, 2.0);
  reference.Add(0, 3, 3.0);
  reference.Add(2, 9, 0.5);
  reference.Finalize();

  ASSERT_EQ(incremental.num_terms(), reference.num_terms());
  EXPECT_EQ(incremental.total_postings(), reference.total_postings());
  for (TermId t = 0; t < reference.num_terms(); ++t) {
    const auto& a = incremental.postings(t);
    const auto& b = reference.postings(t);
    ASSERT_EQ(a.size(), b.size()) << "term " << t;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].doc, b[i].doc);
      EXPECT_DOUBLE_EQ(a[i].score, b[i].score);
    }
  }
  double score = 0.0;
  EXPECT_TRUE(incremental.Score(0, 3, &score));
  EXPECT_DOUBLE_EQ(score, 3.0);
}

TEST(InvertedIndex, GenerationBumpsOnEveryFreeze) {
  InvertedIndex idx;
  EXPECT_EQ(idx.generation(), 0u);
  idx.Add(0, 1, 1.0);
  idx.Finalize();
  EXPECT_EQ(idx.generation(), 1u);
  idx.Finalize();  // idempotent: no state change, no bump
  EXPECT_EQ(idx.generation(), 1u);
  idx.Reopen();
  EXPECT_EQ(idx.generation(), 1u);  // reopening alone is not a new freeze
  idx.Add(0, 2, 2.0);
  idx.Finalize();
  EXPECT_EQ(idx.generation(), 2u);
  EXPECT_EQ(idx.postings(0).size(), 2u);
}

TEST(InvertedIndex, ReopenWhileOpenIsANoOp) {
  InvertedIndex idx;
  idx.Reopen();
  idx.Add(0, 1, 1.0);
  idx.Finalize();
  EXPECT_TRUE(idx.finalized());
}

TEST(InvertedIndex, EvictBeforeDropsEvictedDocsInPlace) {
  InvertedIndex idx;
  idx.Add(0, 1, 4.0);
  idx.Add(0, 5, 2.0);
  idx.Add(0, 2, 3.0);
  idx.Add(1, 2, 1.0);   // term whose postings are wholly evicted
  idx.Add(2, 9, 0.5);   // term untouched by the eviction
  idx.Finalize();
  ASSERT_EQ(idx.generation(), 1u);

  idx.Reopen();
  idx.EvictBefore(/*min_live_doc=*/3);
  idx.Finalize();
  EXPECT_EQ(idx.generation(), 2u);  // the edit batch is one new freeze

  // Only docs >= 3 survive, still in descending-score order, and random
  // access forgot the evicted docs.
  ASSERT_EQ(idx.postings(0).size(), 1u);
  EXPECT_EQ(idx.postings(0)[0].doc, 5u);
  EXPECT_TRUE(idx.postings(1).empty());
  ASSERT_EQ(idx.postings(2).size(), 1u);
  EXPECT_EQ(idx.total_postings(), 2u);
  double score = 0.0;
  EXPECT_FALSE(idx.Score(0, 1, &score));
  EXPECT_FALSE(idx.Score(0, 2, &score));
  EXPECT_TRUE(idx.Score(0, 5, &score));
  EXPECT_DOUBLE_EQ(score, 2.0);
  EXPECT_FALSE(idx.Score(1, 2, &score));
}

TEST(InvertedIndex, ClearTermReplacesPostings) {
  InvertedIndex idx;
  idx.Add(0, 1, 1.0);
  idx.Add(0, 2, 2.0);
  idx.Add(1, 1, 9.0);
  idx.Finalize();

  // The live maintainer's per-term refresh: drop and re-derive one term.
  idx.Reopen();
  idx.ReplaceTerm(0, {});
  idx.Add(0, 3, 7.0);
  idx.Finalize();

  ASSERT_EQ(idx.postings(0).size(), 1u);
  EXPECT_EQ(idx.postings(0)[0].doc, 3u);
  EXPECT_EQ(idx.total_postings(), 2u);
  double score = 0.0;
  EXPECT_FALSE(idx.Score(0, 1, &score));  // replaced docs are gone
  EXPECT_TRUE(idx.Score(0, 3, &score));
  EXPECT_TRUE(idx.Score(1, 1, &score));   // untouched term unaffected

  // Clearing a term to empty (no re-adds) leaves a clean empty slot.
  idx.Reopen();
  idx.ReplaceTerm(1, {});
  idx.Finalize();
  EXPECT_TRUE(idx.postings(1).empty());
  EXPECT_FALSE(idx.Score(1, 1, &score));
  EXPECT_EQ(idx.total_postings(), 1u);
}

TEST(InvertedIndex, RandomizedAppendEvictInterleavingsMatchRebuild) {
  // The live-feed shape, randomized: rounds of "evict an id prefix, replace
  // a few terms' lists, append postings for fresh docs", the incremental
  // index following each round in place (Reopen → EvictBefore → ReplaceTerm
  // → Add → Finalize). After every round it must be indistinguishable from
  // an index rebuilt from scratch over the surviving postings, Score() must
  // answer exactly the live (term, doc) pairs of every doc id issued so far
  // with their posted scores, and every round must bump the generation
  // exactly once.
  constexpr size_t kTerms = 12;
  Rng rng(2024);
  InvertedIndex incremental;
  std::vector<std::vector<Posting>> live(kTerms);  // per-term surviving docs

  DocId next_doc = 0;
  DocId min_live = 0;
  for (int round = 0; round < 30; ++round) {
    incremental.Reopen();

    // Evict: advance the live floor past a random slice of current docs.
    if (round > 0 && rng.Bernoulli(0.7)) {
      min_live += static_cast<DocId>(rng.NextUint64(4));
      incremental.EvictBefore(min_live);
      for (auto& plist : live) {
        std::erase_if(plist,
                      [&](const Posting& p) { return p.doc < min_live; });
      }
    }

    // Replace: a few terms get a new list over live docs, either the same
    // docs rescored (same length, so a stale doc order would still look
    // plausible) or a random subset of the live id range.
    if (round > 0) {
      const size_t replaced = rng.NextUint64(3);
      for (size_t r = 0; r < replaced; ++r) {
        const TermId term = static_cast<TermId>(rng.NextUint64(kTerms));
        std::vector<Posting> fresh;
        if (rng.Bernoulli(0.5)) {
          for (const Posting& p : live[term]) {
            fresh.push_back(Posting{p.doc, rng.Uniform(0.1, 5.0)});
          }
        } else {
          for (DocId doc = min_live; doc < next_doc; ++doc) {
            if (rng.Bernoulli(0.3)) {
              fresh.push_back(Posting{doc, rng.Uniform(0.1, 5.0)});
            }
          }
        }
        live[term] = fresh;
        incremental.ReplaceTerm(term, std::move(fresh));
      }
    }

    // Append: a few new docs, each scoring on a few random distinct terms
    // (Add takes each (term, doc) pair at most once — colliding draws are
    // dropped).
    const size_t docs = 1 + rng.NextUint64(3);
    std::vector<TermId> doc_terms;
    for (size_t d = 0; d < docs; ++d) {
      const DocId doc = next_doc++;
      if (doc < min_live) continue;
      const size_t hits = 1 + rng.NextUint64(3);
      doc_terms.clear();
      for (size_t h = 0; h < hits; ++h) {
        const TermId term = static_cast<TermId>(rng.NextUint64(kTerms));
        if (std::find(doc_terms.begin(), doc_terms.end(), term) !=
            doc_terms.end()) {
          continue;
        }
        doc_terms.push_back(term);
        const double score = rng.Uniform(0.1, 5.0);
        incremental.Add(term, doc, score);
        live[term].push_back(Posting{doc, score});
      }
    }

    const uint64_t before = incremental.generation();
    incremental.Finalize();
    ASSERT_EQ(incremental.generation(), before + 1) << "round " << round;

    InvertedIndex rebuilt;
    for (TermId t = 0; t < kTerms; ++t) {
      for (const Posting& p : live[t]) rebuilt.Add(t, p.doc, p.score);
    }
    rebuilt.Finalize();
    ExpectIdenticalIndexes(incremental, rebuilt);

    for (TermId t = 0; t < kTerms; ++t) {
      std::vector<double> posted(next_doc, -1.0);  // -1: not live in t
      for (const Posting& p : live[t]) posted[p.doc] = p.score;
      for (DocId doc = 0; doc < next_doc; ++doc) {
        double score = -1.0;
        const bool found = incremental.Score(t, doc, &score);
        EXPECT_EQ(found, posted[doc] >= 0.0)
            << "round " << round << " term " << t << " doc " << doc;
        if (found) {
          EXPECT_EQ(score, posted[doc])
              << "round " << round << " term " << t << " doc " << doc;
        }
      }
    }
  }
}

TEST(PatternIndex, OverlapSemantics) {
  PatternIndex pidx;
  pidx.Add(7, TermPattern{{2, 5, 9}, Interval{10, 20}, 1.5});

  double score = 0.0;
  // Stream and time both inside.
  EXPECT_TRUE(pidx.MaxOverlapScore(7, 5, 15, &score));
  EXPECT_DOUBLE_EQ(score, 1.5);
  // Wrong stream.
  EXPECT_FALSE(pidx.MaxOverlapScore(7, 4, 15, &score));
  // Outside timeframe.
  EXPECT_FALSE(pidx.MaxOverlapScore(7, 5, 21, &score));
  // Unknown term.
  EXPECT_FALSE(pidx.MaxOverlapScore(8, 5, 15, &score));
}

TEST(PatternIndex, MaxScoreAcrossOverlappingPatterns) {
  PatternIndex pidx;
  pidx.Add(0, TermPattern{{1}, Interval{0, 30}, 0.5});
  pidx.Add(0, TermPattern{{1, 2}, Interval{10, 20}, 2.0});
  double score = 0.0;
  ASSERT_TRUE(pidx.MaxOverlapScore(0, 1, 15, &score));
  EXPECT_DOUBLE_EQ(score, 2.0);  // max, not sum or first
  ASSERT_TRUE(pidx.MaxOverlapScore(0, 1, 25, &score));
  EXPECT_DOUBLE_EQ(score, 0.5);  // only the broad pattern covers t=25
}

TEST(PatternIndex, AddersFromMinerOutputs) {
  PatternIndex pidx;
  CombinatorialPattern cp;
  cp.streams = {3, 1};
  cp.timeframe = {5, 8};
  cp.score = 1.0;
  pidx.AddCombinatorial(0, cp);

  SpatiotemporalWindow w;
  w.streams = {2};
  w.timeframe = {1, 2};
  w.score = 0.7;
  pidx.AddWindow(1, w);

  // Streams sorted on insertion, so binary search works.
  double score = 0.0;
  EXPECT_TRUE(pidx.MaxOverlapScore(0, 1, 6, &score));
  EXPECT_TRUE(pidx.MaxOverlapScore(0, 3, 6, &score));
  EXPECT_TRUE(pidx.MaxOverlapScore(1, 2, 1, &score));
  EXPECT_EQ(pidx.total_patterns(), 2u);
  EXPECT_EQ(pidx.num_terms_with_patterns(), 2u);
}

}  // namespace
}  // namespace stburst
