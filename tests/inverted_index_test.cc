// Tests for index/inverted_index and index/pattern_index.

#include "stburst/index/inverted_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "stburst/common/random.h"
#include "stburst/index/pattern_index.h"
#include "index_test_util.h"

namespace stburst {
namespace {

// Lists per term for the InvertedIndex list constructor, from (term, doc,
// score) triples in any order.
struct Triple {
  TermId term;
  DocId doc;
  double score;
};

std::vector<std::vector<Posting>> ListsOf(const std::vector<Triple>& triples) {
  std::vector<std::vector<Posting>> lists;
  for (const Triple& e : triples) {
    if (e.term >= lists.size()) lists.resize(size_t{e.term} + 1);
    lists[e.term].push_back(Posting{e.doc, e.score});
  }
  return lists;
}

TEST(InvertedIndex, PostingsSortedByScoreDescending) {
  const InvertedIndex idx(ListsOf({{0, 10, 1.0}, {0, 11, 3.0}, {0, 12, 2.0}}));
  const auto& p = idx.postings(0);
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p[0].doc, 11u);
  EXPECT_EQ(p[1].doc, 12u);
  EXPECT_EQ(p[2].doc, 10u);
}

TEST(InvertedIndex, TieBreakByDocId) {
  const InvertedIndex idx(ListsOf({{0, 9, 1.0}, {0, 3, 1.0}}));
  EXPECT_EQ(idx.postings(0)[0].doc, 3u);
}

TEST(InvertedIndex, RandomAccess) {
  const InvertedIndex idx(ListsOf({{2, 5, 1.5}}));
  double score = 0.0;
  EXPECT_TRUE(idx.Score(2, 5, &score));
  EXPECT_DOUBLE_EQ(score, 1.5);
  EXPECT_FALSE(idx.Score(2, 6, &score));
  EXPECT_FALSE(idx.Score(99, 5, &score));
}

TEST(InvertedIndex, UnknownTermEmpty) {
  const InvertedIndex idx;
  EXPECT_TRUE(idx.postings(42).empty());
  EXPECT_EQ(idx.total_postings(), 0u);
}

TEST(InvertedIndex, Counts) {
  const InvertedIndex idx(ListsOf({{0, 1, 1.0}, {1, 2, 2.0}}));
  EXPECT_EQ(idx.total_postings(), 2u);
  EXPECT_EQ(idx.num_terms(), 2u);
}

TEST(InvertedIndex, SuccessorAppendMatchesFromScratch) {
  // Live-feed shape: build, then a successor whose appended docs join the
  // lists of the terms they score on (an existing term and a brand-new
  // one). Only those terms are re-sorted; the result must be
  // indistinguishable from an index built in one shot.
  const InvertedIndex base(
      ListsOf({{0, 1, 1.0}, {0, 2, 5.0}, {1, 1, 2.0}}));
  const std::vector<TermId> terms = {0, 2};
  const InvertedIndex successor = InvertedIndex::Successor(
      base, /*min_live_doc=*/0, terms,
      {{{3, 3.0}, {1, 1.0}, {2, 5.0}}, {{9, 0.5}}});
  const InvertedIndex reference(ListsOf(
      {{0, 1, 1.0}, {0, 2, 5.0}, {1, 1, 2.0}, {0, 3, 3.0}, {2, 9, 0.5}}));

  ASSERT_EQ(successor.num_terms(), reference.num_terms());
  ExpectIdenticalIndexes(successor, reference);
  double score = 0.0;
  EXPECT_TRUE(successor.Score(0, 3, &score));
  EXPECT_DOUBLE_EQ(score, 3.0);
  // The base is untouched.
  EXPECT_EQ(base.total_postings(), 3u);
  EXPECT_FALSE(base.Score(0, 3, &score));
}

TEST(InvertedIndex, SuccessorDropsEvictedDocs) {
  const InvertedIndex base(ListsOf({{0, 1, 4.0},
                                    {0, 5, 2.0},
                                    {0, 2, 3.0},
                                    {1, 2, 1.0},     // wholly evicted
                                    {2, 9, 0.5}}));  // untouched by eviction
  const InvertedIndex idx =
      InvertedIndex::Successor(base, /*min_live_doc=*/3, {}, {});

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
  const InvertedIndex base(ListsOf({{0, 1, 1.0}, {0, 2, 2.0}, {1, 1, 9.0}}));

  // The live maintainer's per-term refresh: drop and re-derive one term.
  const std::vector<TermId> zero = {0};
  const InvertedIndex idx =
      InvertedIndex::Successor(base, 0, zero, {{{3, 7.0}}});
  ASSERT_EQ(idx.postings(0).size(), 1u);
  EXPECT_EQ(idx.postings(0)[0].doc, 3u);
  EXPECT_EQ(idx.total_postings(), 2u);
  double score = 0.0;
  EXPECT_FALSE(idx.Score(0, 1, &score));  // replaced docs are gone
  EXPECT_TRUE(idx.Score(0, 3, &score));
  EXPECT_TRUE(idx.Score(1, 1, &score));   // untouched term unaffected

  // Clearing a term to an empty list leaves a clean empty slot.
  const std::vector<TermId> one = {1};
  const InvertedIndex cleared = InvertedIndex::Successor(idx, 0, one, {{}});
  EXPECT_TRUE(cleared.postings(1).empty());
  EXPECT_FALSE(cleared.Score(1, 1, &score));
  EXPECT_EQ(cleared.total_postings(), 1u);
}

TEST(InvertedIndex, SuccessorEdgeCases) {
  const InvertedIndex base(ListsOf(
      {{0, 1, 1.0}, {0, 4, 2.0}, {1, 2, 3.0}, {1, 5, 0.5}, {2, 3, 1.5}}));
  double score = 0.0;

  // Evict everything: every term keeps its slot, none keeps a posting.
  const InvertedIndex empty = InvertedIndex::Successor(base, 100, {}, {});
  EXPECT_EQ(empty.num_terms(), base.num_terms());
  EXPECT_EQ(empty.total_postings(), 0u);
  for (TermId t = 0; t < base.num_terms(); ++t) {
    EXPECT_TRUE(empty.postings(t).empty()) << "term " << t;
  }
  EXPECT_FALSE(empty.Score(0, 4, &score));

  // In one successor: evict docs below 4; term 1, which loses doc 2, is not
  // replaced; term 2 is replaced with an empty list; term 5, past
  // base.num_terms(), grows the vocabulary (terms 3 and 4 come out empty).
  const std::vector<TermId> terms = {5, 2};
  const InvertedIndex next = InvertedIndex::Successor(
      base, 4, terms, {{{7, 0.25}, {6, 4.0}}, {}});
  EXPECT_EQ(next.num_terms(), 6u);
  ExpectIdenticalIndexes(
      next, InvertedIndex(ListsOf({{0, 4, 2.0}, {1, 5, 0.5},
                                   {5, 6, 4.0}, {5, 7, 0.25}})));
  EXPECT_TRUE(next.postings(3).empty());
  EXPECT_TRUE(next.postings(4).empty());
  EXPECT_FALSE(next.Score(1, 2, &score));
  EXPECT_FALSE(next.Score(2, 3, &score));
  ASSERT_TRUE(next.Score(5, 7, &score));
  EXPECT_EQ(score, 0.25);
}

TEST(InvertedIndex, RandomizedAppendEvictInterleavingsMatchRebuild) {
  // The live-feed shape, randomized: a chain of Successor calls, each
  // evicting an id prefix and replacing a few terms' lists. Each round's
  // appended docs join the replaced lists of the terms they score on, which
  // is how the runtime feeds new docs. After every round the successor must
  // be indistinguishable from the list constructor over the surviving
  // postings, and Score() must answer exactly the live (term, doc) pairs of
  // every doc id issued so far with their posted scores.
  constexpr size_t kTerms = 12;
  Rng rng(2024);
  InvertedIndex index;
  std::vector<std::vector<Posting>> live(kTerms);  // per-term surviving docs

  DocId next_doc = 0;
  DocId min_live = 0;
  for (int round = 0; round < 30; ++round) {
    std::vector<bool> replaced(kTerms, false);

    // Evict: advance the live floor past a random slice of current docs.
    if (round > 0 && rng.Bernoulli(0.7)) {
      min_live += static_cast<DocId>(rng.NextUint64(4));
      for (auto& plist : live) {
        std::erase_if(plist,
                      [&](const Posting& p) { return p.doc < min_live; });
      }
    }

    // Replace: a few terms get a new list over live docs, either the same
    // docs rescored (same length, so a stale doc order would still look
    // plausible) or a random subset of the live id range.
    if (round > 0) {
      const size_t count = rng.NextUint64(3);
      for (size_t r = 0; r < count; ++r) {
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
        live[term] = std::move(fresh);
        replaced[term] = true;
      }
    }

    // Append: a few new docs, each scoring on a few random distinct terms
    // (each (term, doc) pair at most once — colliding draws are dropped).
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
        live[term].push_back(Posting{doc, rng.Uniform(0.1, 5.0)});
        replaced[term] = true;
      }
    }

    // The successor: replaced lists handed over shuffled (any order goes).
    std::vector<TermId> terms;
    std::vector<std::vector<Posting>> lists;
    for (TermId t = 0; t < kTerms; ++t) {
      if (!replaced[t]) continue;
      terms.push_back(t);
      lists.push_back(live[t]);
      rng.Shuffle(&lists.back());
    }
    index = InvertedIndex::Successor(index, min_live, terms, std::move(lists));

    ExpectIdenticalIndexes(index, InvertedIndex(live));

    for (TermId t = 0; t < kTerms; ++t) {
      std::vector<double> posted(next_doc, -1.0);  // -1: not live in t
      for (const Posting& p : live[t]) posted[p.doc] = p.score;
      for (DocId doc = 0; doc < next_doc; ++doc) {
        double score = -1.0;
        const bool found = index.Score(t, doc, &score);
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
