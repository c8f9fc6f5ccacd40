// Tests for the Threshold Algorithm (index/threshold_algorithm).

#include "stburst/index/threshold_algorithm.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "stburst/common/random.h"

namespace stburst {
namespace {

InvertedIndex SmallIndex() {
  // term 0: d1=5, d2=3, d3=1 ; term 1: d2=4, d4=2
  return InvertedIndex({{{1, 5.0}, {2, 3.0}, {3, 1.0}}, {{2, 4.0}, {4, 2.0}}});
}

TEST(ThresholdTopK, SingleTermTopK) {
  InvertedIndex idx = SmallIndex();
  auto result = ThresholdTopK(idx, {0}, 2);
  ASSERT_EQ(result.docs.size(), 2u);
  EXPECT_EQ(result.docs[0].doc, 1u);
  EXPECT_DOUBLE_EQ(result.docs[0].score, 5.0);
  EXPECT_EQ(result.docs[1].doc, 2u);
}

TEST(ThresholdTopK, MultiTermAggregation) {
  InvertedIndex idx = SmallIndex();
  auto result = ThresholdTopK(idx, {0, 1}, 3);
  ASSERT_EQ(result.docs.size(), 3u);
  // d2 = 3 + 4 = 7 beats d1 = 5.
  EXPECT_EQ(result.docs[0].doc, 2u);
  EXPECT_DOUBLE_EQ(result.docs[0].score, 7.0);
  EXPECT_EQ(result.docs[1].doc, 1u);
  EXPECT_EQ(result.docs[2].doc, 4u);
}

TEST(ThresholdTopK, DuplicateQueryTermsCollapse) {
  InvertedIndex idx = SmallIndex();
  auto dup = ThresholdTopK(idx, {0, 0, 0}, 2);
  auto single = ThresholdTopK(idx, {0}, 2);
  ASSERT_EQ(dup.docs.size(), single.docs.size());
  for (size_t i = 0; i < dup.docs.size(); ++i) {
    EXPECT_EQ(dup.docs[i], single.docs[i]);
  }
}

TEST(ThresholdTopK, EmptyQueryAndZeroK) {
  InvertedIndex idx = SmallIndex();
  EXPECT_TRUE(ThresholdTopK(idx, {}, 5).docs.empty());
  EXPECT_TRUE(ThresholdTopK(idx, {0}, 0).docs.empty());
  EXPECT_TRUE(ThresholdTopK(idx, {99}, 5).docs.empty());
}

TEST(ThresholdTopK, KLargerThanCorpus) {
  InvertedIndex idx = SmallIndex();
  auto result = ThresholdTopK(idx, {0, 1}, 100);
  EXPECT_EQ(result.docs.size(), 4u);  // only 4 docs have positive scores
}

TEST(ThresholdTopK, EarlyTerminationOnLongLists) {
  // 1000 docs in each of two lists; top doc dominates, so TA must stop well
  // before exhausting the lists.
  std::vector<std::vector<Posting>> lists(2);
  for (DocId d = 0; d < 1000; ++d) {
    lists[0].push_back(Posting{d, d == 0 ? 1000.0 : 1.0 / (1.0 + d)});
    lists[1].push_back(Posting{d, d == 0 ? 1000.0 : 1.0 / (1.0 + d)});
  }
  const InvertedIndex idx(std::move(lists));
  auto result = ThresholdTopK(idx, {0, 1}, 1);
  ASSERT_EQ(result.docs.size(), 1u);
  EXPECT_EQ(result.docs[0].doc, 0u);
  EXPECT_TRUE(result.early_terminated);
  EXPECT_LT(result.sorted_accesses, 100u);
}

TEST(ThresholdTopK, MatchesExhaustiveOnRandomIndexes) {
  Rng rng(99);
  for (int trial = 0; trial < 40; ++trial) {
    size_t terms = 1 + rng.NextUint64(4);
    std::vector<std::vector<Posting>> lists(terms);
    for (TermId t = 0; t < terms; ++t) {
      // Each (term, doc) pair appears at most once, like the real engine.
      for (DocId d = 0; d < 100; ++d) {
        if (rng.Bernoulli(0.4)) {
          lists[t].push_back(Posting{d, rng.Uniform(0.01, 5.0)});
        }
      }
    }
    const InvertedIndex idx(std::move(lists));
    std::vector<TermId> query;
    for (TermId t = 0; t < terms; ++t) query.push_back(t);
    size_t k = 1 + rng.NextUint64(15);

    auto ta = ThresholdTopK(idx, query, k);
    auto ex = ExhaustiveTopK(idx, query, k);
    ASSERT_EQ(ta.docs.size(), ex.docs.size()) << "trial " << trial;
    for (size_t i = 0; i < ta.docs.size(); ++i) {
      EXPECT_EQ(ta.docs[i].doc, ex.docs[i].doc) << "trial " << trial;
      EXPECT_NEAR(ta.docs[i].score, ex.docs[i].score, 1e-9);
    }
  }
}

TEST(ThresholdTopK, TieAtTheThresholdGoesToTheSmallerId) {
  // After one round d9 scores 2.0 and the threshold is 1.0 + 1.0 = 2.0, but
  // the unseen d1 also scores 2.0 and outranks d9 on id.
  const InvertedIndex idx({{{9, 2.0}, {1, 1.0}}, {{2, 1.5}, {1, 1.0}}});
  auto ta = ThresholdTopK(idx, {0, 1}, 1);
  auto ex = ExhaustiveTopK(idx, {0, 1}, 1);
  ASSERT_EQ(ex.docs, (std::vector<ScoredDoc>{{1, 2.0}}));
  EXPECT_EQ(ta.docs, ex.docs);

  // k=2 after one round: d5 2.0, d7 1.0, threshold 1.0 + 0.0. The unseen
  // d1 ties d7 without appearing in term 1, whose 0-score frontier d9
  // therefore bounds nothing.
  const InvertedIndex zero_frontier(
      {{{5, 2.0}, {1, 1.0}}, {{7, 1.0}, {9, 0.0}}});
  ta = ThresholdTopK(zero_frontier, {0, 1}, 2);
  ex = ExhaustiveTopK(zero_frontier, {0, 1}, 2);
  ASSERT_EQ(ex.docs, (std::vector<ScoredDoc>{{5, 2.0}, {1, 1.0}}));
  EXPECT_EQ(ta.docs, ex.docs);
}

TEST(ThresholdTopK, MatchesExhaustiveUnderHeavyTies) {
  // Scores on a coarse grid of exactly representable values, so sums are
  // exact and equal aggregates are common: ties at the k-th place and at the
  // threshold must resolve by ascending id, exactly like the exhaustive merge.
  Rng rng(123);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t terms = 1 + rng.NextUint64(4);
    const size_t docs = 5 + rng.NextUint64(60);
    std::vector<std::vector<Posting>> lists(terms);
    for (TermId t = 0; t < terms; ++t) {
      for (DocId d = 0; d < docs; ++d) {
        if (rng.Bernoulli(0.5)) {
          lists[t].push_back(
              Posting{d, 0.25 * static_cast<double>(1 + rng.NextUint64(4))});
        }
      }
    }
    const InvertedIndex idx(std::move(lists));
    std::vector<TermId> query;
    for (TermId t = 0; t < terms; ++t) query.push_back(t);
    const size_t k = 1 + rng.NextUint64(8);
    auto ta = ThresholdTopK(idx, query, k);
    auto ex = ExhaustiveTopK(idx, query, k);
    EXPECT_EQ(ta.docs, ex.docs) << "trial " << trial;
  }
}

TEST(ThresholdTopK, NeverMoreSortedAccessesThanExhaustive) {
  Rng rng(7);
  std::vector<std::vector<Posting>> lists(3);
  for (TermId t = 0; t < 3; ++t) {
    for (DocId d = 0; d < 400; ++d) {
      if (rng.Bernoulli(0.5)) {
        lists[t].push_back(Posting{d, rng.Uniform(0.1, 2.0)});
      }
    }
  }
  const InvertedIndex idx(std::move(lists));
  auto ta = ThresholdTopK(idx, {0, 1, 2}, 5);
  auto ex = ExhaustiveTopK(idx, {0, 1, 2}, 5);
  EXPECT_LE(ta.sorted_accesses, ex.sorted_accesses);
}

}  // namespace
}  // namespace stburst
