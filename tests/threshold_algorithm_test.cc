// Tests for the Threshold Algorithm (index/threshold_algorithm).

#include "stburst/index/threshold_algorithm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <utility>
#include <vector>

#include "stburst/common/random.h"

namespace stburst {

// gtest prints mismatched answers with this rather than as raw bytes.
void PrintTo(const ScoredDoc& d, std::ostream* os) {
  *os << "{doc " << d.doc << ", " << d.score << "}";
}

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
    // Both add a doc's scores in the same term order: exact equality.
    EXPECT_EQ(ta.docs, ex.docs) << "trial " << trial;
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

// `terms` lists of `docs` docs each, every doc present with probability
// `density` and scored on the exactly representable 0.25 grid {0.25 .. 1.0}.
InvertedIndex GridIndex(Rng& rng, size_t terms, DocId docs, double density) {
  std::vector<std::vector<Posting>> lists(terms);
  for (TermId t = 0; t < terms; ++t) {
    for (DocId d = 0; d < docs; ++d) {
      if (rng.Bernoulli(density)) {
        lists[t].push_back(
            Posting{d, 0.25 * static_cast<double>(1 + rng.NextUint64(4))});
      }
    }
  }
  return InvertedIndex(std::move(lists));
}

TEST(ThresholdTopK, MatchesExhaustiveOnDeepScans) {
  // ~20k-doc lists on a 4-value grid tie thousands of docs at every score,
  // so TA scores thousands of candidates before it can stop and its seen
  // set must grow, more than once. Big and small queries alternate on one
  // thread, so bookkeeping left over from one query would show in the next.
  Rng rng(2024);
  const InvertedIndex big = GridIndex(rng, 4, 20000, 0.8);
  const InvertedIndex small = GridIndex(rng, 4, 40, 0.5);
  size_t max_sorted = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const bool deep = trial % 2 == 0;
    const InvertedIndex& idx = deep ? big : small;
    const size_t terms = 1 + rng.NextUint64(4);
    std::vector<TermId> query;
    for (TermId t = 0; t < terms; ++t) query.push_back(t);
    const size_t k = 1 + rng.NextUint64(50);
    auto ta = ThresholdTopK(idx, query, k);
    auto ex = ExhaustiveTopK(idx, query, k);
    EXPECT_EQ(ta.docs, ex.docs) << "trial " << trial << " k " << k;
    if (deep) max_sorted = std::max(max_sorted, ta.sorted_accesses);
  }
  // Over 4096 sorted accesses on at most 4 lists score over 1024 docs.
  EXPECT_GT(max_sorted, 4096u);
}

TEST(ThresholdTopK, ReturnsOnlyPositiveAggregatesAmongNonPositiveScores) {
  // Postings of -1, -0.5, 0 and 0.5, 1: many docs aggregate to 0 or less,
  // and k exceeds the positive aggregates, so the top-k holds non-positive
  // docs that the answer must leave out. A doc absent from a list scores 0
  // there, above that list's negative frontier.
  Rng rng(77);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t terms = 1 + rng.NextUint64(4);
    const size_t docs = 5 + rng.NextUint64(60);
    std::vector<std::vector<Posting>> lists(terms);
    for (TermId t = 0; t < terms; ++t) {
      for (DocId d = 0; d < docs; ++d) {
        if (rng.Bernoulli(0.6)) {
          const double steps = static_cast<double>(rng.NextUint64(5)) - 2.0;
          lists[t].push_back(Posting{d, 0.5 * steps});
        }
      }
    }
    const InvertedIndex idx(std::move(lists));
    std::vector<TermId> query;
    for (TermId t = 0; t < terms; ++t) query.push_back(t);
    const size_t positive = ExhaustiveTopK(idx, query, docs).docs.size();
    const size_t k = positive + 1 + rng.NextUint64(8);
    auto ta = ThresholdTopK(idx, query, k);
    auto ex = ExhaustiveTopK(idx, query, k);
    ASSERT_EQ(ex.docs.size(), positive) << "trial " << trial;
    EXPECT_EQ(ta.docs, ex.docs) << "trial " << trial;
  }
}

TEST(ThresholdTopK, AccessCountsArePinned) {
  // The scan order, random accesses and stopping rule, observed through
  // the counters on fixed queries over a seeded index.
  Rng rng(31);
  std::vector<std::vector<Posting>> lists(6);
  for (TermId t = 0; t < 6; ++t) {
    for (DocId d = 0; d < 3000; ++d) {
      if (rng.Bernoulli(0.3)) {
        lists[t].push_back(Posting{d, rng.Uniform(0.01, 5.0)});
      }
    }
  }
  const InvertedIndex continuous(std::move(lists));
  Rng grid_rng(32);
  const InvertedIndex grid = GridIndex(grid_rng, 6, 3000, 0.3);
  // The counts were recorded from the unordered_map implementation that
  // the seen-doc set replaced.
  auto expect = [](int line, const InvertedIndex& idx,
                   const std::vector<TermId>& query, size_t k, size_t sorted,
                   size_t random, bool early) {
    testing::ScopedTrace trace(__FILE__, line, "pinned query");
    const TopKResult r = ThresholdTopK(idx, query, k);
    EXPECT_EQ(r.sorted_accesses, sorted);
    EXPECT_EQ(r.random_accesses, random);
    EXPECT_EQ(r.early_terminated, early);
    EXPECT_EQ(r.docs, ExhaustiveTopK(idx, query, k).docs);
  };
  expect(__LINE__, continuous, {0}, 10, 10, 0, true);
  expect(__LINE__, continuous, {0, 1}, 10, 242, 239, true);
  expect(__LINE__, continuous, {2, 3, 4}, 10, 780, 1438, true);
  expect(__LINE__, continuous, {0, 1, 2, 5}, 50, 1668, 3993, true);
  expect(__LINE__, continuous, {1, 4}, 1000, 1438, 1269, true);
  expect(__LINE__, grid, {0}, 10, 10, 0, true);
  expect(__LINE__, grid, {0, 1}, 10, 138, 130, true);
  expect(__LINE__, grid, {2, 3, 4}, 25, 1233, 2148, true);
  expect(__LINE__, grid, {0, 1, 2, 5}, 5, 984, 2589, true);
  expect(__LINE__, grid, {3, 5}, 2000, 1779, 1511, false);
}

TEST(ThresholdTopK, ScoresTheLargestDocIdOnce) {
  // kInvalidDoc is a legal posting id: it must be scored once, not once per
  // list that holds it.
  const InvertedIndex idx(
      {{{kInvalidDoc, 2.0}, {3, 1.0}}, {{kInvalidDoc, 1.0}, {3, 0.5}}});
  const auto ta = ThresholdTopK(idx, {0, 1}, 5);
  ASSERT_EQ(ta.docs, (std::vector<ScoredDoc>{{kInvalidDoc, 3.0}, {3, 1.5}}));
  EXPECT_EQ(ta.random_accesses, 2u);
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
