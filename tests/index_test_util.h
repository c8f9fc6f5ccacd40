// Shared InvertedIndex comparison for the test suite: the posting-for-
// posting equality that the eviction, refreeze, and search-serving parity
// tests all assert. One definition so a future Posting field cannot be
// silently dropped from some copies of the check.

#ifndef STBURST_TESTS_INDEX_TEST_UTIL_H_
#define STBURST_TESTS_INDEX_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>

#include "stburst/index/inverted_index.h"

namespace stburst {

// Posting-for-posting equality (docs, scores, order, totals), and each
// index's random access (Score) answering every posted doc with its
// posting's score; terms past either index's id space compare as empty (a
// term whose postings were wholly evicted keeps its empty slot in an
// incrementally maintained index but never appears in a rebuilt one).
inline void ExpectIdenticalIndexes(const InvertedIndex& a,
                                   const InvertedIndex& b) {
  EXPECT_EQ(a.total_postings(), b.total_postings());
  const size_t terms = std::max(a.num_terms(), b.num_terms());
  for (TermId t = 0; t < terms; ++t) {
    const auto& pa = a.postings(t);
    const auto& pb = b.postings(t);
    ASSERT_EQ(pa.size(), pb.size()) << "term " << t;
    for (size_t i = 0; i < pa.size(); ++i) {
      EXPECT_EQ(pa[i].doc, pb[i].doc) << "term " << t << " rank " << i;
      EXPECT_EQ(pa[i].score, pb[i].score) << "term " << t << " rank " << i;
      double sa = 0.0, sb = 0.0;
      EXPECT_TRUE(a.Score(t, pa[i].doc, &sa) && sa == pa[i].score)
          << "term " << t << " rank " << i;
      EXPECT_TRUE(b.Score(t, pb[i].doc, &sb) && sb == pb[i].score)
          << "term " << t << " rank " << i;
    }
  }
}

}  // namespace stburst

#endif  // STBURST_TESTS_INDEX_TEST_UTIL_H_
