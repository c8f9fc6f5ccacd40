// Shared FeedRuntime comparisons for the test suite: the whole-runtime
// equality that the per-phase, rollback and fault-injection tests assert
// against a control runtime. One definition so a new piece of runtime state
// cannot be silently dropped from some copies of the check.

#ifndef STBURST_TESTS_RUNTIME_TEST_UTIL_H_
#define STBURST_TESTS_RUNTIME_TEST_UTIL_H_

#include <gtest/gtest.h>

#include "index_test_util.h"
#include "stburst/stream/feed_runtime.h"

namespace stburst {

inline void ExpectIdenticalCollections(const Collection& a,
                                       const Collection& b) {
  ASSERT_EQ(a.timeline_length(), b.timeline_length());
  ASSERT_EQ(a.window_start(), b.window_start());
  ASSERT_EQ(a.doc_id_base(), b.doc_id_base());
  ASSERT_EQ(a.num_documents(), b.num_documents());
  ASSERT_EQ(a.vocabulary().size(), b.vocabulary().size());
  for (size_t i = 0; i < a.documents().size(); ++i) {
    const Document& da = a.documents()[i];
    const Document& db = b.documents()[i];
    EXPECT_EQ(da.id, db.id);
    EXPECT_EQ(da.stream, db.stream);
    EXPECT_EQ(da.time, db.time);
    EXPECT_EQ(da.tokens, db.tokens);
    EXPECT_EQ(da.event_id, db.event_id);
  }
  for (StreamId s = 0; s < a.num_streams(); ++s) {
    for (Timestamp t = a.window_start(); t < a.timeline_length(); ++t) {
      EXPECT_EQ(a.DocumentsAt(s, t), b.DocumentsAt(s, t))
          << "stream " << s << " time " << t;
    }
  }
}

inline void ExpectIdenticalPostings(const FrequencyIndex& a,
                                    const FrequencyIndex& b) {
  ASSERT_EQ(a.num_terms(), b.num_terms());
  ASSERT_EQ(a.window_start(), b.window_start());
  ASSERT_EQ(a.timeline_length(), b.timeline_length());
  for (TermId t = 0; t < a.num_terms(); ++t) {
    const auto& pa = a.postings(t);
    const auto& pb = b.postings(t);
    ASSERT_EQ(pa.size(), pb.size()) << "term " << t;
    for (size_t i = 0; i < pa.size(); ++i) {
      EXPECT_EQ(pa[i].stream, pb[i].stream) << "term " << t;
      EXPECT_EQ(pa[i].time, pb[i].time) << "term " << t;
      EXPECT_EQ(pa[i].count, pb[i].count) << "term " << t;
    }
  }
}

inline void ExpectIdenticalResults(const BatchMineResult& a,
                                   const BatchMineResult& b) {
  ASSERT_EQ(a.terms.size(), b.terms.size());
  EXPECT_EQ(a.terms_mined, b.terms_mined);
  EXPECT_EQ(a.terms_skipped, b.terms_skipped);
  for (size_t t = 0; t < a.terms.size(); ++t) {
    const TermPatterns& pa = a.terms[t];
    const TermPatterns& pb = b.terms[t];
    ASSERT_EQ(pa.mined, pb.mined) << "term " << t;
    ASSERT_EQ(pa.combinatorial.size(), pb.combinatorial.size())
        << "term " << t;
    for (size_t i = 0; i < pa.combinatorial.size(); ++i) {
      EXPECT_EQ(pa.combinatorial[i].streams, pb.combinatorial[i].streams);
      EXPECT_EQ(pa.combinatorial[i].timeframe, pb.combinatorial[i].timeframe);
      EXPECT_EQ(pa.combinatorial[i].score, pb.combinatorial[i].score);
    }
    ASSERT_EQ(pa.regional.size(), pb.regional.size()) << "term " << t;
    for (size_t i = 0; i < pa.regional.size(); ++i) {
      EXPECT_EQ(pa.regional[i].streams, pb.regional[i].streams);
      EXPECT_EQ(pa.regional[i].timeframe, pb.regional[i].timeframe);
      EXPECT_EQ(pa.regional[i].score, pb.regional[i].score);
    }
  }
}

inline void ExpectIdenticalTiers(const ColdTier* a, const ColdTier* b) {
  ASSERT_EQ(a == nullptr, b == nullptr);
  if (a == nullptr) return;
  ASSERT_EQ(a->covered_start(), b->covered_start());
  ASSERT_EQ(a->folded_until(), b->folded_until());
  ASSERT_EQ(a->bucket_width(), b->bucket_width());
  ASSERT_EQ(a->term_upper_bound(), b->term_upper_bound());
  ASSERT_EQ(a->stream_upper_bound(), b->stream_upper_bound());
  for (TermId t = 0; t < a->term_upper_bound(); ++t) {
    EXPECT_EQ(a->TermRows(t), b->TermRows(t)) << "tier rows, term " << t;
  }
}

// The whole observable surface of a runtime: collection, postings, standing
// result, staleness, cold tier, and the published search snapshot with its
// generation.
inline void ExpectIdenticalRuntimes(const FeedRuntime& a,
                                    const FeedRuntime& b) {
  ExpectIdenticalCollections(a.collection(), b.collection());
  ExpectIdenticalPostings(a.index(), b.index());
  ExpectIdenticalResults(a.result(), b.result());
  for (TermId t = 0; t < a.result().terms.size(); ++t) {
    EXPECT_EQ(a.staleness(t), b.staleness(t)) << "term " << t;
  }
  ExpectIdenticalTiers(a.history(), b.history());
  ASSERT_EQ(a.search_index() == nullptr, b.search_index() == nullptr);
  if (a.search_index() == nullptr) return;
  EXPECT_EQ(a.search_index()->generation(), b.search_index()->generation());
  ExpectIdenticalIndexes(*a.search_index(), *b.search_index());
}

}  // namespace stburst

#endif  // STBURST_TESTS_RUNTIME_TEST_UTIL_H_
