// Fagin's Threshold Algorithm (TA) for top-k aggregation over score-sorted
// posting lists (paper §5, reference [6]).
//
// The aggregate is the sum of per-term scores; documents missing from a
// term's list contribute 0 for that term. TA scans the query terms' lists
// in parallel depth order, random-accesses each newly seen document's
// remaining scores, and stops as soon as the k-th best complete score is at
// least the threshold (the sum of the scores at the current scan depths).

#ifndef STBURST_INDEX_THRESHOLD_ALGORITHM_H_
#define STBURST_INDEX_THRESHOLD_ALGORITHM_H_

#include <vector>

#include "stburst/index/inverted_index.h"
#include "stburst/stream/types.h"

namespace stburst {

/// A retrieved document with its aggregate score.
struct ScoredDoc {
  DocId doc = kInvalidDoc;
  double score = 0.0;

  friend bool operator==(const ScoredDoc& a, const ScoredDoc& b) {
    return a.doc == b.doc && a.score == b.score;
  }
};

/// Top-k retrieval outcome plus the access counts that make TA's early
/// termination observable in tests and benchmarks.
struct TopKResult {
  std::vector<ScoredDoc> docs;  // descending score, ties by ascending id
  size_t sorted_accesses = 0;
  size_t random_accesses = 0;
  bool early_terminated = false;  // stopped before exhausting the lists
  /// InvertedIndex::generation() at computation time. A cached result is
  /// stale — and must be recomputed — once it differs from the index's
  /// current generation (the index was reopened, fed, and re-finalized).
  uint64_t generation = 0;
};

/// Runs TA for `query` (a set of term ids; duplicates are ignored) over a
/// finalized index. Returns at most k documents with strictly positive
/// aggregate score.
TopKResult ThresholdTopK(const InvertedIndex& index,
                         const std::vector<TermId>& query, size_t k);

/// Reference implementation that exhaustively merges the full posting lists.
/// Identical output to ThresholdTopK; used for differential testing.
TopKResult ExhaustiveTopK(const InvertedIndex& index,
                          const std::vector<TermId>& query, size_t k);

}  // namespace stburst

#endif  // STBURST_INDEX_THRESHOLD_ALGORITHM_H_
