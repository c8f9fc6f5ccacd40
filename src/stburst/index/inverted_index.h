// Score-sorted inverted index (paper §5): term -> documents ranked by their
// per-term score, supporting both the sorted access the Threshold Algorithm
// scans and the random access it probes. Each term holds one posting array
// in two orders: by descending score for sorted access, by ascending doc for
// random access (a binary search).

#ifndef STBURST_INDEX_INVERTED_INDEX_H_
#define STBURST_INDEX_INVERTED_INDEX_H_

#include <cstddef>
#include <span>
#include <vector>

#include "stburst/stream/types.h"

namespace stburst {

/// One entry of a term's posting list.
struct Posting {
  DocId doc = kInvalidDoc;
  double score = 0.0;
};

/// Immutable once constructed. Built from per-term posting lists, or as the
/// Successor of an existing index; a live feed publishes each successor as
/// a new IndexSnapshot instead of editing the one readers hold.
///
/// Thread-safety: every member is const, so any number of threads may query
/// one index concurrently.
class InvertedIndex {
 public:
  /// The empty index: no terms, no postings.
  InvertedIndex() = default;

  /// List t holds term t's postings in any order; each doc appears at most
  /// once per list. Equal to Successor(InvertedIndex(), 0, {0, 1, …},
  /// lists), which is how it is built.
  explicit InvertedIndex(std::vector<std::vector<Posting>> lists);

  /// `base` with every posting whose doc precedes `min_live_doc` dropped
  /// and term terms[i]'s postings replaced by lists[i] (any order, and not
  /// filtered by `min_live_doc`; empty clears the term, an id past
  /// base.num_terms() grows the vocabulary). `terms` must be distinct and
  /// parallel to `lists`.
  ///
  /// One pass over the terms. An untouched term copies its two orders from
  /// `base` minus the evicted doc prefix, re-sorting nothing; a replaced
  /// term sorts its new list both ways and never copies the old one.
  /// O(postings kept from `base` + Σ p log p over the p postings of each
  /// replaced list).
  static InvertedIndex Successor(const InvertedIndex& base,
                                 DocId min_live_doc,
                                 std::span<const TermId> terms,
                                 std::vector<std::vector<Posting>> lists);

  /// Postings of a term by descending score, ties by ascending doc (empty
  /// if none).
  const std::vector<Posting>& postings(TermId term) const;

  /// Random access: the score of `doc` for `term`; false if absent. A
  /// binary search of the term's doc order.
  bool Score(TermId term, DocId doc, double* score) const;

  size_t num_terms() const { return by_score_.size(); }
  size_t total_postings() const { return total_postings_; }

 private:
  size_t total_postings_ = 0;
  std::vector<std::vector<Posting>> by_score_;  // indexed by TermId
  std::vector<std::vector<Posting>> by_doc_;    // by_score_ by ascending doc
  static const std::vector<Posting> kEmpty;
};

}  // namespace stburst

#endif  // STBURST_INDEX_INVERTED_INDEX_H_
