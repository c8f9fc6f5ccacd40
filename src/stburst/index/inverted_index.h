// Score-sorted inverted index (paper §5): term -> documents ranked by their
// per-term score, supporting both the sorted access the Threshold Algorithm
// scans and the random access it probes. Each term holds one posting array
// in two orders: by descending score for sorted access, by ascending doc for
// random access (a binary search).

#ifndef STBURST_INDEX_INVERTED_INDEX_H_
#define STBURST_INDEX_INVERTED_INDEX_H_

#include <cstddef>
#include <vector>

#include "stburst/stream/types.h"

namespace stburst {

/// One entry of a term's posting list.
struct Posting {
  DocId doc = kInvalidDoc;
  double score = 0.0;
};

/// Append-then-freeze inverted index with incremental re-freeze. Add() all
/// postings, Finalize() once, then query; per-term posting lists are sorted
/// by descending score, and a doc-sorted copy of each answers Score(). On a
/// live feed, Reopen() lets new postings in after a freeze: the next
/// Finalize() re-sorts only the terms touched since the last one, and
/// generation() tells consumers holding cached query results (e.g.
/// Threshold-Algorithm top-k lists) that they are stale.
///
/// Thread-safety: queries on a finalized index are const and safe from any
/// number of threads; Add/Reopen/Finalize are writers and must be
/// externally serialized against them.
class InvertedIndex {
 public:
  /// Records that `doc` scores `score` for `term`. Must precede Finalize()
  /// (or follow a Reopen()). Each (term, doc) pair must be added at most
  /// once per lifetime of the term's postings — to change a frozen term's
  /// scores, ReplaceTerm() its list. Amortized O(1).
  void Add(TermId term, DocId doc, double score);

  /// Sorts each posting list by score and copies it into doc order.
  /// Idempotent. The first call sorts everything; after a Reopen() only
  /// terms with new or replaced postings are re-sorted (O(p log p) per such
  /// term of p postings). Each state-changing call bumps generation().
  void Finalize();

  /// Re-opens a finalized index so Add() is legal again. Queries are
  /// rejected until the next Finalize(). No-op when already open.
  void Reopen();

  /// Eviction-aware edit: removes every posting whose doc precedes
  /// `min_live_doc` — the in-place follow-up to Collection::EvictBefore,
  /// whose prefix erase keeps every surviving document's id (pass the
  /// collection's new doc_id_base()). The evicted docs are a prefix of each
  /// term's doc order: a term whose first doc is live is skipped, the others
  /// drop that prefix and compact their score order in place, so nothing is
  /// re-sorted. Requires a finalized-then-reopened index with no Add() or
  /// ReplaceTerm() yet since the Reopen(), as it reads the last Finalize()'s
  /// doc order. The next Finalize() bumps generation() for the whole edit
  /// batch, exactly as an append-only refreeze would, so cached query
  /// results are invalidated the same way. O(terms + postings of the terms
  /// that lose one) — no collection re-scan, no re-scoring (bench:
  /// inverted_reopen_evict).
  void EvictBefore(DocId min_live_doc);

  /// Replaces `term`'s postings with `postings` (scores need not be sorted
  /// — the next Finalize() sorts) and marks the term dirty; an empty list
  /// clears the term. The move-in makes this the no-allocation commit step
  /// for staged per-term updates (FeedRuntime stages scored postings off
  /// to the side, then commits each re-mined term with one ReplaceTerm).
  /// Requires the index to be open. O(postings of the term).
  void ReplaceTerm(TermId term, std::vector<Posting> postings);

  /// Monotone freeze counter, bumped by every completing Finalize().
  /// Consumers cache it alongside derived results (top-k lists, pattern
  /// joins) and recompute when it moved.
  uint64_t generation() const { return generation_; }

  /// Sorted postings of a term (empty if none). Requires Finalize().
  const std::vector<Posting>& postings(TermId term) const;

  /// Random access: the score of `doc` for `term`; false if absent. A
  /// binary search of the term's doc order. Requires Finalize().
  bool Score(TermId term, DocId doc, double* score) const;

  size_t num_terms() const { return postings_.size(); }
  size_t total_postings() const { return total_postings_; }
  bool finalized() const { return finalized_; }

 private:
  bool finalized_ = false;
  bool ever_finalized_ = false;
  uint64_t generation_ = 0;
  size_t total_postings_ = 0;
  std::vector<std::vector<Posting>> postings_;  // indexed by TermId
  std::vector<std::vector<Posting>> by_doc_;    // postings_ by ascending doc
  std::vector<TermId> dirty_;  // terms edited since the last Finalize()
  static const std::vector<Posting> kEmpty;
};

}  // namespace stburst

#endif  // STBURST_INDEX_INVERTED_INDEX_H_
