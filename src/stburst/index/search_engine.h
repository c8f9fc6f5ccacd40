// The bursty-document search engine (paper §5).
//
// score(q, d) = sum over query terms t of relevance(d,t) * burstiness(d,t),
// with relevance(d,t) = log(freq(t,d) + 1) (the paper's best-performing
// choice) and burstiness(d,t) = the maximum score among the term's mined
// patterns that the document overlaps (ditto). Documents overlapping no
// pattern for a term contribute nothing for that term (the paper's -inf
// convention, applied per term so multi-term queries degrade gracefully).
//
// The engine is pattern-type agnostic: build it with STComb patterns for a
// combinatorial instance, STLocal windows for a regional instance, or
// temporal-only intervals for the TB baseline (tb_engine.h).
//
// Two derivations produce the same postings: BurstySearchEngine::Build reads
// every document once (doc-major; the batch path and the tests' oracle), and
// ScoreTermsByCell re-derives a subset of terms, reading only the documents
// of the (stream, time) cells their patterns overlap (the live runtime's
// per-tick path).

#ifndef STBURST_INDEX_SEARCH_ENGINE_H_
#define STBURST_INDEX_SEARCH_ENGINE_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "stburst/common/parallel.h"
#include "stburst/index/inverted_index.h"
#include "stburst/index/pattern_index.h"
#include "stburst/index/threshold_algorithm.h"
#include "stburst/stream/collection.h"
#include "stburst/stream/frequency.h"
#include "stburst/stream/tokenizer.h"

namespace stburst {

/// Immutable once built. Holds a score-sorted inverted index whose per-term
/// entries are relevance * burstiness products, gathered doc-major into
/// per-term lists and handed to the InvertedIndex list constructor;
/// Search() is one Threshold Algorithm run over it, so its results carry
/// generation 0.
class BurstySearchEngine {
 public:
  /// Indexes every document of `collection` against `patterns`. Documents
  /// that overlap no pattern for a term get no posting for that term.
  static BurstySearchEngine Build(const Collection& collection,
                                  const PatternIndex& patterns);

  /// Top-k for a raw query string (tokenized against the collection's
  /// frozen vocabulary; unknown words are dropped).
  TopKResult Search(const std::string& query, size_t k) const;

  /// Top-k for pre-resolved term ids.
  TopKResult Search(const std::vector<TermId>& query, size_t k) const;

  const InvertedIndex& index() const { return index_; }

 private:
  explicit BurstySearchEngine(const Collection* collection);

  const Collection* collection_;  // not owned; must outlive the engine
  Tokenizer tokenizer_;
  InvertedIndex index_;
};

/// relevance(d, t) of Eq. 10 for a raw term frequency.
double Relevance(double term_frequency);

/// Fills `*out` (handed over empty) with the patterns of the i-th score
/// term; stream lists may come unsorted. ScoreTermsByCell calls it once per
/// term, concurrently from pool workers, each call with its worker's own
/// `out`.
using SearchPatternSource =
    std::function<void(size_t i, std::vector<TermPattern>* out)>;

/// Re-derives the search postings of `terms` (distinct) from the retained
/// documents: for each term, every document holding it at a (stream, time)
/// cell its patterns overlap gets relevance × max pattern overlap, and
/// positive entries are kept. This is the incremental path a live
/// maintainer (FeedRuntime's search serving) takes when terms' patterns
/// change. Returns one posting list per term, index-addressed (list i is
/// terms[i]'s), in unspecified order; handed to InvertedIndex::Successor,
/// they equal the postings BurstySearchEngine::Build derives doc-major from
/// the same patterns (tested). `freq` must be in sync with `collection` (same windowed feed).
///
/// Two phases, transposed so no document is read twice:
///  1. per term, across `pool`: the term's frequency postings name the
///     cells holding it; each cell its patterns overlap becomes a
///     (cell, term, burstiness) hit. No document is touched.
///  2. serially, per touched cell: the cell's score terms are stamped into
///     a TermId-indexed table, then each document of the cell is read once,
///     counting only stamped tokens.
/// O(Σ postings of `terms` × patterns per term + window cells + tokens of
/// the touched cells' documents). `*tokens_scanned`, when non-null,
/// receives that last term exactly: the document tokens phase 2 read.
std::vector<std::vector<Posting>> ScoreTermsByCell(
    const Collection& collection, const FrequencyIndex& freq,
    std::span<const TermId> terms, const SearchPatternSource& patterns_for,
    ThreadPool* pool, size_t* tokens_scanned);

}  // namespace stburst

#endif  // STBURST_INDEX_SEARCH_ENGINE_H_
