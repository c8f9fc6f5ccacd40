// Unified storage of mined spatiotemporal patterns, keyed by term.
//
// Both pattern flavors (combinatorial cliques from STComb and regional
// windows from STLocal) reduce, for document scoring purposes (§5), to the
// same shape: a set of streams, a timeframe, and a score. A document
// overlaps a pattern iff its stream of origin and its timestamp are both
// included (Eq. 11's P_{t,d}).

#ifndef STBURST_INDEX_PATTERN_INDEX_H_
#define STBURST_INDEX_PATTERN_INDEX_H_

#include <algorithm>
#include <span>
#include <vector>

#include "stburst/core/interval.h"
#include "stburst/core/pattern.h"
#include "stburst/stream/types.h"

namespace stburst {

/// One pattern as seen by the search engine.
struct TermPattern {
  std::vector<StreamId> streams;  // sorted
  Interval timeframe;
  double score = 0.0;

  /// Eq. 11 overlap test: the document's origin and timestamp are both in
  /// the pattern.
  bool Overlaps(StreamId stream, Timestamp time) const {
    return timeframe.Contains(time) &&
           std::binary_search(streams.begin(), streams.end(), stream);
  }
};

/// Eq. 11 with f = max over an explicit pattern list (one term's slice of a
/// PatternIndex): the maximum score among `patterns` overlapping a document
/// from `stream` at `time`; false when none does. Every pattern's stream list
/// must be sorted (TermPattern's invariant).
bool MaxOverlapScore(std::span<const TermPattern> patterns, StreamId stream,
                     Timestamp time, double* score);

/// Per-term pattern lists. The engine is built for one pattern type at a
/// time (§5: "a separate instance is required for each type").
class PatternIndex {
 public:
  /// Appends a pattern for `term`. Stream list is sorted on insertion.
  void Add(TermId term, TermPattern pattern);

  /// Convenience adapters from the miners' native outputs.
  void AddCombinatorial(TermId term, const CombinatorialPattern& pattern);
  void AddWindow(TermId term, const SpatiotemporalWindow& window);

  /// Patterns recorded for a term (empty if none).
  const std::vector<TermPattern>& PatternsFor(TermId term) const;

  /// Eq. 11 with f = max: the maximum score among patterns of `term`
  /// overlapping a document from `stream` at `time`; returns false when no
  /// pattern overlaps (the -inf case).
  bool MaxOverlapScore(TermId term, StreamId stream, Timestamp time,
                       double* score) const;

  size_t num_terms_with_patterns() const { return non_empty_terms_; }
  size_t total_patterns() const { return total_patterns_; }

 private:
  std::vector<std::vector<TermPattern>> patterns_;  // indexed by TermId
  size_t non_empty_terms_ = 0;
  size_t total_patterns_ = 0;
  static const std::vector<TermPattern> kEmpty;
};

}  // namespace stburst

#endif  // STBURST_INDEX_PATTERN_INDEX_H_
