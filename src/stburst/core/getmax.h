// GetMax — Ruzzo & Tompa's linear-time algorithm for all maximal scoring
// subsequences (paper Appendix C, reference [21]).
//
// Given a sequence of real scores, a maximal segment is a contiguous
// subsequence whose score cannot be increased by extending or trimming it,
// and that is not contained in any higher-scoring segment. STLocal feeds
// each tracked region's per-timestamp r-scores through an online instance of
// this algorithm to maintain its maximal spatiotemporal windows, and the
// temporal-burst extractor of [14] reduces to it as well: Eq. 1 is additive
// over per-timestamp scores (see core/temporal.h).

#ifndef STBURST_CORE_GETMAX_H_
#define STBURST_CORE_GETMAX_H_

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace stburst {

/// A maximal scoring segment: inclusive index range plus its score.
struct Segment {
  size_t start = 0;
  size_t end = 0;  // inclusive
  double score = 0.0;

  friend bool operator==(const Segment& a, const Segment& b) {
    return a.start == b.start && a.end == b.end && a.score == b.score;
  }
};

/// Online GetMax: scores arrive one at a time via Add(); CurrentSegments()
/// is always the set of maximal segments of the prefix consumed so far.
/// Per-element cost is amortized O(list traversal) — linear overall for the
/// short candidate lists burst mining produces.
class OnlineMaxSegments {
 public:
  /// Consumes the next score. Inline for the common non-positive score,
  /// which never opens or extends a candidate and only moves the
  /// cumulative total.
  void Add(double score) {
    if (score <= 0.0) {
      cum_ += score;
      ++n_;
      return;
    }
    AddPositive(score);
  }

  /// Number of scores consumed.
  size_t size() const { return n_; }

  /// Sum of all consumed scores (S.total in Algorithm 2). When this drops
  /// below zero, no future maximal segment can start in the consumed prefix
  /// and the owner may discard the sequence.
  double total() const { return cum_; }

  /// Maximal segments of the consumed prefix, in left-to-right order.
  std::vector<Segment> CurrentSegments() const;

  /// Appends the maximal segments to `out` without allocating a fresh
  /// vector — the per-(term, stream) hot path of batch mining.
  void AppendCurrentSegments(std::vector<Segment>* out) const;

  /// Number of maximal segments currently maintained, without materializing
  /// them (Figure 6 reports this count per timestamp).
  size_t num_candidates() const { return cands_.size(); }

  /// Resets to the state after `consumed` non-positive scores whose
  /// in-order running sum is `total` (the empty sequence by default).
  /// Non-positive scores never open or extend a candidate, so the count
  /// and the sum are all they leave behind.
  void Reset(size_t consumed = 0, double total = 0.0);

 private:
  // Add for a score that is not <= 0 (positive, or NaN).
  void AddPositive(double score);

  // Candidate segment: [start, end] with l = cumulative score before start,
  // r = cumulative score through end (Ruzzo–Tompa's bookkeeping).
  struct Candidate {
    size_t start;
    size_t end;
    double l;
    double r;
  };

  std::vector<Candidate> cands_;
  double cum_ = 0.0;
  size_t n_ = 0;
};

/// Batch variant: all maximal segments of `scores`, left to right.
std::vector<Segment> MaximalSegments(std::span<const double> scores);

/// Braced-list convenience (spans cannot bind initializer lists directly).
inline std::vector<Segment> MaximalSegments(std::initializer_list<double> scores) {
  return MaximalSegments(std::span<const double>(scores.begin(), scores.size()));
}

}  // namespace stburst

#endif  // STBURST_CORE_GETMAX_H_
