#include "stburst/index/threshold_algorithm.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <unordered_map>
#include <utility>

#include "stburst/common/logging.h"

namespace stburst {

namespace {

std::vector<TermId> DedupeQuery(const std::vector<TermId>& query) {
  std::vector<TermId> terms = query;
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  return terms;
}

// Result order: descending score, ties by ascending doc id.
struct RanksAbove {
  bool operator()(const ScoredDoc& a, const ScoredDoc& b) const {
    if (a.score != b.score) return a.score > b.score;
    return a.doc < b.doc;
  }
};

std::vector<ScoredDoc> SortAndTruncate(
    std::unordered_map<DocId, double>&& scores, size_t k) {
  std::vector<ScoredDoc> docs;
  docs.reserve(scores.size());
  for (const auto& [doc, score] : scores) {
    if (score > 0.0) docs.push_back(ScoredDoc{doc, score});
  }
  std::sort(docs.begin(), docs.end(), RanksAbove());
  if (docs.size() > k) docs.resize(k);
  return docs;
}

// The docs one TA query has scored: an open-addressing set of ids (linear
// probing, Fibonacci hashing) that starts at kMinSlots and quadruples at
// half load, so it costs O(docs scored) whatever its lists' length. Growing
// 4x rather than 2x rehashes a third as many docs on a deep scan.
class SeenDocs {
 public:
  SeenDocs() : slots_(kMinSlots, kEmpty) {}

  /// Adds `doc`; false if it was already in the set.
  bool Insert(DocId doc) {
    if (doc == kEmpty) return !std::exchange(holds_empty_id_, true);
    if (2 * (size_ + 1) > slots_.size()) Grow();
    return Place(doc);
  }

 private:
  static constexpr DocId kEmpty = kInvalidDoc;
  static constexpr size_t kMinSlots = 512;
  static constexpr int kGrowBits = 2;

  bool Place(DocId doc) {
    const size_t mask = slots_.size() - 1;
    for (size_t i = (doc * uint64_t{0x9E3779B97F4A7C15}) >> shift_;;
         i = (i + 1) & mask) {
      if (slots_[i] == doc) return false;
      if (slots_[i] == kEmpty) {
        slots_[i] = doc;
        ++size_;
        return true;
      }
    }
  }

  void Grow() {
    std::vector<DocId> old(slots_.size() << kGrowBits, kEmpty);
    old.swap(slots_);
    shift_ -= kGrowBits;
    size_ = 0;
    for (DocId doc : old) {
      if (doc != kEmpty) Place(doc);
    }
  }

  std::vector<DocId> slots_;
  int shift_ = 64 - std::countr_zero(kMinSlots);
  size_t size_ = 0;
  bool holds_empty_id_ = false;  // kInvalidDoc is a legal posting id
};

}  // namespace

TopKResult ThresholdTopK(const InvertedIndex& index,
                         const std::vector<TermId>& query, size_t k) {
  TopKResult result;
  if (k == 0) return result;
  std::vector<TermId> terms = DedupeQuery(query);
  if (terms.empty()) return result;

  std::vector<const std::vector<Posting>*> lists;
  lists.reserve(terms.size());
  for (TermId t : terms) lists.push_back(&index.postings(t));

  std::vector<size_t> pos(lists.size(), 0);
  SeenDocs seen;

  // Bounded heap over the current top-k in result order (score desc, doc
  // asc), its front the k-th: O(log k) per offer with contiguous storage.
  // It holds the only scores kept; a scored doc outside it can never
  // re-enter, since each doc is scored once.
  std::vector<ScoredDoc> best_k;
  auto offer = [&](ScoredDoc doc) {
    if (best_k.size() < k) {
      best_k.push_back(doc);
      std::push_heap(best_k.begin(), best_k.end(), RanksAbove());
    } else if (RanksAbove()(doc, best_k.front())) {
      std::pop_heap(best_k.begin(), best_k.end(), RanksAbove());
      best_k.back() = doc;
      std::push_heap(best_k.begin(), best_k.end(), RanksAbove());
    }
  };

  for (;;) {
    bool advanced = false;
    for (size_t i = 0; i < lists.size(); ++i) {
      if (pos[i] >= lists[i]->size()) continue;
      const Posting& p = (*lists[i])[pos[i]];
      ++pos[i];
      ++result.sorted_accesses;
      advanced = true;
      if (!seen.Insert(p.doc)) continue;
      // Complete the document's aggregate with random accesses.
      double total = 0.0;
      for (size_t j = 0; j < lists.size(); ++j) {
        double s = 0.0;
        if (j == i) {
          s = p.score;
        } else {
          ++result.random_accesses;
          if (!index.Score(terms[j], p.doc, &s)) s = 0.0;
        }
        total += s;
      }
      offer(ScoredDoc{p.doc, total});
    }
    if (!advanced) break;  // every list exhausted: exact result

    // Threshold from the new frontier. Exhausted lists contribute 0, and so
    // does a negative frontier: a doc absent from a list scores 0 there.
    double threshold = 0.0;
    for (size_t i = 0; i < lists.size(); ++i) {
      if (pos[i] < lists[i]->size()) {
        threshold += std::max((*lists[i])[pos[i]].score, 0.0);
      }
    }
    if (best_k.size() < k) continue;
    const ScoredDoc& kth = best_k.front();
    // An unseen doc scores at most the threshold. It ties only by matching
    // every live list's clamped frontier score (unless rounding lifts a
    // lower sum to the tie), so it appears in each list whose frontier
    // scores above 0, and lists run (score desc, doc asc): it sits at or
    // after each such frontier doc, and cannot outrank the k-th when the
    // k-th's id is at most one of them.
    bool tie_settled = false;
    for (size_t i = 0; kth.score == threshold && i < lists.size(); ++i) {
      if (pos[i] < lists[i]->size() && (*lists[i])[pos[i]].score > 0.0 &&
          kth.doc <= (*lists[i])[pos[i]].doc) {
        tie_settled = true;
        break;
      }
    }
    if (kth.score > threshold || tie_settled || threshold <= 0.0) {
      result.early_terminated = true;
      break;
    }
  }

  // The heap sorted is the answer in result order; non-positive docs rank
  // last, so dropping them leaves its prefix.
  std::sort_heap(best_k.begin(), best_k.end(), RanksAbove());
  while (!best_k.empty() && !(best_k.back().score > 0.0)) best_k.pop_back();
  result.docs = std::move(best_k);
  return result;
}

TopKResult ExhaustiveTopK(const InvertedIndex& index,
                          const std::vector<TermId>& query, size_t k) {
  TopKResult result;
  if (k == 0) return result;
  std::vector<TermId> terms = DedupeQuery(query);
  std::unordered_map<DocId, double> scores;
  size_t expected = 0;
  for (TermId t : terms) expected += index.postings(t).size();
  scores.reserve(std::min(expected, size_t{1} << 16));
  for (TermId t : terms) {
    for (const Posting& p : index.postings(t)) {
      scores[p.doc] += p.score;
      ++result.sorted_accesses;
    }
  }
  result.docs = SortAndTruncate(std::move(scores), k);
  return result;
}

}  // namespace stburst
