#include "stburst/index/threshold_algorithm.h"

#include <algorithm>
#include <queue>
#include <unordered_map>

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
  std::unordered_map<DocId, double> candidates;
  size_t expected = 0;
  for (const auto* list : lists) expected += list->size();
  candidates.reserve(std::min(expected, size_t{1} << 16));

  // Bounded heap over the current top-k in result order (score desc, doc
  // asc), its top the k-th: O(log k) per offer with contiguous storage.
  std::priority_queue<ScoredDoc, std::vector<ScoredDoc>, RanksAbove> best_k;

  auto offer = [&](ScoredDoc doc) {
    if (best_k.size() < k) {
      best_k.push(doc);
    } else if (RanksAbove()(doc, best_k.top())) {
      best_k.pop();
      best_k.push(doc);
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
      if (candidates.find(p.doc) != candidates.end()) continue;
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
      candidates.emplace(p.doc, total);
      offer(ScoredDoc{p.doc, total});
    }
    if (!advanced) break;  // every list exhausted: exact result

    // Threshold from the new frontier. Exhausted lists contribute 0 (a doc
    // absent from a list scores 0 there).
    double threshold = 0.0;
    for (size_t i = 0; i < lists.size(); ++i) {
      if (pos[i] < lists[i]->size()) threshold += (*lists[i])[pos[i]].score;
    }
    if (best_k.size() < k) continue;
    const ScoredDoc& kth = best_k.top();
    // An unseen doc scores at most the threshold. It ties only by matching
    // every live list's frontier score (unless rounding lifts a lower sum
    // to the tie), so it appears in each list whose frontier scores above
    // 0, and lists run (score desc, doc asc): it sits at or after each such
    // frontier doc, and cannot outrank the k-th when the k-th's id is at
    // most one of them.
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

  result.docs = SortAndTruncate(std::move(candidates), k);
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
