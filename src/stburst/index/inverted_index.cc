#include "stburst/index/inverted_index.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "stburst/common/fault_injection.h"
#include "stburst/common/logging.h"

namespace stburst {

const std::vector<Posting> InvertedIndex::kEmpty;

namespace {

bool ScoreOrder(const Posting& a, const Posting& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.doc < b.doc;
}

bool DocOrder(const Posting& a, const Posting& b) { return a.doc < b.doc; }

bool DocBefore(const Posting& p, DocId doc) { return p.doc < doc; }

}  // namespace

InvertedIndex::InvertedIndex(std::vector<std::vector<Posting>> lists) {
  std::vector<TermId> terms(lists.size());
  std::iota(terms.begin(), terms.end(), TermId{0});
  *this = Successor(InvertedIndex(), 0, terms, std::move(lists));
}

InvertedIndex InvertedIndex::Successor(
    const InvertedIndex& base, DocId min_live_doc,
    std::span<const TermId> terms, std::vector<std::vector<Posting>> lists) {
  STB_CHECK(terms.size() == lists.size())
      << "Successor takes one list per replaced term";
  STBURST_FAULT_POINT_THROW("index.successor");
  constexpr size_t kKept = std::numeric_limits<size_t>::max();
  size_t num_terms = base.num_terms();
  for (TermId t : terms) num_terms = std::max(num_terms, size_t{t} + 1);
  std::vector<size_t> replaced_by(num_terms, kKept);
  for (size_t i = 0; i < terms.size(); ++i) {
    STB_CHECK(replaced_by[terms[i]] == kKept)
        << "term " << terms[i] << " replaced twice";
    replaced_by[terms[i]] = i;
  }

  InvertedIndex next;
  next.by_score_.resize(num_terms);
  next.by_doc_.resize(num_terms);
  for (size_t t = 0; t < num_terms; ++t) {
    std::vector<Posting>& by_score = next.by_score_[t];
    std::vector<Posting>& by_doc = next.by_doc_[t];
    if (replaced_by[t] != kKept) {
      by_score = std::move(lists[replaced_by[t]]);
      by_doc = by_score;
      std::sort(by_doc.begin(), by_doc.end(), DocOrder);
      std::sort(by_score.begin(), by_score.end(), ScoreOrder);
    } else if (t < base.num_terms()) {
      // The evicted docs are a prefix of the doc order; the score order
      // keeps its relative order minus them.
      const std::vector<Posting>& old_doc = base.by_doc_[t];
      const auto live = std::lower_bound(old_doc.begin(), old_doc.end(),
                                         min_live_doc, DocBefore);
      by_doc.assign(live, old_doc.end());
      if (live == old_doc.begin()) {
        by_score = base.by_score_[t];
      } else {
        by_score.reserve(by_doc.size());
        for (const Posting& p : base.by_score_[t]) {
          if (p.doc >= min_live_doc) by_score.push_back(p);
        }
      }
    }
    next.total_postings_ += by_score.size();
  }
  return next;
}

const std::vector<Posting>& InvertedIndex::postings(TermId term) const {
  if (term >= by_score_.size()) return kEmpty;
  return by_score_[term];
}

bool InvertedIndex::Score(TermId term, DocId doc, double* score) const {
  if (term >= by_doc_.size()) return false;
  const auto& by_doc = by_doc_[term];
  const auto it =
      std::lower_bound(by_doc.begin(), by_doc.end(), doc, DocBefore);
  if (it == by_doc.end() || it->doc != doc) return false;
  *score = it->score;
  return true;
}

}  // namespace stburst
