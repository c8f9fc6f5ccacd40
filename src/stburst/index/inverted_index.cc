#include "stburst/index/inverted_index.h"

#include <algorithm>

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

void InvertedIndex::Add(TermId term, DocId doc, double score) {
  STB_CHECK(!finalized_) << "Add after Finalize (call Reopen first)";
  if (term >= postings_.size()) postings_.resize(term + 1);
  postings_[term].push_back(Posting{doc, score});
  ++total_postings_;
  if (ever_finalized_) dirty_.push_back(term);
}

void InvertedIndex::Finalize() {
  if (finalized_) return;
  by_doc_.resize(postings_.size());
  auto refreeze_term = [this](TermId t) {
    auto& plist = postings_[t];
    by_doc_[t] = plist;
    std::sort(by_doc_[t].begin(), by_doc_[t].end(), DocOrder);
    std::sort(plist.begin(), plist.end(), ScoreOrder);
  };
  if (!ever_finalized_) {
    for (size_t t = 0; t < postings_.size(); ++t) {
      refreeze_term(static_cast<TermId>(t));
    }
  } else {
    // Incremental re-freeze: only terms edited since the last Finalize()
    // need their two orders rebuilt.
    std::sort(dirty_.begin(), dirty_.end());
    dirty_.erase(std::unique(dirty_.begin(), dirty_.end()), dirty_.end());
    for (TermId t : dirty_) refreeze_term(t);
  }
  dirty_.clear();
  finalized_ = true;
  ever_finalized_ = true;
  ++generation_;
}

void InvertedIndex::Reopen() { finalized_ = false; }

void InvertedIndex::EvictBefore(DocId min_live_doc) {
  STB_CHECK(!finalized_) << "EvictBefore on a frozen index (call Reopen first)";
  STB_CHECK(ever_finalized_ && dirty_.empty())
      << "EvictBefore must precede this open period's Add/ReplaceTerm";
  STBURST_FAULT_POINT_THROW("index.evict");
  for (size_t t = 0; t < by_doc_.size(); ++t) {
    auto& by_doc = by_doc_[t];
    if (by_doc.empty() || by_doc.front().doc >= min_live_doc) continue;
    const auto live =
        std::lower_bound(by_doc.begin(), by_doc.end(), min_live_doc, DocBefore);
    total_postings_ -= static_cast<size_t>(live - by_doc.begin());
    by_doc.erase(by_doc.begin(), live);
    std::erase_if(postings_[t], [min_live_doc](const Posting& p) {
      return p.doc < min_live_doc;
    });
  }
}

void InvertedIndex::ReplaceTerm(TermId term, std::vector<Posting> postings) {
  STB_CHECK(!finalized_) << "ReplaceTerm on a frozen index (call Reopen first)";
  if (term >= postings_.size()) postings_.resize(term + 1);
  total_postings_ -= postings_[term].size();
  total_postings_ += postings.size();
  postings_[term] = std::move(postings);
  if (ever_finalized_) dirty_.push_back(term);
}

const std::vector<Posting>& InvertedIndex::postings(TermId term) const {
  STB_CHECK(finalized_) << "postings before Finalize";
  if (term >= postings_.size()) return kEmpty;
  return postings_[term];
}

bool InvertedIndex::Score(TermId term, DocId doc, double* score) const {
  STB_CHECK(finalized_) << "Score before Finalize";
  if (term >= by_doc_.size()) return false;
  const auto& by_doc = by_doc_[term];
  const auto it =
      std::lower_bound(by_doc.begin(), by_doc.end(), doc, DocBefore);
  if (it == by_doc.end() || it->doc != doc) return false;
  *score = it->score;
  return true;
}

}  // namespace stburst
