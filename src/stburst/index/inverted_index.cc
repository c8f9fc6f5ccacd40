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
  lookup_.resize(postings_.size());
  auto refreeze_term = [this](TermId t) {
    auto& plist = postings_[t];
    std::sort(plist.begin(), plist.end(), ScoreOrder);
    auto& map = lookup_[t];
    // The map is maintained, not rebuilt: postings only ever leave through
    // EvictBefore (which erases their keys) and ReplaceTerm (which clears
    // the map), so at refreeze time every mapped doc is still in the list
    // and only docs added since the last freeze need nodes. emplace keeps the
    // existing node for mapped docs — a failed find instead of a
    // free+malloc pair, which is what makes the eviction-aware refreeze
    // cheaper than a rebuild (bench: inverted_reopen_evict).
    map.reserve(plist.size());
    for (const Posting& p : plist) map.emplace(p.doc, p.score);
  };
  if (!ever_finalized_) {
    for (size_t t = 0; t < postings_.size(); ++t) {
      refreeze_term(static_cast<TermId>(t));
    }
  } else {
    // Incremental re-freeze: only terms with postings added since the last
    // Finalize() need their order and random-access map rebuilt.
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
  STBURST_FAULT_POINT_THROW("index.evict");
  for (size_t t = 0; t < postings_.size(); ++t) {
    auto& plist = postings_[t];
    const auto keep = [min_live_doc](const Posting& p) {
      return p.doc >= min_live_doc;
    };
    const auto first_evicted =
        std::find_if_not(plist.begin(), plist.end(), keep);
    if (first_evicted == plist.end()) continue;
    // Survivors keep their relative (score, doc) order, so no re-sort; and
    // the evicted docs are known exactly, so the random-access map pays
    // O(evicted) targeted erases, not an O(survivors) rebuild — that
    // asymmetry is what lets the steady-state tick beat a rebuild even
    // when an eviction touches most of the active vocabulary. One
    // allocation-free compaction pass does both.
    const bool mapped = t < lookup_.size();
    auto out = first_evicted;
    for (auto it = first_evicted; it != plist.end(); ++it) {
      if (keep(*it)) {
        *out++ = *it;
      } else {
        if (mapped) lookup_[t].erase(it->doc);
        --total_postings_;
      }
    }
    plist.erase(out, plist.end());
  }
}

void InvertedIndex::ReplaceTerm(TermId term, std::vector<Posting> postings) {
  STB_CHECK(!finalized_) << "ReplaceTerm on a frozen index (call Reopen first)";
  if (term >= postings_.size()) postings_.resize(term + 1);
  total_postings_ -= postings_[term].size();
  total_postings_ += postings.size();
  postings_[term] = std::move(postings);
  if (term < lookup_.size()) lookup_[term].clear();
  if (ever_finalized_) dirty_.push_back(term);
}

const std::vector<Posting>& InvertedIndex::postings(TermId term) const {
  STB_CHECK(finalized_) << "postings before Finalize";
  if (term >= postings_.size()) return kEmpty;
  return postings_[term];
}

bool InvertedIndex::Score(TermId term, DocId doc, double* score) const {
  STB_CHECK(finalized_) << "Score before Finalize";
  if (term >= lookup_.size()) return false;
  auto it = lookup_[term].find(doc);
  if (it == lookup_[term].end()) return false;
  *score = it->second;
  return true;
}

}  // namespace stburst
