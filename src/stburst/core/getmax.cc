#include "stburst/core/getmax.h"

namespace stburst {

void OnlineMaxSegments::AddPositive(double score) {
  const size_t idx = n_++;
  Candidate k{idx, idx, cum_, cum_ + score};
  cum_ += score;

  // Ruzzo–Tompa steps 1-2: find the rightmost candidate j with l_j < l_k.
  //  - none, or r_j >= r_k: append k.
  //  - otherwise merge: k absorbs candidates j..top and restarts the search.
  for (;;) {
    size_t j = cands_.size();
    while (j > 0 && cands_[j - 1].l >= k.l) --j;
    if (j == 0) {
      cands_.push_back(k);
      return;
    }
    const Candidate& cj = cands_[j - 1];
    if (cj.r >= k.r) {
      cands_.push_back(k);
      return;
    }
    // Extend k leftwards to cj's start; drop cj and everything after it.
    k.start = cj.start;
    k.l = cj.l;
    cands_.resize(j - 1);
  }
}

std::vector<Segment> OnlineMaxSegments::CurrentSegments() const {
  std::vector<Segment> out;
  out.reserve(cands_.size());
  AppendCurrentSegments(&out);
  return out;
}

void OnlineMaxSegments::AppendCurrentSegments(std::vector<Segment>* out) const {
  for (const Candidate& c : cands_) {
    out->push_back(Segment{c.start, c.end, c.r - c.l});
  }
}

void OnlineMaxSegments::Reset(size_t consumed, double total) {
  cands_.clear();
  cum_ = total;
  n_ = consumed;
}

std::vector<Segment> MaximalSegments(std::span<const double> scores) {
  OnlineMaxSegments online;
  for (double s : scores) online.Add(s);
  return online.CurrentSegments();
}

}  // namespace stburst
