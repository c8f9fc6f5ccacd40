#include "stburst/history/cold_tier.h"

#include <algorithm>
#include <string>

#include "stburst/common/logging.h"

namespace stburst {
namespace {

// Binary-searches `rows` (sorted by (stream, bucket)) for the insertion
// point of (stream, bucket).
auto LowerBound(std::vector<ColdRow>& rows, StreamId stream, uint32_t bucket) {
  return std::lower_bound(
      rows.begin(), rows.end(), std::pair(stream, bucket),
      [](const ColdRow& r, const std::pair<StreamId, uint32_t>& key) {
        return std::pair(r.stream, r.bucket) < key;
      });
}

const std::vector<ColdRow> kNoRows;

}  // namespace

StatusOr<ColdTier> ColdTier::Open(Timestamp bucket_width,
                                  Timestamp covered_start) {
  if (bucket_width <= 0) {
    return Status::InvalidArgument(
        "cold tier: bucket width must be positive, got " +
        std::to_string(bucket_width));
  }
  if (covered_start < 0) {
    return Status::InvalidArgument("cold tier: negative covered start " +
                                   std::to_string(covered_start));
  }
  ColdTier tier;
  tier.bucket_width_ = bucket_width;
  tier.covered_start_ = covered_start;
  tier.folded_until_ = covered_start;
  return tier;
}

uint32_t ColdTier::bucket_lower_bound() const {
  return static_cast<uint32_t>(covered_start_ / bucket_width_);
}

uint32_t ColdTier::bucket_upper_bound() const {
  if (folded_until_ <= covered_start_) return bucket_lower_bound();
  return static_cast<uint32_t>((folded_until_ - 1) / bucket_width_) + 1;
}

size_t ColdTier::FoldEvicted(
    std::span<const std::pair<TermId, std::vector<TermPosting>>> removed,
    Timestamp cutoff, ColdFoldUndo* undo) {
  if (undo != nullptr) {
    undo->folded_until = folded_until_;
    undo->stream_upper_bound = stream_ub_;
    undo->term_upper_bound = term_upper_bound();
    undo->saved_rows.clear();
  }
  size_t folded_terms = 0;
  for (const auto& [term, postings] : removed) {
    std::vector<ColdRow>* rows = nullptr;  // set by the term's first cell
    for (const TermPosting& p : postings) {
      // Idempotence: [covered_start_, folded_until_) is already aggregated,
      // anything before covered_start_ was dropped un-folded, and
      // [cutoff, ...) is still hot.
      if (p.time < folded_until_ || p.time >= cutoff) continue;
      if (p.count == 0.0) continue;  // postings are sparse; zeros carry no mass
      if (rows == nullptr) {
        ++folded_terms;
        if (term >= rows_.size()) rows_.resize(size_t{term} + 1);
        rows = &rows_[term];
        if (undo != nullptr) undo->saved_rows.emplace_back(term, *rows);
      }
      const auto bucket = static_cast<uint32_t>(p.time / bucket_width_);
      auto it = LowerBound(*rows, p.stream, bucket);
      if (it == rows->end() || it->stream != p.stream || it->bucket != bucket) {
        it = rows->insert(it, ColdRow{p.stream, bucket, 0.0, 0.0, 0});
      }
      it->sum += p.count;
      it->max = std::max(it->max, p.count);
      it->count += 1;
      stream_ub_ = std::max(stream_ub_, p.stream + 1);
    }
  }
  if (cutoff > folded_until_) folded_until_ = cutoff;
  return folded_terms;
}

void ColdTier::RollbackFold(ColdFoldUndo&& undo) {
  // Newest first: a term named twice in one fold was saved twice, and its
  // first save holds the pre-fold rows.
  for (auto it = undo.saved_rows.rbegin(); it != undo.saved_rows.rend(); ++it) {
    rows_[it->first] = std::move(it->second);
  }
  rows_.resize(undo.term_upper_bound);  // drops terms the fold added
  folded_until_ = undo.folded_until;
  stream_ub_ = undo.stream_upper_bound;
  undo.saved_rows.clear();
}

const std::vector<ColdRow>& ColdTier::TermRows(TermId term) const {
  return term < rows_.size() ? rows_[term] : kNoRows;
}

double ColdTier::StreamSum(TermId term, StreamId stream) const {
  double total = 0.0;
  for (const ColdRow& r : TermRows(term)) {
    if (r.stream == stream) total += r.sum;
  }
  return total;
}

StatusOr<TermSeries> ColdTier::ReplaySeries(TermId term,
                                            uint32_t bucket_begin,
                                            uint32_t bucket_end) const {
  STB_CHECK(bucket_begin <= bucket_end);
  const size_t num_streams = stream_upper_bound();
  const uint64_t buckets = bucket_end - bucket_begin;
  if (buckets > static_cast<uint64_t>(INT32_MAX) ||
      (num_streams != 0 && buckets > kMaxReplayCells / num_streams)) {
    return Status::OutOfRange(
        "cold tier: replaying " + std::to_string(buckets) + " buckets of " +
        std::to_string(num_streams) + " streams exceeds " +
        std::to_string(kMaxReplayCells) + " cells");
  }
  TermSeries series(num_streams, static_cast<Timestamp>(buckets));
  for (const ColdRow& r : TermRows(term)) {
    if (r.bucket < bucket_begin || r.bucket >= bucket_end) continue;
    series.add(r.stream, static_cast<Timestamp>(r.bucket - bucket_begin),
               r.sum);
  }
  return series;
}

}  // namespace stburst
