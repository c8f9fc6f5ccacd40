#include "stburst/stream/frequency.h"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <mutex>
#include <utility>

#include "stburst/common/fault_injection.h"
#include "stburst/common/logging.h"
#include "stburst/common/parallel.h"

namespace stburst {

TermSeries::TermSeries(size_t num_streams, Timestamp timeline_length)
    : num_streams_(num_streams), timeline_length_(timeline_length) {
  STB_CHECK(timeline_length >= 0) << "timeline length must be non-negative";
  data_.assign(num_streams * static_cast<size_t>(timeline_length), 0.0);
}

size_t TermSeries::Index(StreamId stream, Timestamp time) const {
  STB_DCHECK(stream < num_streams_) << "stream " << stream << " out of range";
  STB_DCHECK(time >= 0 && time < timeline_length_)
      << "time " << time << " out of range";
  return static_cast<size_t>(stream) * static_cast<size_t>(timeline_length_) +
         static_cast<size_t>(time);
}

std::vector<double> TermSeries::AggregateOverStreams() const {
  const size_t L = static_cast<size_t>(timeline_length_);
  std::vector<double> agg(L, 0.0);
  // Walk the row-major buffer contiguously: one streaming pass, rows added
  // into the L-length accumulator.
  const double* p = data_.data();
  for (size_t s = 0; s < num_streams_; ++s, p += L) {
    for (size_t t = 0; t < L; ++t) agg[t] += p[t];
  }
  return agg;
}

double TermSeries::Total() const {
  double sum = 0.0;
  for (double v : data_) sum += v;
  return sum;
}

void TermSeries::Clear() { std::fill(data_.begin(), data_.end(), 0.0); }

const std::vector<TermPosting> FrequencyIndex::kEmpty;

namespace {

// Canonical posting order.
bool PostingLess(const TermPosting& a, const TermPosting& b) {
  if (a.stream != b.stream) return a.stream < b.stream;
  return a.time < b.time;
}

}  // namespace

FrequencyIndex FrequencyIndex::Build(const Collection& collection,
                                     size_t num_threads) {
  // A fresh index is an empty window at the collection's first retained
  // timestamp; catching it up is the one ingest path.
  FrequencyIndex index;
  index.window_start_ = collection.window_start();
  index.timeline_length_ = collection.window_start();
  // Never oversubscribe the machine; the calling thread participates, so
  // workers - 1 pool threads suffice.
  const size_t workers =
      std::min(ResolveThreadCount(num_threads), ResolveThreadCount(0));
  std::unique_ptr<ThreadPool> pool;
  if (workers > 1) pool = std::make_unique<ThreadPool>(workers - 1);
  const Status status = index.AppendSnapshot(collection, pool.get()).status();
  STB_CHECK(status.ok()) << "append onto an empty index failed: "
                         << status.ToString();
  return index;
}

StatusOr<std::vector<TermId>> FrequencyIndex::AppendSnapshot(
    const Collection& collection, ThreadPool* pool) {
  if (collection.timeline_length() < timeline_length_) {
    return Status::InvalidArgument("collection timeline is behind the index");
  }
  if (collection.window_start() > timeline_length_) {
    return Status::InvalidArgument(
        "collection evicted timestamps the index has not ingested");
  }
  if (collection.num_streams() < num_streams_) {
    return Status::InvalidArgument("collection lost streams");
  }
  const size_t vocab = collection.vocabulary().size();
  if (vocab < postings_.size()) {
    return Status::InvalidArgument("collection vocabulary is behind the index");
  }
  postings_.resize(vocab);
  num_streams_ = collection.num_streams();

  // Gather the new snapshots' postings per term: per-document counts from
  // an epoch-stamped scratch table, then tail-merged into the term's pending
  // list (documents of one (stream, time) cell are consecutive here, so a
  // cell's count folds over its documents in filing order). The scan runs
  // stream-major, so pending lists arrive in canonical (stream, time) order.
  std::vector<std::vector<TermPosting>> pending(vocab);
  std::vector<TermId> touched;
  std::vector<uint32_t> seen_epoch(vocab, 0);
  std::vector<uint32_t> slot_of(vocab, 0);
  std::vector<TermId> doc_terms;
  std::vector<double> doc_counts;
  uint32_t epoch = 0;

  for (StreamId s = 0; s < num_streams_; ++s) {
    for (Timestamp i = timeline_length_; i < collection.timeline_length();
         ++i) {
      for (DocId d : collection.DocumentsAt(s, i)) {
        const Document& doc = collection.document(d);
        ++epoch;
        doc_terms.clear();
        doc_counts.clear();
        for (TermId term : doc.tokens) {
          STB_CHECK(term < vocab) << "token outside vocabulary";
          if (seen_epoch[term] != epoch) {
            seen_epoch[term] = epoch;
            slot_of[term] = static_cast<uint32_t>(doc_terms.size());
            doc_terms.push_back(term);
            doc_counts.push_back(1.0);
          } else {
            doc_counts[slot_of[term]] += 1.0;
          }
        }
        for (size_t k = 0; k < doc_terms.size(); ++k) {
          std::vector<TermPosting>& bucket = pending[doc_terms[k]];
          if (bucket.empty()) touched.push_back(doc_terms[k]);
          if (!bucket.empty() && bucket.back().stream == s &&
              bucket.back().time == i) {
            bucket.back().count += doc_counts[k];
          } else {
            bucket.push_back(TermPosting{s, i, doc_counts[k]});
          }
        }
      }
    }
  }

  // The returned change set is in TermId order; the per-term splice below
  // does not depend on the order.
  std::sort(touched.begin(), touched.end());

  // Splice each touched term's pending entries into its bucket. All new
  // times exceed every pre-existing time, so the two sorted halves merge
  // without duplicate cells; an empty bucket (every term of a fresh Build)
  // takes the pending list whole. Terms are independent, so the splice fans
  // across the pool when one is supplied — same output, spliced
  // concurrently.
  ParallelFor(pool, 0, touched.size(), [&](size_t /*worker*/, size_t k) {
    STBURST_FAULT_POINT_THROW("frequency.append_splice");
    const TermId term = touched[k];
    std::vector<TermPosting>& add = pending[term];
    std::vector<TermPosting>& bucket = postings_[term];
    if (bucket.empty()) {
      bucket.swap(add);
      return;
    }
    const size_t old_size = bucket.size();
    bucket.insert(bucket.end(), add.begin(), add.end());
    std::inplace_merge(bucket.begin(),
                       bucket.begin() + static_cast<ptrdiff_t>(old_size),
                       bucket.end(), PostingLess);
  });

  timeline_length_ = collection.timeline_length();
  return touched;
}

void FrequencyIndex::RollbackAppend(const AppendCheckpoint& checkpoint) {
  STB_CHECK(checkpoint.timeline_length >= window_start_ &&
            checkpoint.timeline_length <= timeline_length_)
      << "append checkpoint outside retained timeline";
  STB_CHECK(checkpoint.num_terms <= postings_.size())
      << "append checkpoint vocabulary exceeds current";
  // Every posting the append spliced in carries an appended timestamp, and
  // splices never merge into pre-existing cells (new times strictly exceed
  // every retained time), so dropping the new-time suffix of each surviving
  // term restores the exact pre-append bucket — whether that term's splice
  // ran to completion or never started.
  postings_.resize(checkpoint.num_terms);
  const Timestamp first_new = checkpoint.timeline_length;
  for (std::vector<TermPosting>& bucket : postings_) {
    auto keep_end = std::remove_if(
        bucket.begin(), bucket.end(),
        [first_new](const TermPosting& p) { return p.time >= first_new; });
    bucket.erase(keep_end, bucket.end());
  }
  timeline_length_ = checkpoint.timeline_length;
  num_streams_ = checkpoint.num_streams;
}

StatusOr<std::vector<TermId>> FrequencyIndex::EvictBefore(
    Timestamp cutoff, ThreadPool* pool, FrequencyEvictUndo* undo) {
  if (cutoff <= window_start_) return std::vector<TermId>{};
  if (cutoff > timeline_length_) {
    return Status::OutOfRange("eviction cutoff beyond the timeline");
  }
  if (undo != nullptr) {
    undo->window_start = window_start_;
    undo->cutoff = cutoff;
    undo->removed.clear();
  }
  std::mutex undo_mutex;

  // Per-term drop of the evicted entries, fanned across the pool. Buckets
  // are (stream, time)-sorted, so evicted entries are interleaved per
  // stream run — a remove_if compaction, not a prefix erase. Shrink the
  // bucket whenever the slack passes ~25% so a steadily evicting feed's
  // capacity tracks its size instead of its high-water mark.
  std::vector<uint8_t> changed(postings_.size(), 0);
  ParallelFor(pool, 0, postings_.size(), [&](size_t /*worker*/, size_t t) {
    STBURST_FAULT_POINT_THROW("frequency.evict");
    std::vector<TermPosting>& bucket = postings_[t];
    if (undo != nullptr) {
      // Capture before compacting, and publish the captured entries before
      // touching the bucket: a throw elsewhere then can never leave a
      // compacted bucket missing from the undo.
      std::vector<TermPosting> evicted;
      for (const TermPosting& p : bucket) {
        if (p.time < cutoff) evicted.push_back(p);
      }
      if (!evicted.empty()) {
        std::lock_guard<std::mutex> lock(undo_mutex);
        undo->removed.emplace_back(static_cast<TermId>(t), std::move(evicted));
      }
    }
    auto keep_end = std::remove_if(
        bucket.begin(), bucket.end(),
        [cutoff](const TermPosting& p) { return p.time < cutoff; });
    if (keep_end == bucket.end()) return;
    bucket.erase(keep_end, bucket.end());
    if (bucket.capacity() > bucket.size() + bucket.size() / 4 + 8) {
      bucket.shrink_to_fit();
    }
    changed[t] = 1;
  });

  std::vector<TermId> evicted_terms;
  for (TermId t = 0; t < changed.size(); ++t) {
    if (changed[t]) evicted_terms.push_back(t);
  }
  window_start_ = cutoff;
  return evicted_terms;
}

void FrequencyIndex::RollbackEvict(FrequencyEvictUndo&& undo) {
  for (auto& [term, evicted] : undo.removed) {
    STB_CHECK(term < postings_.size()) << "eviction undo term out of range";
    std::vector<TermPosting>& bucket = postings_[term];
    // The surviving entries (time >= cutoff) and the evicted entries
    // (time < cutoff) are both (stream, time)-sorted subsequences of the
    // original bucket with disjoint cells, so a merge reconstructs it
    // exactly. Filtering the current bucket to post-cutoff entries first
    // makes the restore idempotent against a worker that captured its
    // entries but threw before compacting.
    std::vector<TermPosting> restored;
    restored.reserve(bucket.size() + evicted.size());
    std::vector<TermPosting> kept;
    kept.reserve(bucket.size());
    for (const TermPosting& p : bucket) {
      if (p.time >= undo.cutoff) kept.push_back(p);
    }
    std::merge(evicted.begin(), evicted.end(), kept.begin(), kept.end(),
               std::back_inserter(restored), PostingLess);
    bucket = std::move(restored);
  }
  window_start_ = undo.window_start;
}

size_t FrequencyIndex::PostingsMemoryBytes() const {
  size_t bytes = postings_.capacity() * sizeof(postings_[0]);
  for (const std::vector<TermPosting>& bucket : postings_) {
    bytes += bucket.capacity() * sizeof(TermPosting);
  }
  return bytes;
}

const std::vector<TermPosting>& FrequencyIndex::postings(TermId term) const {
  if (term >= postings_.size()) return kEmpty;
  return postings_[term];
}

TermSeries FrequencyIndex::DenseSeries(TermId term) const {
  TermSeries series(num_streams_, window_length());
  for (const TermPosting& p : postings(term)) {
    series.add(p.stream, p.time - window_start_, p.count);
  }
  return series;
}

void FrequencyIndex::FillSeries(TermId term, TermSeries* series) const {
  STB_CHECK(series->num_streams() == num_streams_ &&
            series->timeline_length() == window_length())
      << "scratch series dimensions mismatch";
  series->Clear();
  for (const TermPosting& p : postings(term)) {
    series->add(p.stream, p.time - window_start_, p.count);
  }
}

double FrequencyIndex::TotalCount(TermId term) const {
  double total = 0.0;
  for (const TermPosting& p : postings(term)) total += p.count;
  return total;
}

}  // namespace stburst
