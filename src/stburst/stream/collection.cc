#include "stburst/stream/collection.h"

#include <algorithm>

#include "stburst/common/fault_injection.h"
#include "stburst/common/logging.h"
#include "stburst/common/string_util.h"
#include "stburst/geo/mds.h"

namespace stburst {

StatusOr<Collection> Collection::Create(Timestamp timeline_length) {
  if (timeline_length <= 0) {
    return Status::InvalidArgument("timeline length must be positive");
  }
  return Collection(timeline_length);
}

Collection::Collection(Timestamp timeline_length)
    : timeline_length_(timeline_length) {}

StreamId Collection::AddStream(std::string name, GeoPoint geo, Point2D position) {
  StreamId id = static_cast<StreamId>(streams_.size());
  streams_.push_back(StreamInfo{id, std::move(name), geo, position});
  docs_at_.emplace_back(static_cast<size_t>(timeline_length_ - window_start_));
  return id;
}

Status Collection::ProjectStreamsWithMds() {
  if (streams_.empty()) {
    return Status::FailedPrecondition("no streams to project");
  }
  std::vector<GeoPoint> geos;
  geos.reserve(streams_.size());
  for (const StreamInfo& s : streams_) geos.push_back(s.geo);
  STB_ASSIGN_OR_RETURN(std::vector<Point2D> projected, ProjectGeoPoints(geos));
  for (size_t i = 0; i < streams_.size(); ++i) {
    streams_[i].position = projected[i];
  }
  return Status::OK();
}

StatusOr<DocId> Collection::AddDocument(StreamId stream, Timestamp time,
                                        std::vector<TermId> tokens,
                                        int32_t event_id) {
  if (stream >= streams_.size()) {
    return Status::InvalidArgument(
        StringPrintf("unknown stream id %u", stream));
  }
  if (time < window_start_ || time >= timeline_length_) {
    return Status::OutOfRange(
        StringPrintf("timestamp %d outside retained window [%d, %d)", time,
                     window_start_, timeline_length_));
  }
  DocId id = doc_id_base_ + static_cast<DocId>(documents_.size());
  if (!documents_.empty() && time < documents_.back().time) {
    docs_time_ordered_ = false;
  }
  documents_.push_back(Document{id, stream, time, std::move(tokens), event_id});
  docs_at_[stream][static_cast<size_t>(time - window_start_)].push_back(id);
  return id;
}

StatusOr<Timestamp> Collection::Append(Snapshot snapshot) {
  for (const SnapshotDocument& doc : snapshot) {
    if (doc.stream >= streams_.size()) {
      return Status::InvalidArgument(
          StringPrintf("unknown stream id %u in snapshot", doc.stream));
    }
  }
  STBURST_FAULT_POINT("collection.append");
  const Timestamp time = timeline_length_;
  ++timeline_length_;
  for (auto& per_stream : docs_at_) per_stream.emplace_back();
  for (SnapshotDocument& doc : snapshot) {
    DocId id = doc_id_base_ + static_cast<DocId>(documents_.size());
    docs_at_[doc.stream].back().push_back(id);
    documents_.push_back(
        Document{id, doc.stream, time, std::move(doc.tokens), doc.event_id});
  }
  return time;
}

void Collection::RollbackAppend(Timestamp old_timeline_length,
                                size_t old_num_documents) {
  STB_CHECK(old_timeline_length >= window_start_ &&
            old_timeline_length <= timeline_length_)
      << "rollback target " << old_timeline_length
      << " outside retained timeline";
  STB_CHECK(old_num_documents <= documents_.size())
      << "rollback target document count exceeds current count";
  // Drop the appended documents. Append files new documents strictly at the
  // tail (new timestamps only), so a suffix resize undoes them; this also
  // cleans a partially applied Append that died mid-push, because every
  // document it managed to push is in that suffix.
  documents_.resize(old_num_documents);
  // Append files ids only into the per-stream cell it just emplaced, so
  // dropping the trailing cells removes every filed id and leaves the
  // surviving cells untouched even after a partial Append.
  const size_t old_cells = static_cast<size_t>(old_timeline_length -
                                               window_start_);
  for (auto& per_stream : docs_at_) {
    if (per_stream.size() > old_cells) per_stream.resize(old_cells);
  }
  timeline_length_ = old_timeline_length;
  // Appends never break time order; if it was set before, a rollback cannot
  // have restored it, so docs_time_ordered_ is left as-is.
}

void Collection::SortByTime() {
  if (docs_time_ordered_) return;
  // Stable, so documents sharing a timestamp — in particular each
  // (stream, time) cell — keep their filing order, which is what keeps
  // every DocumentsAt() scan over the sorted collection, FrequencyIndex's
  // gather included, deterministic.
  std::stable_sort(documents_.begin(), documents_.end(),
                   [](const Document& a, const Document& b) {
                     return a.time < b.time;
                   });
  for (auto& per_stream : docs_at_) {
    for (auto& cell : per_stream) cell.clear();
  }
  for (size_t i = 0; i < documents_.size(); ++i) {
    Document& doc = documents_[i];
    doc.id = doc_id_base_ + static_cast<DocId>(i);
    docs_at_[doc.stream][static_cast<size_t>(doc.time - window_start_)]
        .push_back(doc.id);
  }
  docs_time_ordered_ = true;
}

Status Collection::EvictBefore(Timestamp cutoff, CollectionEvictUndo* undo) {
  if (!docs_time_ordered_) {
    return Status::FailedPrecondition(
        "documents out of time order; call SortByTime before evicting");
  }
  if (cutoff <= window_start_) return Status::OK();
  if (cutoff > timeline_length_) {
    return Status::OutOfRange(
        StringPrintf("eviction cutoff %d beyond timeline %d", cutoff,
                     timeline_length_));
  }
  const size_t drop = static_cast<size_t>(cutoff - window_start_);
  // The evicted documents are exactly the time-ordered prefix.
  const auto split = std::partition_point(
      documents_.begin(), documents_.end(),
      [cutoff](const Document& d) { return d.time < cutoff; });
  if (undo != nullptr) {
    // Populate the restore header before anything can fail (including the
    // fault point below), so RollbackEvict of a never-started eviction is a
    // clean no-op rather than a restore from a default-constructed undo.
    undo->window_start = window_start_;
    undo->doc_id_base = doc_id_base_;
    undo->applied = false;
    undo->documents.clear();
    undo->docs_at.clear();
  }
  STBURST_FAULT_POINT("collection.evict");
  if (undo != nullptr) {
    // Capture strictly precedes mutation: every allocation the undo needs
    // happens here, so an allocation failure during capture leaves the
    // collection untouched (and the undo unapplied). Copies, not moves —
    // a half-taken move would be a mutation.
    undo->documents.assign(documents_.begin(), split);
    undo->docs_at.reserve(docs_at_.size());
    for (const auto& per_stream : docs_at_) {
      undo->docs_at.emplace_back(
          per_stream.begin(),
          per_stream.begin() + static_cast<ptrdiff_t>(drop));
    }
    undo->applied = true;
  }
  // A prefix erase keeps id == doc_id_base_ + position for every survivor,
  // so nothing is renumbered or re-filed.
  doc_id_base_ += static_cast<DocId>(split - documents_.begin());
  documents_.erase(documents_.begin(), split);
  for (auto& per_stream : docs_at_) {
    per_stream.erase(per_stream.begin(),
                     per_stream.begin() + static_cast<ptrdiff_t>(drop));
  }
  window_start_ = cutoff;
  return Status::OK();
}

void Collection::RollbackEvict(CollectionEvictUndo&& undo) {
  if (!undo.applied) return;  // the eviction never mutated anything
  // Re-prepend the evicted prefix. The post-eviction vectors kept their
  // pre-eviction capacity (erase never shrinks), so these inserts stay
  // within capacity and only move elements — no allocation, no throw.
  documents_.insert(documents_.begin(),
                    std::make_move_iterator(undo.documents.begin()),
                    std::make_move_iterator(undo.documents.end()));
  STB_CHECK(undo.docs_at.size() == docs_at_.size())
      << "eviction undo captured a different stream set";
  for (size_t s = 0; s < docs_at_.size(); ++s) {
    docs_at_[s].insert(docs_at_[s].begin(),
                       std::make_move_iterator(undo.docs_at[s].begin()),
                       std::make_move_iterator(undo.docs_at[s].end()));
  }
  window_start_ = undo.window_start;
  doc_id_base_ = undo.doc_id_base;
}

const StreamInfo& Collection::stream(StreamId id) const {
  STB_CHECK(id < streams_.size()) << "invalid StreamId " << id;
  return streams_[id];
}

const Document& Collection::document(DocId id) const {
  STB_CHECK(id >= doc_id_base_ &&
            id - doc_id_base_ < documents_.size())
      << "invalid or evicted DocId " << id;
  return documents_[id - doc_id_base_];
}

std::vector<Point2D> Collection::StreamPositions() const {
  std::vector<Point2D> out;
  out.reserve(streams_.size());
  for (const StreamInfo& s : streams_) out.push_back(s.position);
  return out;
}

const std::vector<DocId>& Collection::DocumentsAt(StreamId stream,
                                                  Timestamp time) const {
  STB_CHECK(stream < streams_.size()) << "invalid StreamId " << stream;
  STB_CHECK(time >= window_start_ && time < timeline_length_)
      << "time " << time << " outside retained window";
  return docs_at_[stream][static_cast<size_t>(time - window_start_)];
}

}  // namespace stburst
