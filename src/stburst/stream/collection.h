// The spatiotemporal collection D = {D1[.], ..., Dn[.]} (paper §2): a set of
// geo-stamped document streams over a shared discrete timeline.

#ifndef STBURST_STREAM_COLLECTION_H_
#define STBURST_STREAM_COLLECTION_H_

#include <string>
#include <vector>

#include "stburst/common/statusor.h"
#include "stburst/geo/point.h"
#include "stburst/stream/document.h"
#include "stburst/stream/types.h"
#include "stburst/stream/vocabulary.h"

namespace stburst {

/// Static description of one document stream: a named source fixed at a
/// geographic location (its geostamp) with a planar projection used by the
/// regional algorithms.
struct StreamInfo {
  StreamId id = kInvalidStream;
  std::string name;
  GeoPoint geo;
  Point2D position;  // planar location (e.g. the MDS embedding)
};

/// One document of an incoming snapshot, before it has a timestamp: the
/// stream that reported it and its interned tokens. Append() stamps it with
/// the new timestamp and assigns its DocId.
struct SnapshotDocument {
  StreamId stream = kInvalidStream;
  std::vector<TermId> tokens;
  int32_t event_id = kNoEvent;
};

/// Everything one timeline tick delivers: the documents reported by all
/// streams during the new timestamp. Streams absent from the snapshot simply
/// reported nothing.
using Snapshot = std::vector<SnapshotDocument>;

/// Captured pre-eviction state that RollbackEvict uses to undo one
/// EvictBefore exactly — the collection-level half of FeedRuntime's
/// transactional tick (docs/ARCHITECTURE.md, failure contract): a copy of
/// the evicted prefix, O(evicted) to capture. Capture strictly precedes
/// mutation, so an EvictBefore that throws mid-capture leaves the
/// collection untouched and `applied` false. Restore consumes the undo.
struct CollectionEvictUndo {
  Timestamp window_start = 0;
  DocId doc_id_base = 0;
  /// False until the eviction actually started mutating the collection;
  /// RollbackEvict of an unapplied undo is a no-op.
  bool applied = false;
  /// The evicted documents, in their original order.
  std::vector<Document> documents;
  /// The evicted docs_at_ prefix cells, per stream.
  std::vector<std::vector<std::vector<DocId>>> docs_at;
};

/// A spatiotemporal collection: streams, an interned vocabulary, and the
/// documents each stream reported per timestamp. Timestamps are 0-based; the
/// timeline starts at the length given to Create() and grows one timestamp
/// per Append() — the live-feed ingest path (docs/ARCHITECTURE.md).
///
/// Retention: a long-running feed bounds its memory by evicting timestamps
/// older than a retention window (EvictBefore). The retained range is
/// [window_start(), timeline_length()); timestamps stay absolute, so
/// evicting never renumbers the timeline. Eviction requires the documents
/// in time order (Append keeps them so; SortByTime restores it after
/// out-of-order AddDocument calls) and drops exactly the DocId prefix
/// [old doc_id_base(), new doc_id_base()): surviving documents keep their
/// ids, so DocId-keyed state follows an eviction by dropping ids below
/// doc_id_base() (see docs/ARCHITECTURE.md, retention/eviction contract).
///
/// Thread-safety: none. All mutators (AddStream, AddDocument, Append,
/// SortByTime, EvictBefore, vocabulary interning) require external
/// exclusion against readers; FrequencyIndex::Build and AppendSnapshot
/// rely on the collection being quiescent while they scan it.
class Collection {
 public:
  /// Creates a collection over `timeline_length` timestamps (must be > 0).
  static StatusOr<Collection> Create(Timestamp timeline_length);

  /// Registers a stream; returns its dense id.
  StreamId AddStream(std::string name, GeoPoint geo, Point2D position);

  /// Recomputes every stream's planar position from its geostamp via
  /// classical MDS over haversine distances (the paper's §6.1 pipeline).
  Status ProjectStreamsWithMds();

  /// Appends a document. Validates stream id and timestamp; assigns and
  /// returns the document's dense id.
  StatusOr<DocId> AddDocument(StreamId stream, Timestamp time,
                              std::vector<TermId> tokens,
                              int32_t event_id = kNoEvent);

  /// Extends the timeline by one timestamp and files the snapshot's
  /// documents under it, in snapshot order. Validation is all-or-nothing:
  /// if any document names an unknown stream, nothing is appended and
  /// InvalidArgument is returned. Returns the new timestamp on success.
  /// After a successful Append, FrequencyIndex::AppendSnapshot catches the
  /// index up without a rebuild. O(snapshot tokens + num_streams).
  StatusOr<Timestamp> Append(Snapshot snapshot);

  /// Undoes the most recent Append(s): drops every document filed at
  /// timestamps >= `old_timeline_length` and shrinks the timeline back.
  /// Also cleans up a *partially applied* Append (one that died mid-push on
  /// an allocation failure), which is what makes Append + RollbackAppend an
  /// all-or-nothing pair for FeedRuntime's transactional tick.
  /// `old_num_documents` is num_documents() from before the Append;
  /// requires old_timeline_length in [window_start(), timeline_length()].
  /// No-throw; O(dropped documents + streams · dropped timestamps).
  void RollbackAppend(Timestamp old_timeline_length, size_t old_num_documents);

  /// Puts the documents in time order: a stable sort by timestamp (each
  /// (stream, time) cell keeps its filing order), renumbered densely from
  /// doc_id_base(), with DocumentsAt() re-filed to match. A no-op on a
  /// collection already in time order — every Append-driven feed and every
  /// in-order history — which is the only case that keeps handed-out
  /// DocIds valid. FeedRuntime::Create calls it once, so a runtime's
  /// collection stays in time order for its whole life. O(documents) when
  /// ordered, O(documents · log documents + streams · window) otherwise.
  void SortByTime();

  /// Drops every document (and per-stream slot) of timestamps before
  /// `cutoff`, advancing window_start() and doc_id_base(). The documents
  /// must be in time order, so the evicted ones are exactly the DocId
  /// prefix and every survivor keeps its id: a DocId-keyed index follows
  /// with InvertedIndex::EvictBefore(doc_id_base()). A collection out of
  /// time order (an out-of-order AddDocument since the last SortByTime) is
  /// FailedPrecondition, and a cutoff beyond the timeline is OutOfRange,
  /// both with the collection untouched; cutoff <= window_start() is a
  /// no-op. The vocabulary and streams are never evicted. O(retained
  /// documents + streams · window) element moves.
  ///
  /// `undo`, when non-null, captures the evicted prefix — everything
  /// RollbackEvict needs to restore the pre-eviction state exactly.
  /// Capture completes before any mutation, so a failure at any point
  /// leaves either an untouched collection (undo unapplied) or a
  /// restorable one.
  Status EvictBefore(Timestamp cutoff, CollectionEvictUndo* undo = nullptr);

  /// Restores the state captured by the matching EvictBefore, consuming the
  /// undo. Must be applied to the collection exactly as that eviction (or
  /// its mid-flight failure) left it — no interleaved mutations. A no-op
  /// when the eviction never started mutating. No-throw given the undo's
  /// buffers.
  void RollbackEvict(CollectionEvictUndo&& undo);

  /// First retained timestamp: 0 until EvictBefore advances it. Documents
  /// and DocumentsAt() exist only for times in
  /// [window_start(), timeline_length()).
  Timestamp window_start() const { return window_start_; }

  /// Ids of live documents are [doc_id_base(), doc_id_base() +
  /// num_documents()); eviction advances the base.
  DocId doc_id_base() const { return doc_id_base_; }

  /// Mutable vocabulary for tokenization during ingest.
  Vocabulary* mutable_vocabulary() { return &vocabulary_; }
  const Vocabulary& vocabulary() const { return vocabulary_; }

  Timestamp timeline_length() const { return timeline_length_; }
  size_t num_streams() const { return streams_.size(); }
  size_t num_documents() const { return documents_.size(); }

  const StreamInfo& stream(StreamId id) const;
  const std::vector<StreamInfo>& streams() const { return streams_; }
  /// Requires id in [doc_id_base(), doc_id_base() + num_documents()).
  const Document& document(DocId id) const;
  /// The retained documents, positionally indexed (documents()[i] has
  /// DocId doc_id_base() + i).
  const std::vector<Document>& documents() const { return documents_; }

  /// Planar positions of all streams, indexed by StreamId.
  std::vector<Point2D> StreamPositions() const;

  /// Ids of documents reported by `stream` at `time` (Dx[i] in the paper).
  const std::vector<DocId>& DocumentsAt(StreamId stream, Timestamp time) const;

 private:
  explicit Collection(Timestamp timeline_length);

  Timestamp timeline_length_;
  Timestamp window_start_ = 0;  // first retained timestamp
  DocId doc_id_base_ = 0;       // id of documents_[0]
  // documents_ is in nondecreasing time order (true for Append-driven feeds
  // and in-order historical ingest) — what EvictBefore's prefix erase
  // requires; cleared by an out-of-order AddDocument, set by SortByTime.
  bool docs_time_ordered_ = true;
  Vocabulary vocabulary_;
  std::vector<StreamInfo> streams_;
  std::vector<Document> documents_;  // retained docs; id = doc_id_base_ + pos
  // per-stream, per-retained-timestamp document id lists; indexed
  // [stream][time - window_start_]
  std::vector<std::vector<std::vector<DocId>>> docs_at_;
};

}  // namespace stburst

#endif  // STBURST_STREAM_COLLECTION_H_
