// Tests for stream/collection.

#include "stburst/stream/collection.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "runtime_test_util.h"
#include "stburst/common/random.h"
#include "stburst/common/string_util.h"
#include "stburst/stream/frequency.h"

namespace stburst {
namespace {

TEST(Collection, RejectsNonPositiveTimeline) {
  EXPECT_TRUE(Collection::Create(0).status().IsInvalidArgument());
  EXPECT_TRUE(Collection::Create(-3).status().IsInvalidArgument());
}

TEST(Collection, AddStreamAssignsDenseIds) {
  auto c = Collection::Create(10);
  ASSERT_TRUE(c.ok());
  StreamId a = c->AddStream("Athens", GeoPoint{37.98, 23.73}, Point2D{1, 2});
  StreamId b = c->AddStream("Berlin", GeoPoint{52.52, 13.41}, Point2D{3, 4});
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(c->num_streams(), 2u);
  EXPECT_EQ(c->stream(a).name, "Athens");
  EXPECT_EQ(c->stream(b).position.x, 3.0);
}

TEST(Collection, AddDocumentValidates) {
  auto c = Collection::Create(5);
  ASSERT_TRUE(c.ok());
  StreamId s = c->AddStream("X", {}, {});
  EXPECT_TRUE(c->AddDocument(99, 0, {}).status().IsInvalidArgument());
  EXPECT_TRUE(c->AddDocument(s, -1, {}).status().IsOutOfRange());
  EXPECT_TRUE(c->AddDocument(s, 5, {}).status().IsOutOfRange());
  auto doc = c->AddDocument(s, 4, {1, 2, 3});
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(*doc, 0u);
  EXPECT_EQ(c->num_documents(), 1u);
}

TEST(Collection, DocumentsAtGroupsByStreamAndTime) {
  auto c = Collection::Create(3);
  ASSERT_TRUE(c.ok());
  StreamId s0 = c->AddStream("A", {}, {});
  StreamId s1 = c->AddStream("B", {}, {});
  TermId t = c->mutable_vocabulary()->Intern("word");
  auto d0 = c->AddDocument(s0, 0, {t});
  auto d1 = c->AddDocument(s0, 0, {t, t});
  auto d2 = c->AddDocument(s1, 2, {t});
  ASSERT_TRUE(d0.ok() && d1.ok() && d2.ok());

  EXPECT_EQ(c->DocumentsAt(s0, 0).size(), 2u);
  EXPECT_EQ(c->DocumentsAt(s0, 1).size(), 0u);
  EXPECT_EQ(c->DocumentsAt(s1, 2).size(), 1u);
  EXPECT_EQ(c->document(*d1).TermFrequency(t), 2);
  EXPECT_EQ(c->document(*d2).stream, s1);
  EXPECT_EQ(c->document(*d2).time, 2);
}

TEST(Collection, EventLabelDefaultsToNoEvent) {
  auto c = Collection::Create(2);
  ASSERT_TRUE(c.ok());
  StreamId s = c->AddStream("A", {}, {});
  auto plain = c->AddDocument(s, 0, {});
  auto labeled = c->AddDocument(s, 0, {}, 7);
  ASSERT_TRUE(plain.ok() && labeled.ok());
  EXPECT_EQ(c->document(*plain).event_id, kNoEvent);
  EXPECT_EQ(c->document(*labeled).event_id, 7);
}

TEST(Collection, AppendExtendsTimelineAndFilesDocuments) {
  auto c = Collection::Create(2);
  ASSERT_TRUE(c.ok());
  StreamId s0 = c->AddStream("A", {}, {});
  StreamId s1 = c->AddStream("B", {}, {});
  TermId w = c->mutable_vocabulary()->Intern("w");

  Snapshot snap;
  snap.push_back(SnapshotDocument{s0, {w, w}, 5});
  snap.push_back(SnapshotDocument{s1, {w}});
  auto t = c->Append(std::move(snap));
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, 2);
  EXPECT_EQ(c->timeline_length(), 3);
  EXPECT_EQ(c->num_documents(), 2u);
  ASSERT_EQ(c->DocumentsAt(s0, 2).size(), 1u);
  ASSERT_EQ(c->DocumentsAt(s1, 2).size(), 1u);

  const Document& doc = c->document(c->DocumentsAt(s0, 2)[0]);
  EXPECT_EQ(doc.stream, s0);
  EXPECT_EQ(doc.time, 2);
  EXPECT_EQ(doc.event_id, 5);
  EXPECT_EQ(doc.TermFrequency(w), 2);
  EXPECT_EQ(c->document(c->DocumentsAt(s1, 2)[0]).event_id, kNoEvent);
}

TEST(Collection, AppendRejectsUnknownStreamAtomically) {
  auto c = Collection::Create(1);
  ASSERT_TRUE(c.ok());
  StreamId s = c->AddStream("A", {}, {});
  Snapshot snap;
  snap.push_back(SnapshotDocument{s, {0}});
  snap.push_back(SnapshotDocument{77, {0}});  // unknown stream
  EXPECT_TRUE(c->Append(std::move(snap)).status().IsInvalidArgument());
  // All-or-nothing: the valid document was not filed either.
  EXPECT_EQ(c->timeline_length(), 1);
  EXPECT_EQ(c->num_documents(), 0u);
}

TEST(Collection, AppendEmptySnapshotStillTicksTheTimeline) {
  auto c = Collection::Create(1);
  ASSERT_TRUE(c.ok());
  StreamId s = c->AddStream("A", {}, {});
  auto t = c->Append({});
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, 1);
  EXPECT_EQ(c->timeline_length(), 2);
  EXPECT_TRUE(c->DocumentsAt(s, 1).empty());
}

TEST(Collection, AppendThenAddStreamCoversTheWholeTimeline) {
  auto c = Collection::Create(1);
  ASSERT_TRUE(c.ok());
  c->AddStream("A", {}, {});
  ASSERT_TRUE(c->Append({}).ok());
  StreamId late = c->AddStream("B", {}, {});
  // The late stream can still be addressed at every timestamp.
  EXPECT_TRUE(c->DocumentsAt(late, 0).empty());
  EXPECT_TRUE(c->DocumentsAt(late, 1).empty());
  Snapshot snap;
  snap.push_back(SnapshotDocument{late, {}});
  ASSERT_TRUE(c->Append(std::move(snap)).ok());
  EXPECT_EQ(c->DocumentsAt(late, 2).size(), 1u);
}

TEST(CollectionRetention, EvictBeforeDropsDocsAndKeepsSurvivorIds) {
  auto c = Collection::Create(4);
  ASSERT_TRUE(c.ok());
  StreamId s0 = c->AddStream("A", {}, {});
  StreamId s1 = c->AddStream("B", {}, {});
  TermId w = c->mutable_vocabulary()->Intern("w");
  ASSERT_TRUE(c->AddDocument(s0, 0, {w}).ok());
  ASSERT_TRUE(c->AddDocument(s1, 1, {w, w}).ok());
  ASSERT_TRUE(c->AddDocument(s0, 2, {w}).ok());
  ASSERT_TRUE(c->AddDocument(s1, 3, {w}).ok());

  ASSERT_TRUE(c->EvictBefore(2).ok());
  EXPECT_EQ(c->window_start(), 2);
  EXPECT_EQ(c->timeline_length(), 4);  // timestamps stay absolute
  EXPECT_EQ(c->num_documents(), 2u);
  EXPECT_EQ(c->doc_id_base(), 2u);

  // The evicted documents were the id prefix: survivors keep their ids.
  EXPECT_EQ(c->documents()[0].time, 2);
  EXPECT_EQ(c->documents()[0].id, 2u);
  EXPECT_EQ(c->documents()[1].id, 3u);
  EXPECT_EQ(c->document(2).stream, s0);
  ASSERT_EQ(c->DocumentsAt(s1, 3).size(), 1u);
  EXPECT_EQ(c->DocumentsAt(s1, 3)[0], 3u);

  // The retained window keeps accepting documents and snapshots.
  EXPECT_TRUE(c->AddDocument(s0, 1, {w}).status().IsOutOfRange());  // evicted
  ASSERT_TRUE(c->AddDocument(s0, 3, {w}).ok());
  Snapshot snap;
  snap.push_back(SnapshotDocument{s1, {w}, kNoEvent});
  auto t = c->Append(std::move(snap));
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, 4);
  EXPECT_EQ(c->DocumentsAt(s1, 4).size(), 1u);

  // Cutoffs at or behind the window are no-ops; beyond the timeline fail.
  EXPECT_TRUE(c->EvictBefore(1).ok());
  EXPECT_EQ(c->window_start(), 2);
  EXPECT_TRUE(c->EvictBefore(99).IsOutOfRange());
}

TEST(CollectionRetention, EvictBeforeAdvancesTheDocIdBase) {
  auto c = Collection::Create(4);
  ASSERT_TRUE(c.ok());
  StreamId s = c->AddStream("A", {}, {});
  TermId w = c->mutable_vocabulary()->Intern("w");
  for (Timestamp t = 0; t < 4; ++t) {
    ASSERT_TRUE(c->AddDocument(s, t, {w}).ok());
  }
  ASSERT_TRUE(c->EvictBefore(3).ok());
  EXPECT_EQ(c->window_start(), 3);
  EXPECT_EQ(c->num_documents(), 1u);
  EXPECT_EQ(c->doc_id_base(), 3u);
  // The surviving document really did keep its pre-eviction id.
  EXPECT_EQ(c->document(3).time, 3);

  // A no-op cutoff moves nothing.
  ASSERT_TRUE(c->EvictBefore(1).ok());
  EXPECT_EQ(c->num_documents(), 1u);
  EXPECT_EQ(c->doc_id_base(), 3u);
}

// A history whose documents are filed in random time order on top of an
// already-evicted window (doc_id_base() > 0). Each document's event id is
// its filing rank, so a test can recover the filing order after a sort.
Collection MakeShuffledCollection(uint64_t seed) {
  constexpr size_t kStreams = 3;
  constexpr Timestamp kTimeline = 7;
  auto c = Collection::Create(kTimeline);
  EXPECT_TRUE(c.ok());
  for (size_t s = 0; s < kStreams; ++s) c->AddStream("s", {}, {});
  Vocabulary* v = c->mutable_vocabulary();
  for (int t = 0; t < 5; ++t) v->Intern(StringPrintf("t%d", t));
  for (StreamId s = 0; s < kStreams; ++s) {
    EXPECT_TRUE(c->AddDocument(s, 0, {0}).ok());
  }
  EXPECT_TRUE(c->EvictBefore(1).ok());

  Rng rng(seed);
  struct Pending {
    StreamId stream;
    Timestamp time;
  };
  std::vector<Pending> pending;
  for (StreamId s = 0; s < kStreams; ++s) {
    for (Timestamp t = 1; t < kTimeline; ++t) {
      const size_t docs = rng.NextUint64(4);
      for (size_t d = 0; d < docs; ++d) pending.push_back({s, t});
    }
  }
  rng.Shuffle(&pending);
  for (size_t i = 0; i < pending.size(); ++i) {
    std::vector<TermId> tokens;
    const size_t len = 1 + rng.NextUint64(4);
    for (size_t k = 0; k < len; ++k) {
      tokens.push_back(static_cast<TermId>(rng.NextUint64(5)));
    }
    EXPECT_TRUE(c->AddDocument(pending[i].stream, pending[i].time,
                               std::move(tokens), static_cast<int32_t>(i))
                    .ok());
  }
  return std::move(*c);
}

// The event ids (filing ranks) of one cell's documents, in cell order.
std::vector<int32_t> CellEvents(const Collection& c, StreamId s,
                                Timestamp t) {
  std::vector<int32_t> events;
  for (DocId id : c.DocumentsAt(s, t)) {
    events.push_back(c.document(id).event_id);
  }
  return events;
}

TEST(CollectionRetention, SortByTimeIsStableDenseAndRefiles) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Collection c = MakeShuffledCollection(seed);
    const DocId base = c.doc_id_base();
    ASSERT_GT(base, 0u);
    const FrequencyIndex before_index = FrequencyIndex::Build(c);
    std::vector<std::vector<std::vector<int32_t>>> before_cells(
        c.num_streams());
    for (StreamId s = 0; s < c.num_streams(); ++s) {
      for (Timestamp t = c.window_start(); t < c.timeline_length(); ++t) {
        before_cells[s].push_back(CellEvents(c, s, t));
      }
    }
    const size_t num_documents = c.num_documents();

    c.SortByTime();
    ASSERT_EQ(c.doc_id_base(), base);
    ASSERT_EQ(c.num_documents(), num_documents);
    for (size_t i = 0; i < c.num_documents(); ++i) {
      const Document& doc = c.documents()[i];
      EXPECT_EQ(doc.id, base + static_cast<DocId>(i));  // dense from base
      if (i > 0) {
        const Document& prev = c.documents()[i - 1];
        ASSERT_LE(prev.time, doc.time);
        // Stable: same-time documents keep their filing order.
        if (prev.time == doc.time) {
          EXPECT_LT(prev.event_id, doc.event_id);
        }
      }
    }
    // DocumentsAt is re-filed onto the new ids, each cell in filing order.
    for (StreamId s = 0; s < c.num_streams(); ++s) {
      for (Timestamp t = c.window_start(); t < c.timeline_length(); ++t) {
        for (DocId id : c.DocumentsAt(s, t)) {
          EXPECT_EQ(c.document(id).stream, s);
          EXPECT_EQ(c.document(id).time, t);
        }
        EXPECT_EQ(CellEvents(c, s, t),
                  before_cells[s][static_cast<size_t>(t - c.window_start())]);
      }
    }
    ExpectIdenticalPostings(FrequencyIndex::Build(c), before_index);

    // Sorting a sorted collection is a no-op.
    const Collection sorted = c;
    c.SortByTime();
    ExpectIdenticalCollections(c, sorted);
  }
}

TEST(CollectionRetention, EvictBeforeRequiresTimeOrder) {
  Collection c = MakeShuffledCollection(7);
  const Collection before = c;
  CollectionEvictUndo undo;
  EXPECT_TRUE(c.EvictBefore(3, &undo).IsFailedPrecondition());
  EXPECT_FALSE(undo.applied);
  ExpectIdenticalCollections(c, before);

  // Once sorted, the same eviction is a prefix erase.
  c.SortByTime();
  const DocId base = c.doc_id_base();
  size_t evicted = 0;
  while (evicted < c.num_documents() && c.documents()[evicted].time < 3) {
    ++evicted;
  }
  ASSERT_TRUE(c.EvictBefore(3).ok());
  EXPECT_EQ(c.doc_id_base(), base + static_cast<DocId>(evicted));
  EXPECT_EQ(c.num_documents(), before.num_documents() - evicted);
}

TEST(CollectionRetention, AddStreamAfterEvictionCoversTheWindow) {
  auto c = Collection::Create(6);
  ASSERT_TRUE(c.ok());
  c->AddStream("A", {}, {});
  ASSERT_TRUE(c->EvictBefore(4).ok());
  StreamId late = c->AddStream("B", {}, {});
  // The late stream's per-time slots must span exactly the retained window.
  EXPECT_EQ(c->DocumentsAt(late, 4).size(), 0u);
  EXPECT_EQ(c->DocumentsAt(late, 5).size(), 0u);
  TermId w = c->mutable_vocabulary()->Intern("w");
  ASSERT_TRUE(c->AddDocument(late, 5, {w}).ok());
  EXPECT_EQ(c->DocumentsAt(late, 5).size(), 1u);
}

Collection MakeRollbackFixture() {
  auto c = Collection::Create(2);
  EXPECT_TRUE(c.ok());
  StreamId s0 = c->AddStream("A", {}, {});
  StreamId s1 = c->AddStream("B", {}, {});
  TermId w = c->mutable_vocabulary()->Intern("w");
  TermId v = c->mutable_vocabulary()->Intern("v");
  EXPECT_TRUE(c->AddDocument(s0, 0, {w}).ok());
  EXPECT_TRUE(c->AddDocument(s1, 1, {w, v}).ok());
  Snapshot snap;
  snap.push_back(SnapshotDocument{s0, {v}});
  EXPECT_TRUE(c->Append(std::move(snap)).ok());
  return std::move(*c);
}

TEST(CollectionRollback, AppendRoundTripRestoresEverything) {
  Collection c = MakeRollbackFixture();
  const Collection before = c;
  const Timestamp old_timeline = c.timeline_length();
  const size_t old_docs = c.num_documents();

  Snapshot snap;
  snap.push_back(SnapshotDocument{0, {0, 1}});
  snap.push_back(SnapshotDocument{1, {1}});
  ASSERT_TRUE(c.Append(std::move(snap)).ok());
  ASSERT_TRUE(c.Append({}).ok());  // rollback spans multiple appends too

  c.RollbackAppend(old_timeline, old_docs);
  ExpectIdenticalCollections(c, before);
}

TEST(CollectionRollback, EvictRoundTripFastPath) {
  Collection c = MakeRollbackFixture();
  const Collection before = c;

  CollectionEvictUndo undo;
  ASSERT_TRUE(c.EvictBefore(2, &undo).ok());
  ASSERT_EQ(c.num_documents(), 1u);
  ASSERT_TRUE(undo.applied);

  c.RollbackEvict(std::move(undo));
  ExpectIdenticalCollections(c, before);
}

TEST(CollectionRollback, UnappliedUndoIsANoOp) {
  Collection c = MakeRollbackFixture();
  const Collection before = c;
  CollectionEvictUndo undo;  // never handed to an eviction
  c.RollbackEvict(std::move(undo));
  ExpectIdenticalCollections(c, before);
}

TEST(CollectionRetention, OutOfRangeCutoffLeavesStateUntouched) {
  Collection c = MakeRollbackFixture();
  const Collection before = c;
  CollectionEvictUndo undo;
  ASSERT_TRUE(c.EvictBefore(c.timeline_length() + 1, &undo).IsOutOfRange());
  // A defined no-op: unapplied undo and bitwise-unchanged state.
  EXPECT_FALSE(undo.applied);
  ExpectIdenticalCollections(c, before);
}

TEST(Collection, MdsProjectionRequiresStreams) {
  auto c = Collection::Create(2);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->ProjectStreamsWithMds().IsFailedPrecondition());
}

TEST(Collection, MdsProjectionPreservesNeighborhoods) {
  auto c = Collection::Create(2);
  ASSERT_TRUE(c.ok());
  c->AddStream("London", GeoPoint{51.51, -0.13}, {});
  c->AddStream("Paris", GeoPoint{48.86, 2.35}, {});
  c->AddStream("Tokyo", GeoPoint{35.68, 139.69}, {});
  ASSERT_TRUE(c->ProjectStreamsWithMds().ok());
  auto pos = c->StreamPositions();
  double lp = EuclideanDistance(pos[0], pos[1]);
  double lt = EuclideanDistance(pos[0], pos[2]);
  EXPECT_LT(lp, lt);
}

}  // namespace
}  // namespace stburst
