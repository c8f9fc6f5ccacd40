// One published generation of the search read plane.
//
// A tick that edits search state constructs the next IndexSnapshot off to
// the side (InvertedIndex::Successor of the current index: the evicted docs
// dropped, the re-scored terms replaced) and publishes it with one swap
// under the PublishedPtr slot's mutex; readers copy a
// shared_ptr<const IndexSnapshot> under that mutex and then query it
// without locks for as long as they like. The metadata alongside the index
// pins down what "internally consistent" means for a result computed
// against this snapshot: its generation, and the window the postings cover.

#ifndef STBURST_INDEX_INDEX_SNAPSHOT_H_
#define STBURST_INDEX_INDEX_SNAPSHOT_H_

#include <cstdint>

#include "stburst/index/inverted_index.h"
#include "stburst/stream/types.h"

namespace stburst {

/// An immutable search index plus the window metadata it was built
/// against. Never mutated after publication — ticks publish a
/// successor instead — so concurrent readers need no synchronization
/// beyond holding the shared_ptr.
struct IndexSnapshot {
  InvertedIndex index;

  /// 1 for a runtime's first snapshot, +1 for each one it publishes after.
  /// FeedRuntime::Search stamps it on its results (TopKResult::generation),
  /// which tells a reader which published tick answered.
  uint64_t generation = 0;

  /// First retained timestamp of the window the postings cover.
  Timestamp window_start = 0;

  /// Smallest live DocId: every posting's doc is >= doc_id_base.
  DocId doc_id_base = 0;
};

}  // namespace stburst

#endif  // STBURST_INDEX_INDEX_SNAPSHOT_H_
