// One published generation of the search read plane.
//
// A tick that edits search state builds the next IndexSnapshot off to the
// side (a private copy of the current index, edited through the usual
// Reopen → EvictBefore/ReplaceTerm → Finalize fast path) and publishes it
// with one atomic swap; readers hold a shared_ptr<const IndexSnapshot> and
// query it lock-free for as long as they like. The metadata alongside the
// index pins down what "internally consistent" means for a result computed
// against this snapshot: its generation, and the window the postings cover.

#ifndef STBURST_INDEX_INDEX_SNAPSHOT_H_
#define STBURST_INDEX_INDEX_SNAPSHOT_H_

#include <cstdint>

#include "stburst/index/inverted_index.h"
#include "stburst/stream/types.h"

namespace stburst {

/// An immutable, finalized search index plus the window metadata it was
/// built against. Never mutated after publication — ticks publish a
/// successor instead — so concurrent readers need no synchronization
/// beyond holding the shared_ptr.
struct IndexSnapshot {
  InvertedIndex index;

  /// == index.generation(); strictly increasing across published
  /// snapshots of one runtime. Query results computed against this
  /// snapshot carry it (TopKResult::generation), which tells a reader
  /// which published tick answered.
  uint64_t generation = 0;

  /// First retained timestamp of the window the postings cover.
  Timestamp window_start = 0;

  /// Smallest live DocId: every posting's doc is >= doc_id_base.
  DocId doc_id_base = 0;
};

}  // namespace stburst

#endif  // STBURST_INDEX_INDEX_SNAPSHOT_H_
