// Deterministic read-plane tests: snapshot lifetime (a reader holding an
// old generation reads bit-identical results while ticks publish
// successors, and the snapshot frees exactly on last release) and the
// metadata each published snapshot carries. The concurrent half of the
// proof — readers hammering Search() against live ticks — lives in
// read_plane_concurrency_test.cc.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "index_test_util.h"
#include "stburst/common/random.h"
#include "stburst/common/string_util.h"
#include "stburst/stream/feed_runtime.h"

namespace stburst {
namespace {

constexpr size_t kStreams = 5;
constexpr size_t kVocab = 40;
constexpr Timestamp kWindow = 5;

Collection MakeSeedCollection() {
  auto c = Collection::Create(2);
  EXPECT_TRUE(c.ok());
  for (size_t s = 0; s < kStreams; ++s) {
    c->AddStream(StringPrintf("s%zu", s), {},
                 Point2D{static_cast<double>(s % 3),
                         static_cast<double>(s / 3)});
  }
  Vocabulary* v = c->mutable_vocabulary();
  for (size_t t = 0; t < kVocab; ++t) v->Intern("term" + std::to_string(t));
  return std::move(*c);
}

Snapshot MakeSnapshot(Rng& rng) {
  Snapshot snap;
  for (StreamId s = 0; s < kStreams; ++s) {
    const size_t docs = 1 + rng.NextUint64(2);
    for (size_t d = 0; d < docs; ++d) {
      SnapshotDocument doc;
      doc.stream = s;
      const size_t len = 2 + rng.NextUint64(4);
      for (size_t i = 0; i < len; ++i) {
        TermId tok = static_cast<TermId>(rng.NextUint64(kVocab));
        if (rng.Bernoulli(0.5)) {
          tok = static_cast<TermId>(tok % (kVocab / 4 + 1));
        }
        doc.tokens.push_back(tok);
      }
      snap.push_back(std::move(doc));
    }
  }
  return snap;
}

FeedRuntimeOptions ServingOptions() {
  FeedRuntimeOptions opts;
  opts.num_threads = 2;
  opts.retention_window = kWindow;
  opts.search_serving = SearchServing::kCombinatorial;
  opts.miner.stcomb.min_interval_burstiness = 0.05;
  return opts;
}

// A query with a decent chance of postings in the sweep corpus: the low
// term ids, which MakeSnapshot biases half its tokens into.
std::vector<TermId> ProbeQuery() { return {0, 1, 2, 3}; }

TEST(ReadPlane, HeldSnapshotStaysBitIdenticalAcrossGenerations) {
  auto runtime = FeedRuntime::Create(MakeSeedCollection(), ServingOptions());
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
  Rng rng(7);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(runtime->Tick(MakeSnapshot(rng)).ok());
  }

  const std::shared_ptr<const IndexSnapshot> held = runtime->search_snapshot();
  ASSERT_NE(held, nullptr);
  const uint64_t held_generation = held->generation;
  const TopKResult before = ThresholdTopK(held->index, ProbeQuery(), 5);
  // Deep copies to compare bit-for-bit after the runtime moves on.
  const std::vector<Posting> postings_before = held->index.postings(0);
  const size_t total_before = held->index.total_postings();

  // Every ingesting tick publishes a successor; the held snapshot must not
  // move with them.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(runtime->Tick(MakeSnapshot(rng)).ok());
  }
  const std::shared_ptr<const IndexSnapshot> current =
      runtime->search_snapshot();
  ASSERT_NE(current.get(), held.get());
  EXPECT_EQ(current->generation, held->generation + 3);

  const TopKResult after = ThresholdTopK(held->index, ProbeQuery(), 5);
  EXPECT_EQ(after.docs, before.docs);
  const std::vector<Posting>& postings_after = held->index.postings(0);
  ASSERT_EQ(postings_after.size(), postings_before.size());
  for (size_t i = 0; i < postings_after.size(); ++i) {
    EXPECT_EQ(postings_after[i].doc, postings_before[i].doc);
    EXPECT_EQ(postings_after[i].score, postings_before[i].score);
  }
  EXPECT_EQ(held->index.total_postings(), total_before);
  EXPECT_EQ(held->generation, held_generation);
}

TEST(ReadPlane, SnapshotFreesOnlyOnLastRelease) {
  auto runtime = FeedRuntime::Create(MakeSeedCollection(), ServingOptions());
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
  Rng rng(11);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(runtime->Tick(MakeSnapshot(rng)).ok());
  }

  std::shared_ptr<const IndexSnapshot> first_holder =
      runtime->search_snapshot();
  std::shared_ptr<const IndexSnapshot> second_holder = first_holder;
  std::weak_ptr<const IndexSnapshot> watcher = first_holder;

  // Two published generations later the runtime holds only the successor;
  // the old snapshot lives purely on the readers' references.
  ASSERT_TRUE(runtime->Tick(MakeSnapshot(rng)).ok());
  ASSERT_TRUE(runtime->Tick(MakeSnapshot(rng)).ok());
  first_holder.reset();
  EXPECT_FALSE(watcher.expired()) << "snapshot freed while still held";
  second_holder.reset();
  EXPECT_TRUE(watcher.expired()) << "snapshot leaked past its last release";

  // The current snapshot is pinned by the runtime itself even with no
  // outside holders.
  std::weak_ptr<const IndexSnapshot> current_watcher =
      runtime->search_snapshot();
  EXPECT_FALSE(current_watcher.expired());
}

TEST(ReadPlane, PublishingTickLeavesTheHeldSnapshotAndAdvancesTheSlot) {
  auto runtime = FeedRuntime::Create(MakeSeedCollection(), ServingOptions());
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
  Rng rng(13);
  ASSERT_TRUE(runtime->Tick(MakeSnapshot(rng)).ok());

  const std::shared_ptr<const IndexSnapshot> held = runtime->search_snapshot();
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(held->doc_id_base, runtime->collection().doc_id_base());
  EXPECT_EQ(held->window_start, runtime->window_start());
  const uint64_t held_generation = held->generation;
  const DocId held_doc_id_base = held->doc_id_base;
  const Timestamp held_window_start = held->window_start;
  const size_t held_postings = held->index.total_postings();

  // The publishing tick swaps a successor into the slot; the held snapshot
  // keeps every field it had.
  ASSERT_TRUE(runtime->Tick(MakeSnapshot(rng)).ok());
  const std::shared_ptr<const IndexSnapshot> fresh =
      runtime->search_snapshot();
  ASSERT_NE(fresh, nullptr);
  EXPECT_NE(fresh.get(), held.get());
  EXPECT_EQ(fresh->generation, held_generation + 1);
  EXPECT_EQ(fresh->doc_id_base, runtime->collection().doc_id_base());
  EXPECT_EQ(fresh->window_start, runtime->window_start());

  EXPECT_EQ(held->generation, held_generation);
  EXPECT_EQ(held->doc_id_base, held_doc_id_base);
  EXPECT_EQ(held->window_start, held_window_start);
  EXPECT_EQ(held->index.total_postings(), held_postings);
}

TEST(ReadPlane, ServingDisabledYieldsNullSnapshot) {
  FeedRuntimeOptions opts;
  opts.num_threads = 1;
  auto runtime = FeedRuntime::Create(MakeSeedCollection(), opts);
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
  EXPECT_EQ(runtime->search_snapshot(), nullptr);
}

}  // namespace
}  // namespace stburst
