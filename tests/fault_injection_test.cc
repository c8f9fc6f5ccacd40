// The transactional-tick proof harness (built only with
// -DSTBURST_FAULT_INJECTION=ON): for every site in the fault registry and
// both failure kinds, a FeedRuntime::Tick that fails at that site must
// leave the runtime bit-identical to a control runtime that never saw the
// snapshot — collection, frequency index, standing result, staleness
// bookkeeping, search index and its generation — and the next clean tick
// must bring both runtimes back into lockstep and the search index back to
// full-rebuild parity.

#include "stburst/common/fault_injection.h"

#ifdef STBURST_FAULT_INJECTION

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "runtime_test_util.h"
#include "stburst/common/random.h"
#include "stburst/index/pattern_index.h"
#include "stburst/index/search_engine.h"
#include "stburst/stream/feed_runtime.h"

namespace stburst {
namespace {

constexpr size_t kStreams = 6;
constexpr size_t kVocab = 60;
constexpr Timestamp kWindow = 6;
// Warmup must overfill the window so the armed tick both appends AND
// evicts — that is what routes it through every registered site.
constexpr int kWarmupTicks = 10;

Collection MakeSeedCollection() {
  auto c = Collection::Create(2);
  EXPECT_TRUE(c.ok());
  for (size_t s = 0; s < kStreams; ++s) {
    c->AddStream("s" + std::to_string(s), {},
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
    size_t docs = 1 + rng.NextUint64(2);
    for (size_t d = 0; d < docs; ++d) {
      SnapshotDocument doc;
      doc.stream = s;
      size_t len = 2 + rng.NextUint64(4);
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

// A configuration that exercises every registered site on an evicting
// tick: retention (collection/frequency/index evict), dirty re-mine
// (batch_miner.mine_term via runtime.remine), a refresh sweep,
// combinatorial search serving (runtime.search_update), and the cold
// history tier (history.fold).
FeedRuntimeOptions SweepOptions() {
  FeedRuntimeOptions opts;
  opts.num_threads = 4;  // sites must roll back when hit on pool workers
  opts.retention_window = kWindow;
  opts.refresh_budget = 4;
  opts.search_serving = SearchServing::kCombinatorial;
  opts.miner.stcomb.min_interval_burstiness = 0.05;
  opts.history_mode = HistoryMode::kInMemory;
  opts.history_bucket_width = 2;
  return opts;
}

InvertedIndex RebuildReferenceSearchIndex(const FeedRuntime& runtime) {
  PatternIndex patterns;
  for (TermId t = 0; t < runtime.result().terms.size(); ++t) {
    const TermPatterns& slot = runtime.result().terms[t];
    for (const auto& p : slot.combinatorial) patterns.AddCombinatorial(t, p);
  }
  auto engine = BurstySearchEngine::Build(runtime.collection(), patterns);
  return engine.index();
}

struct SweepCase {
  std::string_view site;
  fault::FailureKind kind;
};

std::vector<SweepCase> AllSweepCases() {
  std::vector<SweepCase> cases;
  for (std::string_view site : fault::RegisteredSites()) {
    cases.push_back({site, fault::FailureKind::kStatus});
    cases.push_back({site, fault::FailureKind::kBadAlloc});
  }
  return cases;
}

std::string SweepCaseName(const testing::TestParamInfo<SweepCase>& info) {
  std::string name(info.param.site);
  for (char& c : name) {
    if (c == '.') c = '_';
  }
  name += info.param.kind == fault::FailureKind::kStatus ? "_status"
                                                         : "_bad_alloc";
  return name;
}

class FaultSweepTest : public testing::TestWithParam<SweepCase> {
 protected:
  void TearDown() override { fault::DisarmAll(); }
};

TEST_P(FaultSweepTest, ArmedTickRollsBackAndNextTickRecovers) {
  const SweepCase& param = GetParam();
  fault::DisarmAll();

  auto subject = FeedRuntime::Create(MakeSeedCollection(), SweepOptions());
  ASSERT_TRUE(subject.ok()) << subject.status().ToString();
  auto control = FeedRuntime::Create(MakeSeedCollection(), SweepOptions());
  ASSERT_TRUE(control.ok()) << control.status().ToString();

  // Identical warmup feeds; the two runtimes are in lockstep afterwards.
  Rng subject_rng(4242), control_rng(4242);
  for (int i = 0; i < kWarmupTicks; ++i) {
    ASSERT_TRUE(subject->Tick(MakeSnapshot(subject_rng)).ok());
    ASSERT_TRUE(control->Tick(MakeSnapshot(control_rng)).ok());
  }
  ExpectIdenticalRuntimes(*subject, *control);

  // The armed tick: the subject sees the snapshot and fails; the control
  // never sees it. Drawn from both rngs to keep them in lockstep for the
  // post-recovery snapshots.
  Snapshot doomed = MakeSnapshot(subject_rng);
  Snapshot doomed_copy = MakeSnapshot(control_rng);
  ASSERT_EQ(doomed.size(), doomed_copy.size());
  fault::Arm(param.site, /*nth_hit=*/1, param.kind);
  auto failed = subject->Tick(std::move(doomed));
  ASSERT_FALSE(failed.ok()) << "armed site " << param.site << " never fired";
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal)
      << failed.status().ToString();
  EXPECT_GE(fault::HitCount(param.site), 1u);
  fault::DisarmAll();

  // Rollback proof: bit-identical to the runtime that never saw it.
  ExpectIdenticalRuntimes(*subject, *control);

  // Recovery proof: the same snapshot, clean, converges both runtimes —
  // and the maintained search index is back at full-rebuild parity.
  Snapshot control_doomed = doomed_copy;
  ASSERT_TRUE(subject->Tick(std::move(doomed_copy)).ok());
  ASSERT_TRUE(control->Tick(std::move(control_doomed)).ok());
  Snapshot next_subject = MakeSnapshot(subject_rng);
  Snapshot next_control = MakeSnapshot(control_rng);
  ASSERT_TRUE(subject->Tick(std::move(next_subject)).ok());
  ASSERT_TRUE(control->Tick(std::move(next_control)).ok());
  ExpectIdenticalRuntimes(*subject, *control);
  ExpectIdenticalIndexes(subject->search_snapshot()->index,
                         RebuildReferenceSearchIndex(*subject));
}

INSTANTIATE_TEST_SUITE_P(AllSites, FaultSweepTest,
                         testing::ValuesIn(AllSweepCases()), SweepCaseName);

// The sweep configuration must actually route a tick through every
// registered site — otherwise the parameterized proof above passes
// vacuously for sites that never fire.
TEST(FaultRegistry, SweepConfigurationHitsEverySite) {
  fault::DisarmAll();
  auto runtime = FeedRuntime::Create(MakeSeedCollection(), SweepOptions());
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
  Rng rng(4242);
  for (int i = 0; i < kWarmupTicks + 1; ++i) {
    ASSERT_TRUE(runtime->Tick(MakeSnapshot(rng)).ok());
  }
  for (std::string_view site : fault::RegisteredSites()) {
    EXPECT_GE(fault::HitCount(site), 1u) << "site never hit: " << site;
  }
  fault::DisarmAll();
}

// runtime.publish fires after the next snapshot is fully built but before
// the publication swap: readers must stay on the exact old snapshot object
// (pointer identity, not merely equal contents — the failed tick's
// successor was dropped unpublished), and the next clean tick publishes a
// fresh successor exactly one generation up.
TEST(FaultRegistry, PublishFailureLeavesReadersOnOldSnapshot) {
  fault::DisarmAll();
  auto runtime = FeedRuntime::Create(MakeSeedCollection(), SweepOptions());
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
  Rng rng(99);
  for (int i = 0; i < kWarmupTicks; ++i) {
    ASSERT_TRUE(runtime->Tick(MakeSnapshot(rng)).ok());
  }
  const std::shared_ptr<const IndexSnapshot> before =
      runtime->search_snapshot();
  ASSERT_NE(before, nullptr);

  fault::Arm("runtime.publish", /*nth_hit=*/1);
  auto failed = runtime->Tick(MakeSnapshot(rng));
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(fault::HitCount("runtime.publish"), 1u);
  fault::DisarmAll();

  const std::shared_ptr<const IndexSnapshot> after = runtime->search_snapshot();
  EXPECT_EQ(after.get(), before.get());
  EXPECT_EQ(after->generation, before->generation);

  // The dropped successor leaks no generation number: the next clean tick
  // lands on exactly generation + 1.
  ASSERT_TRUE(runtime->Tick(MakeSnapshot(rng)).ok());
  const std::shared_ptr<const IndexSnapshot> recovered =
      runtime->search_snapshot();
  EXPECT_NE(recovered.get(), before.get());
  EXPECT_EQ(recovered->generation, before->generation + 1);
}

// Re-arming resets the counter; a later hit index delays the failure.
TEST(FaultRegistry, NthHitArmsOnTheNthHit) {
  fault::DisarmAll();
  fault::Arm("collection.append", /*nth_hit=*/3);
  auto collection = MakeSeedCollection();
  EXPECT_TRUE(collection.Append({}).ok());
  EXPECT_TRUE(collection.Append({}).ok());
  EXPECT_FALSE(collection.Append({}).ok());
  EXPECT_EQ(fault::HitCount("collection.append"), 3u);
  fault::DisarmAll();
}

}  // namespace
}  // namespace stburst

#endif  // STBURST_FAULT_INJECTION
