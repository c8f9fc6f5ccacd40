// Backtesting against the tiered long-horizon history (docs/ARCHITECTURE.md
// "Tiered history"): a windowed FeedRuntime folds everything its retention
// window evicts into an in-memory ColdTier, LongHorizonBaseline seeds each
// (term, stream) baseline from that tier, and ReplayRange re-runs a stored
// stretch of history against today's models.
//
// One run ingests a deterministic 40-week feed twice: through a runtime
// with an 8-week retention window and history_mode = kInMemory, and through
// an unwindowed control that keeps every week. Weeks 20..27 carry an
// injected burst of the term "flood" in the clustered streams — long gone
// from the hot window by the end of the run. The run then checks that
//   - every (term, stream) long-horizon baseline of the windowed runtime
//     (hot window + cold tier) is bit-identical to the control's baseline
//     over the full horizon, and
//   - ReplayRange over the tier's covered buckets rediscovers the "flood"
//     burst at bucket resolution,
// and exits nonzero on any miss.
//
// Run: ./build/examples/backtest

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "stburst/common/random.h"
#include "stburst/core/expected.h"
#include "stburst/history/cold_tier.h"
#include "stburst/history/long_horizon.h"
#include "stburst/history/replay.h"
#include "stburst/stream/feed_runtime.h"

using namespace stburst;

namespace {

constexpr size_t kStreams = 6;
constexpr size_t kBackgroundVocab = 40;
constexpr Timestamp kSeedWeeks = 4;
constexpr int kLiveWeeks = 40;
constexpr Timestamp kWindow = 8;
constexpr Timestamp kBucketWidth = 4;
constexpr int kBurstBegin = 20, kBurstEnd = 28;  // live-week span of the burst
constexpr uint64_t kCorpusSeed = 20120829;

TermId FloodTerm() { return static_cast<TermId>(kBackgroundVocab); }

Collection MakeSeedCollection(Timestamp timeline_length) {
  auto c = Collection::Create(timeline_length);
  if (!c.ok()) {
    std::fprintf(stderr, "Collection::Create: %s\n",
                 c.status().ToString().c_str());
    std::exit(1);
  }
  for (size_t s = 0; s < kStreams; ++s) {
    c->AddStream("city" + std::to_string(s), {},
                 Point2D{static_cast<double>(s % 3),
                         static_cast<double>(s / 3)});
  }
  Vocabulary* v = c->mutable_vocabulary();
  for (size_t t = 0; t < kBackgroundVocab; ++t) {
    v->Intern("term" + std::to_string(t));
  }
  v->Intern("flood");
  return std::move(*c);
}

// The week's snapshot is a pure function of the absolute week number, so
// the windowed runtime and its unwindowed control ingest identical feeds.
Snapshot WeekSnapshot(Timestamp week) {
  Rng rng(kCorpusSeed + static_cast<uint64_t>(week));
  Snapshot snap;
  for (StreamId s = 0; s < kStreams; ++s) {
    const size_t docs = 1 + rng.NextUint64(2);
    for (size_t d = 0; d < docs; ++d) {
      SnapshotDocument doc;
      doc.stream = s;
      const size_t len = 3 + rng.NextUint64(4);
      for (size_t i = 0; i < len; ++i) {
        doc.tokens.push_back(static_cast<TermId>(
            rng.NextUint64(kBackgroundVocab)));
      }
      const Timestamp live_week = week - kSeedWeeks;
      if (live_week >= kBurstBegin && live_week < kBurstEnd && s < 3) {
        doc.tokens.push_back(FloodTerm());
        doc.tokens.push_back(FloodTerm());
      }
      snap.push_back(std::move(doc));
    }
  }
  return snap;
}

size_t VocabSize() { return kBackgroundVocab + 1; }

// Every (term, stream) long-horizon baseline of `runtime`, in a fixed
// order. Without a tier this is the plain mean over the retained history.
std::vector<double> AllBaselines(const FeedRuntime& runtime) {
  LongHorizonBaseline baseline(runtime.history());
  std::vector<double> out;
  out.reserve(VocabSize() * kStreams);
  for (TermId t = 0; t < VocabSize(); ++t) {
    const TermSeries hot = runtime.index().DenseSeries(t);
    for (StreamId s = 0; s < kStreams; ++s) {
      // The seeded model's expectation one step past the hot window is the
      // mean over the FULL horizon, cold span included. The row's last
      // entry stands for that unseen step; E never reads it.
      const std::span<const double> hot_row = hot.StreamRow(s);
      std::vector<double> row(hot_row.begin(), hot_row.end());
      row.push_back(0.0);
      std::vector<double> expected(row.size());
      baseline.ModelFor(t, s)->Expected(row, expected);
      out.push_back(expected.back());
    }
  }
  return out;
}

// Seeds the first kSeedWeeks weeks, then ticks the 40 live weeks through a
// runtime with `opts`. Returns null after printing why on any failure.
std::unique_ptr<FeedRuntime> RunFeed(const FeedRuntimeOptions& opts) {
  Collection collection = MakeSeedCollection(kSeedWeeks);
  for (Timestamp w = 0; w < kSeedWeeks; ++w) {
    Snapshot snap = WeekSnapshot(w);
    for (SnapshotDocument& doc : snap) {
      if (!collection.AddDocument(doc.stream, w, std::move(doc.tokens)).ok()) {
        std::fprintf(stderr, "AddDocument week %d failed\n", w);
        return nullptr;
      }
    }
  }
  auto runtime = FeedRuntime::Create(std::move(collection), opts);
  if (!runtime.ok()) {
    std::fprintf(stderr, "FeedRuntime::Create: %s\n",
                 runtime.status().ToString().c_str());
    return nullptr;
  }
  for (int w = 0; w < kLiveWeeks; ++w) {
    const auto stats = runtime->Tick(WeekSnapshot(kSeedWeeks + w));
    if (!stats.ok()) {
      std::fprintf(stderr, "Tick week %d: %s\n", w,
                   stats.status().ToString().c_str());
      return nullptr;
    }
  }
  return std::make_unique<FeedRuntime>(std::move(*runtime));
}

}  // namespace

int main() {
  FeedRuntimeOptions windowed;
  windowed.num_threads = 2;
  windowed.retention_window = kWindow;
  windowed.history_mode = HistoryMode::kInMemory;
  windowed.history_bucket_width = kBucketWidth;
  FeedRuntimeOptions unwindowed;
  unwindowed.num_threads = 2;

  const std::unique_ptr<FeedRuntime> runtime = RunFeed(windowed);
  const std::unique_ptr<FeedRuntime> control = RunFeed(unwindowed);
  if (runtime == nullptr || control == nullptr) return 1;

  const ColdTier* tier = runtime->history();
  std::printf("backtest: %d live weeks, window_start=%d, tier covers "
              "[%d, %d)\n",
              kLiveWeeks, runtime->window_start(), tier->covered_start(),
              tier->folded_until());
  if (tier->folded_until() != runtime->window_start()) {
    std::fprintf(stderr, "tier watermark lags the window\n");
    return 1;
  }

  // Hot window + cold tier against the control's full horizon, bit for bit.
  const std::vector<double> got = AllBaselines(*runtime);
  const std::vector<double> want = AllBaselines(*control);
  size_t mismatches = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i]) {  // bit-exact, no tolerance
      if (++mismatches <= 5) {
        std::fprintf(stderr, "baseline %zu: tier-seeded %a != control %a\n",
                     i, got[i], want[i]);
      }
    }
  }
  if (mismatches != 0) {
    std::fprintf(stderr, "backtest: %zu/%zu baselines diverged\n", mismatches,
                 got.size());
    return 1;
  }
  std::printf("backtest: all %zu long-horizon baselines bit-identical to the "
              "unwindowed control\n",
              got.size());

  // The backtest proper: replay the cold span and rediscover the flood.
  auto replayed = ReplayRange(
      *tier, FloodTerm(), tier->bucket_lower_bound(),
      tier->bucket_upper_bound(),
      [] { return std::make_unique<GlobalMeanModel>(); });
  if (!replayed.ok()) {
    std::fprintf(stderr, "ReplayRange: %s\n",
                 replayed.status().ToString().c_str());
    return 1;
  }
  const auto burst_bucket_begin =
      static_cast<uint32_t>((kSeedWeeks + kBurstBegin) / kBucketWidth);
  bool found = false;
  for (const ReplayedInterval& interval : *replayed) {
    std::printf("backtest: \"flood\" bursty on stream %u over weeks "
                "[%u, %u) (score %.3f)\n",
                interval.stream,
                interval.bucket_begin * static_cast<uint32_t>(kBucketWidth),
                interval.bucket_end * static_cast<uint32_t>(kBucketWidth),
                interval.burstiness);
    found |= interval.stream < 3 &&
             interval.bucket_begin <= burst_bucket_begin &&
             interval.bucket_end > burst_bucket_begin;
  }
  if (!found) {
    std::fprintf(stderr, "backtest: injected burst not found in the tier\n");
    return 1;
  }
  return 0;
}
