// Backtesting against the tiered long-horizon history (docs/STORAGE.md,
// docs/ARCHITECTURE.md "Tiered history"): a windowed FeedRuntime folds
// everything the retention window evicts into an mmap-backed ColdTier, a
// later process reopens that file and recovers the full-horizon baselines
// without replaying the cold span, and ReplayRange re-runs a stored
// stretch of history against today's models.
//
// Two phases, runnable as separate processes (the CI ASan + UBSan job does
// exactly that, so the recovery crosses a real process boundary):
//
//   backtest write <tier_path>
//     Ingest a deterministic 40-week feed through a FeedRuntime with an
//     8-week retention window and history_mode = kMmap. Weeks 20..27 carry
//     an injected burst of the term "flood" in the clustered streams —
//     long gone from the hot window by the end of the run. Alongside the
//     tier the phase writes `<tier_path>.expected`: every (term, stream)
//     long-horizon baseline (hot + cold, printed as hexfloats so the
//     comparison is bit-exact).
//
//   backtest recover <tier_path>
//     Rebuild ONLY the hot window (the last 8 weeks, regenerated — the
//     cold 32 weeks are never replayed), re-attach the runtime to the
//     tier file, and recompute every baseline through LongHorizonBaseline.
//     Any bit of divergence from `<tier_path>.expected` exits nonzero.
//     Then the backtest proper: ReplayRange over the cold span must
//     rediscover the "flood" burst at bucket resolution, and one more
//     live tick must keep folding where the previous process stopped.
//     The restarted runtime works on a copy, `<tier_path>.restart`, so
//     that tick publishes there: the written tier stays as `write` left
//     it, and `recover` can be run again with the same result.
//
// With no arguments both phases run in sequence against a path under the
// system temp directory.
//
// Run: ./build/examples/backtest [write|recover <tier_path>]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
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
// the write and recover processes regenerate identical hot windows without
// sharing any state but this source file.
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

FeedRuntimeOptions RuntimeOptions(const std::string& tier_path) {
  FeedRuntimeOptions opts;
  opts.num_threads = 2;
  opts.retention_window = kWindow;
  opts.history_mode = HistoryMode::kMmap;
  opts.history_bucket_width = kBucketWidth;
  opts.history_path = tier_path;
  return opts;
}

size_t VocabSize() { return kBackgroundVocab + 1; }

// Every (term, stream) long-horizon baseline of `runtime`, in a fixed
// order. These are the values a restart must reproduce bit-for-bit.
std::vector<double> AllBaselines(const FeedRuntime& runtime) {
  LongHorizonBaseline baseline(runtime.history());
  std::vector<double> out;
  out.reserve(VocabSize() * kStreams);
  for (TermId t = 0; t < VocabSize(); ++t) {
    const TermSeries hot = runtime.index().DenseSeries(t);
    for (StreamId s = 0; s < kStreams; ++s) {
      auto model = baseline.ModelFor(t, s);
      // Feed the hot window through the seeded model: Expected() is then
      // the mean over the FULL horizon, cold span included.
      for (double y : hot.StreamRow(s)) model->Observe(y);
      out.push_back(model->Expected());
    }
  }
  return out;
}

int RunWrite(const std::string& tier_path) {
  std::remove(tier_path.c_str());
  Collection collection = MakeSeedCollection(kSeedWeeks);
  for (Timestamp w = 0; w < kSeedWeeks; ++w) {
    Snapshot snap = WeekSnapshot(w);
    for (SnapshotDocument& doc : snap) {
      if (!collection.AddDocument(doc.stream, w, std::move(doc.tokens)).ok()) {
        return 1;
      }
    }
  }
  auto runtime = FeedRuntime::Create(std::move(collection),
                                     RuntimeOptions(tier_path));
  if (!runtime.ok()) {
    std::fprintf(stderr, "FeedRuntime::Create: %s\n",
                 runtime.status().ToString().c_str());
    return 1;
  }
  size_t folded_total = 0;
  for (int w = 0; w < kLiveWeeks; ++w) {
    auto stats = runtime->Tick(WeekSnapshot(kSeedWeeks + w));
    if (!stats.ok()) {
      std::fprintf(stderr, "Tick week %d: %s\n", w,
                   stats.status().ToString().c_str());
      return 1;
    }
    folded_total += stats->folded_terms;
  }
  const ColdTier* tier = runtime->history();
  std::printf("write: %d live weeks, window_start=%d, tier covers [%d, %d), "
              "%zu term-folds\n",
              kLiveWeeks, runtime->window_start(), tier->covered_start(),
              tier->folded_until(), folded_total);
  if (tier->folded_until() != runtime->window_start()) {
    std::fprintf(stderr, "tier watermark lags the window\n");
    return 1;
  }

  const std::string expected_path = tier_path + ".expected";
  std::FILE* f = std::fopen(expected_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", expected_path.c_str());
    return 1;
  }
  std::fprintf(f, "window_start %d\n", runtime->window_start());
  const std::vector<double> baselines = AllBaselines(*runtime);
  for (double b : baselines) std::fprintf(f, "%a\n", b);
  std::fclose(f);
  std::printf("write: %zu baselines -> %s\n", baselines.size(),
              expected_path.c_str());
  return 0;
}

int RunRecover(const std::string& tier_path) {
  // Read back what the writing process promised.
  const std::string expected_path = tier_path + ".expected";
  std::FILE* f = std::fopen(expected_path.c_str(), "r");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot read %s (run `backtest write` first)\n",
                 expected_path.c_str());
    return 1;
  }
  int window_start = 0;
  if (std::fscanf(f, "window_start %d\n", &window_start) != 1) {
    std::fclose(f);
    std::fprintf(stderr, "malformed %s\n", expected_path.c_str());
    return 1;
  }
  std::vector<double> want;
  char token[80];
  while (std::fscanf(f, "%79s", token) == 1) {
    want.push_back(std::strtod(token, nullptr));
  }
  std::fclose(f);

  // Restart on a copy of the tier: the post-restart tick below publishes a
  // new generation into the file it was opened on.
  const std::string restart_path = tier_path + ".restart";
  std::error_code copy_error;
  std::filesystem::copy_file(tier_path, restart_path,
                             std::filesystem::copy_options::overwrite_existing,
                             copy_error);
  if (copy_error) {
    std::fprintf(stderr, "cannot copy %s to %s: %s\n", tier_path.c_str(),
                 restart_path.c_str(), copy_error.message().c_str());
    return 1;
  }

  // Rebuild the hot window only: Create(window_start) leaves the cold span
  // as empty timestamps that are immediately evicted — no replay.
  Collection hot = MakeSeedCollection(window_start);
  for (Timestamp w = window_start; w < kSeedWeeks + kLiveWeeks; ++w) {
    if (!hot.Append(WeekSnapshot(w)).ok()) return 1;
  }
  auto runtime = FeedRuntime::Create(std::move(hot),
                                     RuntimeOptions(restart_path));
  if (!runtime.ok()) {
    std::fprintf(stderr, "restart FeedRuntime::Create: %s\n",
                 runtime.status().ToString().c_str());
    return 1;
  }
  if (runtime->window_start() != window_start) {
    std::fprintf(stderr, "restart window_start %d != written %d\n",
                 runtime->window_start(), window_start);
    return 1;
  }

  const std::vector<double> got = AllBaselines(*runtime);
  if (got.size() != want.size()) {
    std::fprintf(stderr, "baseline count %zu != written %zu\n", got.size(),
                 want.size());
    return 1;
  }
  size_t mismatches = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i]) {  // bit-exact, no tolerance
      if (++mismatches <= 5) {
        std::fprintf(stderr, "baseline %zu: recovered %a != written %a\n", i,
                     got[i], want[i]);
      }
    }
  }
  if (mismatches != 0) {
    std::fprintf(stderr, "recover: %zu/%zu baselines diverged\n", mismatches,
                 got.size());
    return 1;
  }
  std::printf("recover: all %zu baselines bit-identical after restart\n",
              got.size());

  // The backtest proper: replay the cold span and rediscover the flood.
  const ColdTier* tier = runtime->history();
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
    std::printf("recover: \"flood\" bursty on stream %u over weeks "
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
    std::fprintf(stderr, "recover: injected burst not found in the tier\n");
    return 1;
  }

  // And the tier keeps growing where the previous process stopped.
  const Timestamp before = tier->folded_until();
  auto stats = runtime->Tick(WeekSnapshot(kSeedWeeks + kLiveWeeks));
  if (!stats.ok() || runtime->history()->folded_until() != before + 1) {
    std::fprintf(stderr, "recover: post-restart tick did not fold\n");
    return 1;
  }
  std::printf("recover: post-restart tick folded %zu terms, tier now "
              "covers [%d, %d)\n",
              stats->folded_terms, runtime->history()->covered_start(),
              runtime->history()->folded_until());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "write") == 0) {
    return RunWrite(argv[2]);
  }
  if (argc == 3 && std::strcmp(argv[1], "recover") == 0) {
    return RunRecover(argv[2]);
  }
  if (argc == 1) {
    const char* tmp = std::getenv("TMPDIR");
    const std::string path =
        std::string(tmp != nullptr ? tmp : "/tmp") + "/stburst_backtest.tier";
    const int write_rc = RunWrite(path);
    return write_rc != 0 ? write_rc : RunRecover(path);
  }
  std::fprintf(stderr, "usage: %s [write|recover <tier_path>]\n", argv[0]);
  return 2;
}
