// bench_e2e — end-to-end benchmark of the live-feed mining system.
//
// One process runs one workload against the library's public API only, so
// every layer is measured from outside, and writes a result file (raw
// latency samples, work counters, check outcome) that bench/e2e/run.py turns
// into metrics. The workloads, and why each exists, are described in
// bench/e2e/README.md:
//
//   live_tick         closed-loop catch-up feed of evicting ticks
//   search_open_loop  open-loop queries beside append-only ticks
//   batch_mine        whole-vocabulary analytics over a fixed collection
//
// Every input comes from --seed S: the history corpus from S, the live
// corpus from S+1 (rendered to text and tokenized on ingest), the query mix
// from S+2. Outputs are checked against from-scratch references; any
// mismatch counts as a failed operation and makes the exit code nonzero.
//
// Usage:
//   bench_e2e --workload W --seed S --seconds N --out RESULT.json
//             [--trace TRACE.json] [--smoke]
//
// --trace keeps one span per public call in memory (name, start, end,
// parent, request id) and writes them at exit. --smoke shrinks the corpus
// vocabulary and the run to seconds, to catch harness rot.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "stburst/common/random.h"
#include "stburst/common/string_util.h"
#include "stburst/core/batch_miner.h"
#include "stburst/core/expected.h"
#include "stburst/core/stcomb.h"
#include "stburst/core/stlocal.h"
#include "stburst/gen/major_events.h"
#include "stburst/gen/topix_sim.h"
#include "stburst/index/search_engine.h"
#include "stburst/index/threshold_algorithm.h"
#include "stburst/stream/feed_runtime.h"
#include "stburst/stream/tokenizer.h"

namespace stburst {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kTopK = 10;
constexpr size_t kQueryPool = 16384;
// Share of query terms drawn from the Major Events queries; the rest are
// background terms at log-uniform rank (structure, not uniform ids).
constexpr double kEventTermShare = 0.3;
constexpr size_t kRefreshBudget = 64;
// Every runtime and mining sweep runs serially, the library's default
// (FeedRuntimeOptions::num_threads). On the 2-vCPU reference host a second
// worker made a regional sweep 1.45x faster, but its sweeps then ranged over
// 19% where serial ones ranged over 2%: the spare vCPU's speed is the
// host's, not the program's.
constexpr size_t kWorkerThreads = 1;
constexpr int kSetupReps = 3;
// batch_mine's set-up round (load + index build) takes ~0.2 s, and the
// first one in a process pays for fresh pages: the median of several
// repeats what the rest cost.
constexpr int kLoadReps = 7;
// A window as long as the history: every live tick evicts one week.
constexpr Timestamp kEvictingWindow = kTopixWeeks;
// A window no run outgrows: every live tick is append-only.
constexpr Timestamp kRoomyWindow = kTopixWeeks + 4096;
// live_tick and batch_mine do a fixed amount of work sized from --seconds
// (what takes that long on the reference 2-core host), so a faster build
// does the same work in less time rather than more work, and every count
// repeats exactly for a seed. At the default 24 s: 16 ticks, 1 pass.
constexpr double kLiveTickSeconds = 1.5;
constexpr double kBatchPassSeconds = 20.0;
constexpr int64_t kSmokeTicks = 4;
// search_open_loop: one live week every kTickPeriodS; queries at a base and
// a peak rate, and closed-loop.
constexpr double kTickPeriodS = 2.0;
constexpr double kBaseQps = 2000.0;
constexpr double kPeakQps = 8000.0;
constexpr size_t kCheckEvery = 256;  // open-loop answers re-checked
// Check sizes: searches re-checked by the live audit, and the stride of the
// terms batch_mine checks against the standalone miners.
constexpr size_t kAuditQueries = 256;
constexpr size_t kAuditTermStride = 100;
constexpr size_t kStandardVocab = 20000;
constexpr size_t kSmokeVocab = 2000;
constexpr double kExpectedPriorFloor = 0.2;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
double Millis(Clock::time_point from, Clock::time_point to) {
  return Seconds(from, to) * 1e3;
}
double Micros(Clock::time_point from, Clock::time_point to) {
  return Seconds(from, to) * 1e6;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// ------------------------------------------------------------------ tracing

// In-memory span recorder. Spans stay in memory until exit and are written
// once, so a span costs two clock reads and two uncontended lock round trips
// and no I/O on the measured path; with tracing off each call is one branch.
class Tracer {
 public:
  Tracer(bool enabled, Clock::time_point origin)
      : enabled_(enabled), origin_(origin) {
    if (enabled_) spans_.reserve(1 << 20);
  }

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span at `start` (a request's due time, or now); returns its id
  /// for End and for children's `parent`, -1 when tracing is off.
  int64_t Begin(const char* name, int64_t parent, int64_t request,
                Clock::time_point start) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, Ns(start), -1, parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  int64_t Begin(const char* name, int64_t parent, int64_t request) {
    return enabled_ ? Begin(name, parent, request, Clock::now()) : -1;
  }

  void End(int64_t span, Clock::time_point end) {
    if (span < 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(span)].end_ns = Ns(end);
  }
  void End(int64_t span) {
    if (span >= 0) End(span, Clock::now());
  }

  /// {"names": [...], "spans": [[name, start_ns, end_ns, parent, request]]}
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::map<std::string, size_t> ids;
    std::vector<std::string> names;
    for (const Span& s : spans_) {
      if (ids.emplace(s.name, names.size()).second) names.push_back(s.name);
    }
    std::fprintf(f, "{\"names\": [");
    for (size_t i = 0; i < names.size(); ++i) {
      std::fprintf(f, "%s\"%s\"", i ? ", " : "", names[i].c_str());
    }
    std::fprintf(f, "],\n\"spans\": [");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%s\n[%zu, %lld, %lld, %lld, %lld]", i ? "," : "",
                   ids.at(s.name), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.request));
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t parent;
    int64_t request;
  };

  int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  const bool enabled_;
  const Clock::time_point origin_;
  std::mutex mu_;  // guards spans_
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t parent, int64_t request)
      : tracer_(tracer), id_(tracer->Begin(name, parent, request)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t id_;
};

// ------------------------------------------------------------------- report

// Everything one run measured. attempted/failed are touched by the ticker
// and query threads of search_open_loop, hence atomic; the rest is written
// by one thread at a time.
struct Report {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool smoke = false;

  std::atomic<size_t> attempted{0};
  std::atomic<size_t> failed{0};
  std::mutex failures_mu;  // guards failures
  std::vector<std::string> failures;

  std::vector<double> setup_s;     // one per set-up repetition
  std::vector<double> latency_ms;  // the workload's user-facing operation
  // One rate per tick, closed-loop slot or pass; run.py reports the median,
  // so a host stall costs one sample instead of a share of a run-wide mean.
  std::vector<double> throughput_per_s;
  std::string throughput_unit;
  // Read when the measured phase ends, before the checks build their
  // from-scratch references: ru_maxrss is a high-water mark.
  double rss_peak_mb = 0.0;
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> counters;

  void Fail(const std::string& what) {
    failed.fetch_add(1);
    std::fprintf(stderr, "bench_e2e: FAILED: %s\n", what.c_str());
    std::lock_guard<std::mutex> lock(failures_mu);
    if (failures.size() < 32) failures.push_back(what);
  }
  void Attempt(size_t n = 1) { attempted.fetch_add(n); }
};

void WriteArray(std::FILE* f, const std::vector<double>& values) {
  std::fprintf(f, "[");
  for (size_t i = 0; i < values.size(); ++i) {
    std::fprintf(f, "%s%.9g", i ? ", " : "", values[i]);
  }
  std::fprintf(f, "]");
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

bool WriteReport(const Report& r, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"workload\": %s, \"seed\": %llu, \"seconds\": %.9g,\n",
               JsonString(r.workload).c_str(),
               static_cast<unsigned long long>(r.seed), r.seconds);
  std::fprintf(f, "\"smoke\": %s,\n", r.smoke ? "true" : "false");
  std::fprintf(f, "\"attempted\": %zu, \"failed\": %zu, \"failures\": [",
               r.attempted.load(), r.failed.load());
  for (size_t i = 0; i < r.failures.size(); ++i) {
    std::fprintf(f, "%s%s", i ? ", " : "", JsonString(r.failures[i]).c_str());
  }
  std::fprintf(f, "],\n\"setup_s\": ");
  WriteArray(f, r.setup_s);
  std::fprintf(f, ",\n\"latency_ms\": ");
  WriteArray(f, r.latency_ms);
  std::fprintf(f, ",\n\"throughput_per_s\": ");
  WriteArray(f, r.throughput_per_s);
  std::fprintf(f,
               ", \"throughput_unit\": %s, \"rss_peak_mb\": %.9g,\n"
               "\"samples\": {",
               JsonString(r.throughput_unit).c_str(), r.rss_peak_mb);
  bool first = true;
  for (const auto& [name, values] : r.samples) {
    std::fprintf(f, "%s\n%s: ", first ? "" : ",", JsonString(name).c_str());
    WriteArray(f, values);
    first = false;
  }
  std::fprintf(f, "},\n\"counters\": {");
  first = true;
  for (const auto& [name, value] : r.counters) {
    std::fprintf(f, "%s\n%s: %.9g", first ? "" : ",", JsonString(name).c_str(),
                 value);
    first = false;
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

// ------------------------------------------------------------------- inputs

struct LiveDoc {
  StreamId stream = kInvalidStream;
  std::string text;
};

struct Inputs {
  Collection history;                       // seed S, time-ordered
  std::vector<std::vector<LiveDoc>> weeks;  // seed S+1, as raw text
  std::vector<std::vector<TermId>> queries;  // seed S+2, history TermIds
  std::vector<Point2D> positions;
};

// The standard corpus shape every harness in the repository shares: 181
// streams, 48 weeks, ~150k documents. Copied from bench/bench_common.h
// rather than included, so this benchmark's inputs change only with files
// under bench/e2e.
TopixOptions CorpusOptions(uint64_t seed, size_t background_vocab) {
  TopixOptions o;
  o.seed = seed;
  o.mean_docs_per_week = 6.0;
  o.background_vocab = background_vocab;
  o.use_mds = true;
  return o;
}

// The simulator files documents stream by stream; a real history arrives in
// time order, which is what lets eviction keep DocIds (the fast path every
// Append-driven feed takes). Streams, vocabulary ids and per-timestamp
// document order are preserved.
StatusOr<Collection> TimeOrdered(const Collection& corpus) {
  STB_ASSIGN_OR_RETURN(Collection out,
                       Collection::Create(corpus.timeline_length()));
  for (const StreamInfo& s : corpus.streams()) {
    out.AddStream(s.name, s.geo, s.position);
  }
  for (size_t t = 0; t < corpus.vocabulary().size(); ++t) {
    out.mutable_vocabulary()->Intern(
        corpus.vocabulary().TermOf(static_cast<TermId>(t)));
  }
  std::vector<size_t> order(corpus.num_documents());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return corpus.documents()[a].time < corpus.documents()[b].time;
  });
  for (size_t i : order) {
    const Document& d = corpus.documents()[i];
    STB_RETURN_NOT_OK(
        out.AddDocument(d.stream, d.time, d.tokens, d.event_id).status());
  }
  return out;
}

// Pre-drawn 2-term queries: each term is a Major Events query term with
// probability kEventTermShare (long, bursty posting lists), otherwise a
// background term at log-uniform Zipf rank (head and tail alike).
std::vector<std::vector<TermId>> DrawQueries(const Vocabulary& vocab,
                                             size_t background_vocab,
                                             uint64_t seed) {
  Tokenizer tokenizer;
  std::vector<TermId> event_terms;
  for (const MajorEvent& event : MajorEventsList()) {
    for (TermId t : tokenizer.TokenizeFrozen(event.query, vocab)) {
      event_terms.push_back(t);
    }
  }
  std::sort(event_terms.begin(), event_terms.end());
  event_terms.erase(std::unique(event_terms.begin(), event_terms.end()),
                    event_terms.end());
  Rng rng(seed);
  const double log_vocab = std::log(static_cast<double>(background_vocab));
  auto draw = [&]() -> TermId {
    if (rng.Bernoulli(kEventTermShare)) {
      return event_terms[rng.NextUint64(event_terms.size())];
    }
    size_t rank =
        static_cast<size_t>(std::exp(rng.NextDouble() * log_vocab)) - 1;
    rank = std::min(rank, background_vocab - 1);
    return vocab.Lookup(StringPrintf("bg%04zu", rank));
  };
  std::vector<std::vector<TermId>> queries;
  queries.reserve(kQueryPool);
  while (queries.size() < kQueryPool) {
    const TermId a = draw();
    TermId b = draw();
    while (b == a) b = draw();
    queries.push_back({a, b});
  }
  return queries;
}

StatusOr<Inputs> MakeInputs(uint64_t seed, size_t background_vocab) {
  STB_ASSIGN_OR_RETURN(
      TopixSimulator history_sim,
      TopixSimulator::Generate(CorpusOptions(seed, background_vocab)));
  STB_ASSIGN_OR_RETURN(Collection history,
                       TimeOrdered(history_sim.collection()));
  STB_ASSIGN_OR_RETURN(
      TopixSimulator live_sim,
      TopixSimulator::Generate(CorpusOptions(seed + 1, background_vocab)));
  const Collection& live = live_sim.collection();
  std::vector<std::vector<LiveDoc>> weeks(
      static_cast<size_t>(live.timeline_length()));
  for (const Document& d : live.documents()) {
    std::string text;
    for (TermId t : d.tokens) {
      if (!text.empty()) text += ' ';
      text += live.vocabulary().TermOf(t);
    }
    weeks[static_cast<size_t>(d.time)].push_back({d.stream, std::move(text)});
  }
  std::vector<std::vector<TermId>> queries =
      DrawQueries(history.vocabulary(), background_vocab, seed + 2);
  for (const auto& q : queries) {
    for (TermId t : q) {
      if (t == kInvalidTerm) {
        return Status::Internal("query term missing from the vocabulary");
      }
    }
  }
  std::vector<Point2D> positions = history.StreamPositions();
  return Inputs{std::move(history), std::move(weeks), std::move(queries),
                std::move(positions)};
}

// ---------------------------------------------------------------- the system

ExpectedModelFactory MeanFactory() {
  return WithPriorFloor([] { return std::make_unique<GlobalMeanModel>(); },
                        kExpectedPriorFloor);
}

StCombOptions CombOptions() {
  StCombOptions o;
  o.min_interval_burstiness = 0.1;
  return o;
}

BatchMinerOptions CombinatorialMining() {
  BatchMinerOptions o;
  o.stcomb = CombOptions();
  o.num_threads = kWorkerThreads;
  return o;
}

BatchMinerOptions RegionalMining(const std::vector<Point2D>& positions) {
  BatchMinerOptions o;
  o.mine_combinatorial = false;
  o.mine_regional = true;
  o.positions = positions;
  o.model_factory = MeanFactory();
  o.num_threads = kWorkerThreads;
  return o;
}

FeedRuntimeOptions RuntimeOptions(Timestamp window) {
  FeedRuntimeOptions o;
  o.miner.stcomb = CombOptions();
  o.num_threads = kWorkerThreads;
  o.retention_window = window;
  o.refresh_budget = kRefreshBudget;
  o.search_serving = SearchServing::kCombinatorial;
  o.history_mode = HistoryMode::kInMemory;
  o.history_bucket_width = 4;
  return o;
}

// Set-up: kSetupReps FeedRuntime::Create calls over the history (one
// runtime alive at a time); the last one is kept for the run.
std::optional<FeedRuntime> CreateRuntime(const Collection& history,
                                         const FeedRuntimeOptions& options,
                                         Tracer* tracer, Report* report) {
  std::optional<FeedRuntime> runtime;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Collection copy = history;
    runtime.reset();
    report->Attempt();
    const int64_t span =
        tracer->Begin("stream.feed_runtime.create", -1, rep);
    const auto start = Clock::now();
    StatusOr<FeedRuntime> created = FeedRuntime::Create(std::move(copy), options);
    const auto end = Clock::now();
    tracer->End(span, end);
    report->setup_s.push_back(Seconds(start, end));
    if (!created.ok()) {
      report->Fail("FeedRuntime::Create: " + created.status().ToString());
      return std::nullopt;
    }
    runtime.emplace(std::move(created).value());
  }
  return runtime;
}

// batch_mine's set-up: kLoadReps rounds of loading the corpus into a
// Collection through the public ingest calls (Create, AddStream, Intern,
// AddDocument) and building its FrequencyIndex; the last index is mined.
std::optional<FrequencyIndex> LoadAndIndex(const Collection& corpus,
                                           Tracer* tracer, Report* report) {
  std::optional<FrequencyIndex> index;
  for (int rep = 0; rep < kLoadReps; ++rep) {
    index.reset();
    report->Attempt();
    const int64_t root = tracer->Begin("batch.setup", -1, rep);
    const auto start = Clock::now();
    StatusOr<Collection> collection = [&] {
      ScopedSpan span(tracer, "core.collection.load", root, rep);
      return TimeOrdered(corpus);
    }();
    if (!collection.ok()) {
      tracer->End(root);
      report->Fail("loading the corpus: " + collection.status().ToString());
      return std::nullopt;
    }
    {
      ScopedSpan span(tracer, "stream.frequency.build", root, rep);
      index.emplace(FrequencyIndex::Build(*collection, kWorkerThreads));
    }
    const auto end = Clock::now();
    tracer->End(root, end);
    report->setup_s.push_back(Seconds(start, end));
  }
  return index;
}

TopKResult TracedSearch(const FeedRuntime& runtime,
                        const std::vector<TermId>& query, Tracer* tracer,
                        int64_t parent, int64_t request) {
  ScopedSpan span(tracer, "index.threshold_algorithm.search", parent, request);
  return runtime.Search(query, kTopK);
}

// TA work over every Search call of one thread.
struct SearchCounters {
  size_t queries = 0;
  size_t sorted_accesses = 0;
  size_t random_accesses = 0;
  size_t early_terminated = 0;

  void Add(const TopKResult& r) {
    ++queries;
    sorted_accesses += r.sorted_accesses;
    random_accesses += r.random_accesses;
    early_terminated += r.early_terminated ? 1 : 0;
  }
  void Merge(const SearchCounters& o) {
    queries += o.queries;
    sorted_accesses += o.sorted_accesses;
    random_accesses += o.random_accesses;
    early_terminated += o.early_terminated;
  }
  void Emit(Report* report) const {
    const double n = static_cast<double>(std::max<size_t>(queries, 1));
    report->counters["index.threshold_algorithm.sorted_accesses"] =
        static_cast<double>(sorted_accesses) / n;
    report->counters["index.threshold_algorithm.random_accesses"] =
        static_cast<double>(random_accesses) / n;
    report->counters["index.threshold_algorithm.early_terminated_pct"] =
        100.0 * static_cast<double>(early_terminated) / n;
    report->counters["index.threshold_algorithm.queries"] =
        static_cast<double>(queries);
  }
};

// What one live tick did, as the feed observed it.
struct TickRecord {
  bool committed = false;
  double freshness_ms = 0.0;  // text handed over -> probe visible
  size_t refresh_candidates = 0;
  FeedTickStats stats;
  TopKResult probe;
};

// The writer side every workload shares. Tick hands one live week's text,
// plus a probe document carrying a never-seen token, to the runtime at its
// due time, drives the phase-split tick (each phase its own span), and
// searches for the probe: freshness ends when a Search returns it.
class LiveFeed {
 public:
  LiveFeed(FeedRuntime* runtime, const Inputs& inputs, uint64_t seed,
           Tracer* tracer, Report* report)
      : runtime_(runtime),
        inputs_(inputs),
        seed_(seed),
        tracer_(tracer),
        report_(report) {}

  TickRecord Tick(int64_t tick, Clock::time_point due) {
    TickRecord rec;
    report_->Attempt();
    const int64_t root = tracer_->Begin("feed.tick", -1, tick, due);
    Snapshot snapshot;
    TermId probe_term = kInvalidTerm;
    {
      ScopedSpan span(tracer_, "stream.tokenizer.tokenize", root, tick);
      const std::vector<LiveDoc>& week =
          inputs_.weeks[static_cast<size_t>(tick) % inputs_.weeks.size()];
      Vocabulary* vocab = runtime_->mutable_vocabulary();
      snapshot.reserve(week.size() + 1);
      for (const LiveDoc& doc : week) {
        snapshot.push_back({doc.stream, tokenizer_.Tokenize(doc.text, vocab)});
      }
      const std::string probe_text =
          StringPrintf("probe%llus%lldt", static_cast<unsigned long long>(seed_),
                       static_cast<long long>(tick));
      SnapshotDocument probe{
          static_cast<StreamId>(static_cast<size_t>(tick) * 7 %
                                runtime_->collection().num_streams()),
          tokenizer_.Tokenize(probe_text, vocab)};
      if (probe.tokens.size() == 1) probe_term = probe.tokens[0];
      snapshot.push_back(std::move(probe));
    }

    StatusOr<FeedRuntime::TickTransaction> tx = [&] {
      ScopedSpan span(tracer_, "stream.feed_runtime.prepare", root, tick);
      return runtime_->PrepareTickIngest(std::move(snapshot));
    }();
    if (!tx.ok()) {
      tracer_->End(root);
      report_->Fail("PrepareTickIngest: " + tx.status().ToString());
      return rec;
    }
    std::vector<TermId> targets;
    {
      ScopedSpan span(tracer_, "stream.feed_runtime.refresh_select", root,
                      tick);
      std::vector<RefreshCandidate> candidates = runtime_->RefreshCandidates(*tx);
      rec.refresh_candidates = candidates.size();
      targets = FeedRuntime::SelectRefreshTargets(std::move(candidates),
                                                  kRefreshBudget);
    }
    Status staged;
    {
      ScopedSpan span(tracer_, "stream.feed_runtime.stage", root, tick);
      staged = runtime_->StageTickDerived(&*tx, std::move(targets));
    }
    if (!staged.ok()) {
      runtime_->AbortTick(std::move(*tx));
      tracer_->End(root);
      report_->Fail("StageTickDerived: " + staged.ToString());
      return rec;
    }
    StatusOr<FeedTickStats> stats = [&] {
      ScopedSpan span(tracer_, "stream.feed_runtime.commit", root, tick);
      return runtime_->CommitTick(std::move(*tx));
    }();
    if (!stats.ok()) {
      tracer_->End(root);
      report_->Fail("CommitTick: " + stats.status().ToString());
      return rec;
    }
    rec.stats = *stats;
    rec.committed = true;

    report_->Attempt();
    rec.probe = TracedSearch(*runtime_, {probe_term}, tracer_, root, tick);
    const auto end = Clock::now();
    tracer_->End(root, end);
    rec.freshness_ms = Millis(due, end);
    bool found = false;
    for (const ScoredDoc& d : rec.probe.docs) {
      const std::vector<TermId>& tokens =
          runtime_->collection().document(d.doc).tokens;
      if (tokens.size() == 1 && tokens[0] == probe_term) found = true;
    }
    if (!found) {
      report_->Fail(StringPrintf("tick %lld: probe document not visible",
                                 static_cast<long long>(tick)));
    }
    return rec;
  }

 private:
  FeedRuntime* runtime_;
  const Inputs& inputs_;
  const uint64_t seed_;
  Tracer* tracer_;
  Report* report_;
  Tokenizer tokenizer_;
};

// Tick work counters, summed over the run's ticks.
void CountTick(const TickRecord& rec, Report* report) {
  auto& c = report->counters;
  c["stream.feed_runtime.dirty_terms"] +=
      static_cast<double>(rec.stats.dirty_terms);
  c["stream.feed_runtime.refresh_candidates"] +=
      static_cast<double>(rec.refresh_candidates);
  c["stream.feed_runtime.refreshed_terms"] +=
      static_cast<double>(rec.stats.refreshed_terms);
  c["stream.feed_runtime.search_terms"] +=
      static_cast<double>(rec.stats.search_terms);
  c["history.cold_tier.folded_terms"] +=
      static_cast<double>(rec.stats.folded_terms);
  c["stream.feed_runtime.ticks"] += 1.0;
}

// State-size gauges, read after the last tick.
void RecordGauges(const FeedRuntime& runtime, Report* report) {
  auto& c = report->counters;
  c["stream.frequency.postings_mb"] =
      static_cast<double>(runtime.index().PostingsMemoryBytes()) / 1e6;
  c["index.inverted_index.search_postings"] =
      static_cast<double>(runtime.search_snapshot()->index.total_postings());
  size_t patterns = 0;
  for (const TermPatterns& slot : runtime.result().terms) {
    patterns += slot.combinatorial.size();
  }
  c["core.batch_miner.standing_patterns"] = static_cast<double>(patterns);
}

void CountMining(const BatchMineResult& combinatorial,
                 const BatchMineResult& regional, Report* report) {
  auto& c = report->counters;
  size_t patterns = 0;
  size_t windows = 0;
  for (const TermPatterns& s : combinatorial.terms) {
    patterns += s.combinatorial.size();
  }
  for (const TermPatterns& s : regional.terms) windows += s.regional.size();
  c["core.batch_miner.terms_mined"] =
      static_cast<double>(combinatorial.terms_mined);
  c["core.batch_miner.combinatorial_patterns"] = static_cast<double>(patterns);
  c["core.batch_miner.regional_windows"] = static_cast<double>(windows);
}

void CountThreads(size_t threads_used, Report* report) {
  double& c = report->counters["common.parallel.threads_used"];
  c = std::max(c, static_cast<double>(threads_used));
}

// ------------------------------------------------------------------- checks

// Element-wise equal streams and timeframes, and scores within `tolerance`
// (relative); 0 demands bit-identical scores.
template <typename Pattern>
bool SamePatterns(const std::vector<Pattern>& a, const std::vector<Pattern>& b,
                  double tolerance = 0.0) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].streams != b[i].streams ||
        a[i].timeframe.start != b[i].timeframe.start ||
        a[i].timeframe.end != b[i].timeframe.end ||
        std::abs(a[i].score - b[i].score) >
            tolerance * std::max(1.0, std::abs(b[i].score))) {
      return false;
    }
  }
  return true;
}

// Patterns in a score-independent order, so two lists that differ only in
// how last-ulp score differences ordered their ties compare equal.
std::vector<CombinatorialPattern> ByContent(
    std::vector<CombinatorialPattern> patterns) {
  std::sort(patterns.begin(), patterns.end(),
            [](const CombinatorialPattern& x, const CombinatorialPattern& y) {
              return std::tie(x.streams, x.timeframe.start, x.timeframe.end) <
                     std::tie(y.streams, y.timeframe.start, y.timeframe.end);
            });
  return patterns;
}

bool SamePostings(const FrequencyIndex& a, const FrequencyIndex& b) {
  if (a.num_terms() != b.num_terms() || a.window_start() != b.window_start() ||
      a.timeline_length() != b.timeline_length()) {
    return false;
  }
  for (TermId t = 0; t < a.num_terms(); ++t) {
    const auto& pa = a.postings(t);
    const auto& pb = b.postings(t);
    if (pa.size() != pb.size()) return false;
    for (size_t i = 0; i < pa.size(); ++i) {
      if (pa[i].stream != pb[i].stream || pa[i].time != pb[i].time ||
          pa[i].count != pb[i].count) {
        return false;
      }
    }
  }
  return true;
}

// Two TA runs over posting-identical indexes: identical answers and work.
bool SameTopK(const TopKResult& a, const TopKResult& b) {
  return a.docs == b.docs && a.sorted_accesses == b.sorted_accesses &&
         a.random_accesses == b.random_accesses;
}

// TA against the exhaustive merge of the same snapshot: the same scores (to
// the 1e-9 the two summation orders allow) and the same documents, except
// that documents tied exactly at the k-th score may differ — TA legally
// stops before seeing every member of a tie straddling the cut.
bool AgreesWithExhaustive(const TopKResult& ta, const TopKResult& reference) {
  if (ta.docs.size() != reference.docs.size()) return false;
  const double boundary =
      reference.docs.empty() ? 0.0 : reference.docs.back().score;
  for (size_t i = 0; i < ta.docs.size(); ++i) {
    const bool same_score =
        std::abs(ta.docs[i].score - reference.docs[i].score) < 1e-9;
    const bool same_doc = ta.docs[i].doc == reference.docs[i].doc;
    const bool boundary_tie = std::abs(ta.docs[i].score - boundary) < 1e-9;
    if (!same_score || !(same_doc || boundary_tie)) return false;
  }
  return true;
}

// Standalone miners work in window-relative time; the batch miner and the
// runtime report absolute timestamps.
template <typename Pattern>
std::vector<Pattern> Shifted(std::vector<Pattern> patterns, Timestamp origin) {
  for (Pattern& p : patterns) {
    p.timeframe.start += origin;
    p.timeframe.end += origin;
  }
  return patterns;
}

// The standing result against a fresh combinatorial mine of the same
// window. Slots the last tick re-mined (staleness 0) must match exactly.
// Quiet slots are counted, not failed: after an append-only tick they carry
// the documented staleness, and even after a length-preserving slide they
// drift, because interval burstiness is summed from the window start — a
// quiet term mined over an earlier window rounds differently in the last
// ulp. Drift that leaves the same patterns, with scores within 1e-9 and
// ties possibly reordered, counts as rounding; drift that changes which
// patterns exist (a 0.1 burstiness cut or a clique choice flipped) counts as
// structural.
void CompareStanding(const FeedRuntime& runtime, const BatchMineResult& fresh,
                     Report* report) {
  const BatchMineResult& standing = runtime.result();
  report->Attempt();
  if (standing.terms.size() != fresh.terms.size()) {
    report->Fail("standing result has the wrong number of slots");
    return;
  }
  size_t remined = 0;
  size_t mismatched = 0;
  size_t rounding = 0;
  size_t structural = 0;
  for (TermId t = 0; t < fresh.terms.size(); ++t) {
    const TermPatterns& a = standing.terms[t];
    const TermPatterns& b = fresh.terms[t];
    if (runtime.staleness(t) == 0) {
      ++remined;
      if (a.mined != b.mined || !SamePatterns(a.combinatorial, b.combinatorial)) {
        ++mismatched;
      }
    } else if (a.mined != b.mined ||
               !SamePatterns(ByContent(a.combinatorial),
                             ByContent(b.combinatorial), 1e-9)) {
      ++structural;
    } else if (!SamePatterns(a.combinatorial, b.combinatorial)) {
      ++rounding;
    }
  }
  auto& c = report->counters;
  c["audit.remined_slots_checked"] = static_cast<double>(remined);
  c["audit.quiet_slots_rounding_drift"] = static_cast<double>(rounding);
  c["audit.quiet_slots_structural_drift"] = static_cast<double>(structural);
  if (mismatched > 0) {
    report->Fail(StringPrintf(
        "%zu of %zu re-mined standing slots differ from a fresh mine",
        mismatched, remined));
  }
}

// The post-run audit both live workloads end with: the final state against
// from-scratch references. It runs after the measured phase and is recorded
// as one "audit" span, so none of its calls feeds a per-layer metric.
//  (a) the live index equals a FrequencyIndex::Build of the live collection;
//  (b) the standing result agrees with a fresh combinatorial MineAllTerms
//      over the live index (CompareStanding);
//  (c) kAuditQueries Search answers equal ThresholdTopK over a
//      BurstySearchEngine built from scratch on the collection and the
//      standing patterns.
void Audit(const FeedRuntime& runtime, const Inputs& inputs, Tracer* tracer,
           Report* report) {
  ScopedSpan span(tracer, "audit", -1, 0);
  report->Attempt();
  if (!SamePostings(
          FrequencyIndex::Build(runtime.collection(), kWorkerThreads),
          runtime.index())) {
    report->Fail("audit: rebuilt index differs from the live index");
  }

  report->Attempt();
  StatusOr<BatchMineResult> fresh =
      MineAllTerms(runtime.index(), CombinatorialMining());
  if (!fresh.ok()) {
    report->Fail("audit MineAllTerms: " + fresh.status().ToString());
    return;
  }
  CompareStanding(runtime, *fresh, report);

  PatternIndex patterns;
  for (TermId t = 0; t < runtime.result().terms.size(); ++t) {
    for (const CombinatorialPattern& p :
         runtime.result().terms[t].combinatorial) {
      patterns.AddCombinatorial(t, p);
    }
  }
  const BurstySearchEngine engine =
      BurstySearchEngine::Build(runtime.collection(), patterns);
  size_t mismatched = 0;
  for (size_t i = 0; i < kAuditQueries; ++i) {
    const std::vector<TermId>& q = inputs.queries[i];
    report->Attempt();
    if (!SameTopK(runtime.Search(q, kTopK),
                  ThresholdTopK(engine.index(), q, kTopK))) {
      ++mismatched;
    }
  }
  if (mismatched > 0) {
    report->Fail(StringPrintf(
        "audit: %zu of %zu searches differ from a from-scratch engine",
        mismatched, kAuditQueries));
  }
}

// batch_mine's check: every kAuditTermStride-th term's slots in one pass's
// results equal the standalone StComb::MinePatterns / MineRegionalPatterns
// over the same series.
void CheckAgainstStandalone(const FrequencyIndex& index,
                            const BatchMineResult& combinatorial,
                            const BatchMineResult& regional,
                            const Inputs& inputs, Report* report) {
  const StComb stcomb(CombOptions());
  const ExpectedModelFactory factory = MeanFactory();
  const Timestamp origin = index.window_start();
  size_t checked = 0;
  size_t mismatched = 0;
  for (size_t t = 0; t < index.num_terms(); t += kAuditTermStride) {
    const TermSeries series = index.DenseSeries(static_cast<TermId>(t));
    ++checked;
    if (!SamePatterns(combinatorial.terms[t].combinatorial,
                      Shifted(stcomb.MinePatterns(series), origin))) {
      ++mismatched;
    }
    auto windows = MineRegionalPatterns(series, inputs.positions, factory);
    if (!windows.ok() ||
        !SamePatterns(regional.terms[t].regional, Shifted(*windows, origin))) {
      ++mismatched;
    }
  }
  report->Attempt();
  if (mismatched > 0) {
    report->Fail(StringPrintf(
        "%zu of %zu sampled terms differ from the standalone miners",
        mismatched, checked));
  }
}

// ---------------------------------------------------------------- workloads

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  std::string out;
  std::string trace;
  bool smoke = false;
};

size_t BackgroundVocab(const Args& args) {
  return args.smoke ? kSmokeVocab : kStandardVocab;
}

// live_tick: the writer path as a closed-loop catch-up feed. Each week's text
// is handed over the moment the previous tick finished; every tick evicts a
// week, so ingest, re-mine, re-score and fold do the work.
void RunLiveTick(const Args& args, const Inputs& inputs, Tracer* tracer,
                 Report* report) {
  std::optional<FeedRuntime> runtime = CreateRuntime(
      inputs.history, RuntimeOptions(kEvictingWindow), tracer, report);
  if (!runtime) return;
  LiveFeed feed(&*runtime, inputs, args.seed, tracer, report);
  SearchCounters search;
  const int64_t ticks =
      args.smoke ? kSmokeTicks
                 : std::max<int64_t>(
                       1, std::lround(args.seconds / kLiveTickSeconds));
  auto due = Clock::now();
  for (int64_t tick = 0; tick < ticks; ++tick) {
    const TickRecord rec = feed.Tick(tick, due);
    due = Clock::now();
    if (!rec.committed) break;
    report->latency_ms.push_back(rec.freshness_ms);
    report->throughput_per_s.push_back(
        static_cast<double>(rec.stats.documents) / (rec.freshness_ms / 1e3));
    search.Add(rec.probe);
    CountTick(rec, report);
  }
  report->throughput_unit = "docs/s";
  report->rss_peak_mb = PeakRssMb();
  CountThreads(runtime->result().threads_used, report);
  RecordGauges(*runtime, report);
  search.Emit(report);
  Audit(*runtime, inputs, tracer, report);
}

// Spins: the query thread owns a core, and sleeping between queries would
// overshoot peak-rate intervals and run every query on a cold core.
void WaitUntil(Clock::time_point t) {
  while (Clock::now() < t) {
  }
}

// An open-loop answer kept for re-checking against the exhaustive merge of
// the snapshot that produced it.
struct SampledAnswer {
  size_t query = 0;
  TopKResult result;
  std::shared_ptr<const IndexSnapshot> snapshot;
};

// search_open_loop: reads beside writes. A ticker thread hands one live week
// to a serial runtime every kTickPeriodS (append-only: the window is roomy);
// this thread sends queries open-loop at kBaseQps and at kPeakQps, each timed
// from its due time, and closed-loop, which measures capacity.
void RunSearchOpenLoop(const Args& args, const Inputs& inputs, Tracer* tracer,
                       Report* report) {
  std::optional<FeedRuntime> runtime = CreateRuntime(
      inputs.history, RuntimeOptions(kRoomyWindow), tracer, report);
  if (!runtime) return;
  FeedRuntime& rt = *runtime;
  LiveFeed feed(&rt, inputs, args.seed, tracer, report);

  // Warm caches and the allocator before timing: one closed-loop pass.
  for (const auto& q : inputs.queries) (void)rt.Search(q, kTopK);

  std::mutex pending_mu;  // guards pending
  std::vector<SampledAnswer> pending;
  auto verify_pending = [&] {
    std::vector<SampledAnswer> batch;
    {
      std::lock_guard<std::mutex> lock(pending_mu);
      batch.swap(pending);
    }
    for (const SampledAnswer& s : batch) {
      const TopKResult reference = ExhaustiveTopK(
          s.snapshot->index, inputs.queries[s.query % kQueryPool], kTopK);
      if (!AgreesWithExhaustive(s.result, reference)) {
        report->Fail(StringPrintf(
            "query %zu: answer differs from ExhaustiveTopK on its snapshot",
            s.query));
      }
    }
  };

  const int64_t num_ticks =
      std::max<int64_t>(1, static_cast<int64_t>(args.seconds / kTickPeriodS));
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kTickPeriodS));
  std::vector<double>& base_us = report->samples["query_base_us"];
  std::vector<double>& peak_us = report->samples["query_peak_us"];
  std::vector<double>& wait_us = report->samples["wait_us"];
  std::vector<double>& switch_us = report->samples["generation_switch_us"];
  std::vector<double>& freshness_ms = report->samples["freshness_ms"];

  SearchCounters ticker_search;
  std::jthread ticker([&] {
    for (int64_t k = 0; k < num_ticks; ++k) {
      const auto due = start + period * k;
      std::this_thread::sleep_until(due);
      const TickRecord rec = feed.Tick(k, due);
      if (!rec.committed) return;
      freshness_ms.push_back(rec.freshness_ms);
      ticker_search.Add(rec.probe);
      CountTick(rec, report);
      verify_pending();
    }
  });

  SearchCounters search;
  size_t next = 0;
  uint64_t generation = rt.search_snapshot()->generation;
  auto query = [&](Clock::time_point due) {
    const size_t id = next++;
    const std::vector<TermId>& q = inputs.queries[id % kQueryPool];
    std::shared_ptr<const IndexSnapshot> snapshot;
    if (id % kCheckEvery == 0) snapshot = rt.search_snapshot();
    report->Attempt();
    const int64_t root =
        tracer->Begin("search.query", -1, static_cast<int64_t>(id), due);
    const auto begin = Clock::now();
    TopKResult r =
        TracedSearch(rt, q, tracer, root, static_cast<int64_t>(id));
    const auto end = Clock::now();
    tracer->End(root, end);
    search.Add(r);
    report->latency_ms.push_back(Millis(begin, end));
    wait_us.push_back(Micros(due, begin));
    if (r.generation != generation) {
      generation = r.generation;
      switch_us.push_back(Micros(due, end));
    }
    if (snapshot != nullptr && snapshot->generation == r.generation) {
      std::lock_guard<std::mutex> lock(pending_mu);
      pending.push_back({id, std::move(r), std::move(snapshot)});
    }
    return end;
  };
  auto open_loop = [&](Clock::time_point from, Clock::time_point to,
                       double qps, std::vector<double>* latency_us) {
    const std::chrono::duration<double> interval(1.0 / qps);
    for (size_t j = 0;; ++j) {
      const auto due =
          from + std::chrono::duration_cast<Clock::duration>(interval * j);
      if (due >= to) return;
      WaitUntil(due);
      latency_us->push_back(Micros(due, query(due)));
    }
  };
  // One cycle per tick period, each split into three equal slots — base
  // rate, peak rate, closed loop — rotated by one slot per cycle, so every
  // phase sees every part of the tick cycle and host noise spreads over the
  // whole run instead of landing on one phase.
  const auto slot = period / 3;
  for (int64_t c = 0; c < num_ticks; ++c) {
    for (int64_t j = 0; j < 3; ++j) {
      const auto from = start + period * c + slot * j;
      const auto to = from + slot;
      switch ((j + c) % 3) {
        case 0:
          open_loop(from, to, kBaseQps, &base_us);
          break;
        case 1:
          open_loop(from, to, kPeakQps, &peak_us);
          break;
        default: {
          // Timed from when the slot really starts: a saturated 8,000 qps
          // slot before it may overrun into it.
          WaitUntil(from);
          const auto begin = Clock::now();
          size_t queries = 0;
          auto now = begin;
          for (; now < to; ++queries) now = query(now);
          if (queries > 0) {
            report->throughput_per_s.push_back(static_cast<double>(queries) /
                                               Seconds(begin, now));
          }
        }
      }
    }
  }
  ticker.join();
  verify_pending();

  report->throughput_unit = "queries/s";
  report->rss_peak_mb = PeakRssMb();
  CountThreads(rt.result().threads_used, report);
  RecordGauges(rt, report);
  search.Merge(ticker_search);
  search.Emit(report);
  Audit(rt, inputs, tracer, report);
}

// batch_mine: cold whole-vocabulary analytics over a fixed collection (the
// history). Set-up loads it and builds its FrequencyIndex; each pass runs
// combinatorial and regional MineAllTerms over that index, and no runtime
// exists. The STComb, STLocal, discrepancy, grid and SIMD kernels do nearly
// all the work.
void RunBatchMine(const Args& args, const Inputs& inputs, Tracer* tracer,
                  Report* report) {
  std::optional<FrequencyIndex> loaded =
      LoadAndIndex(inputs.history, tracer, report);
  if (!loaded) return;
  const FrequencyIndex& index = *loaded;
  const int64_t passes =
      args.smoke ? 1
                 : std::max<int64_t>(
                       1, std::lround(args.seconds / kBatchPassSeconds));
  for (int64_t pass = 0; pass < passes; ++pass) {
    report->Attempt(2);
    const int64_t root = tracer->Begin("core.batch_miner.pass", -1, pass);
    const auto pass_start = Clock::now();
    StatusOr<BatchMineResult> combinatorial = [&] {
      ScopedSpan span(tracer, "core.batch_miner.combinatorial", root, pass);
      return MineAllTerms(index, CombinatorialMining());
    }();
    StatusOr<BatchMineResult> regional = [&] {
      ScopedSpan span(tracer, "core.batch_miner.regional", root, pass);
      return MineAllTerms(index, RegionalMining(inputs.positions));
    }();
    const auto pass_end = Clock::now();
    tracer->End(root, pass_end);
    if (!combinatorial.ok() || !regional.ok()) {
      report->Fail("MineAllTerms: " + (combinatorial.ok()
                                           ? regional.status().ToString()
                                           : combinatorial.status().ToString()));
      break;
    }
    report->latency_ms.push_back(Millis(pass_start, pass_end));
    report->throughput_per_s.push_back(
        static_cast<double>(combinatorial->terms_mined) /
        Seconds(pass_start, pass_end));
    if (pass == 0) CountMining(*combinatorial, *regional, report);
    CountThreads(regional->threads_used, report);
    CheckAgainstStandalone(index, *combinatorial, *regional, inputs, report);
  }
  report->throughput_unit = "terms/s";
  report->rss_peak_mb = PeakRssMb();
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload "
               "live_tick|search_open_loop|batch_mine --seed S --seconds N "
               "--out RESULT.json [--trace TRACE.json] [--smoke]\n",
               msg);
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0)) {
        return Usage("--seconds takes a positive number");
      }
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--trace") {
      args.trace = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  void (*run)(const Args&, const Inputs&, Tracer*, Report*) = nullptr;
  if (args.workload == "live_tick") run = RunLiveTick;
  if (args.workload == "search_open_loop") run = RunSearchOpenLoop;
  if (args.workload == "batch_mine") run = RunBatchMine;
  if (run == nullptr) return Usage("unknown --workload");
  if (args.out.empty()) return Usage("--out is required");

  Report report;
  report.workload = args.workload;
  report.seed = args.seed;
  report.seconds = args.seconds;
  report.smoke = args.smoke;
  Tracer tracer(!args.trace.empty(), Clock::now());
  try {
    StatusOr<Inputs> inputs = MakeInputs(args.seed, BackgroundVocab(args));
    if (!inputs.ok()) {
      report.Fail("inputs: " + inputs.status().ToString());
    } else {
      run(args, *inputs, &tracer, &report);
    }
  } catch (const std::exception& e) {
    report.Fail(std::string("exception: ") + e.what());
  }
  if (!WriteReport(report, args.out)) {
    std::fprintf(stderr, "bench_e2e: cannot write %s\n", args.out.c_str());
    return 1;
  }
  if (tracer.enabled() && !tracer.Write(args.trace)) {
    std::fprintf(stderr, "bench_e2e: cannot write %s\n", args.trace.c_str());
    return 1;
  }
  return report.failed.load() == 0 && report.attempted.load() > 0 ? 0 : 1;
}

}  // namespace
}  // namespace stburst

int main(int argc, char** argv) { return stburst::Main(argc, argv); }
