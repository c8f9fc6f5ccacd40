// TopixSimulator — the stand-in for the paper's Topix.com crawl (§6.1).
//
// The real dataset (305,641 articles from 181 countries, Sep-08..Jul-09) is
// not openly available; this simulator regenerates its statistical
// structure: 181 country streams at their real coordinates, a 48-week
// timeline, Zipfian background vocabulary with per-country news volumes,
// and the 18 Major Events of Table 4 injected with tier-dependent spatial
// footprints and Weibull temporal profiles. Every document carries a
// provenance label (which event burst emitted it, if any), which powers the
// simulated annotator used by the precision experiments. The miners read
// only that structure (stream geometry, per-stream volumes, and each
// event's spatial and temporal footprint), never article text, which is
// why the substitution preserves the evaluated behaviour.

#ifndef STBURST_GEN_TOPIX_SIM_H_
#define STBURST_GEN_TOPIX_SIM_H_

#include <string>
#include <vector>

#include "stburst/common/statusor.h"
#include "stburst/core/interval.h"
#include "stburst/gen/major_events.h"
#include "stburst/stream/collection.h"
#include "stburst/stream/frequency.h"

namespace stburst {

struct TopixOptions {
  uint64_t seed = 7;
  /// Background (non-event) vocabulary size.
  size_t background_vocab = 1200;
  /// Zipf exponent of the background vocabulary.
  double vocab_zipf = 1.05;
  /// Average background documents per (country, week); per-country volumes
  /// are Zipf-distributed around this (big media markets produce more).
  double mean_docs_per_week = 12.0;
  /// Tokens per background document, uniform in [min, max].
  size_t doc_len_min = 12;
  size_t doc_len_max = 32;
  /// Query-term occurrences inside an event document, uniform in [min, max].
  size_t event_term_min = 2;
  size_t event_term_max = 5;
  /// Ambient (non-event) rate at which event terms show up in background
  /// docs anywhere: expected mentions per (country, week, event).
  double ambient_mention_rate = 0.004;
  /// Query-term occurrences inside a decoy document ("passing mention"),
  /// uniform in [min, max]. Lower than event docs, like real name
  /// collisions in sports pages vs. headline coverage.
  size_t decoy_term_min = 1;
  size_t decoy_term_max = 5;
  /// Project streams with classical MDS (the paper's pipeline); when false,
  /// an equirectangular lon/lat projection is used instead.
  bool use_mds = true;
};

/// Offset added to an event's index to label decoy-burst documents: they
/// mention the query term but are not relevant to the event.
inline constexpr int32_t kDecoyEventBase = 1000;

/// The generated corpus plus its ground truth.
class TopixSimulator {
 public:
  /// Generates the full corpus. Deterministic in options.seed.
  static StatusOr<TopixSimulator> Generate(const TopixOptions& options = {});

  const Collection& collection() const { return collection_; }
  const TopixOptions& options() const { return options_; }
  const std::vector<MajorEvent>& events() const { return MajorEventsList(); }

  /// True iff `doc` was emitted by a relevant burst of event `event_index`
  /// (0-based into events()). The simulated annotator of §6.3.
  bool IsRelevant(DocId doc, size_t event_index) const;

  /// Query term ids of event `event_index` (resolved against the corpus
  /// vocabulary; multi-word queries yield several terms).
  std::vector<TermId> QueryTerms(size_t event_index) const;

  /// Streams affected by the event's relevant bursts (ground truth for the
  /// pattern-shape experiments), sorted.
  std::vector<StreamId> AffectedStreams(size_t event_index) const;

  /// Week range spanned by the event's relevant bursts.
  Interval RelevantTimeframe(size_t event_index) const;

 private:
  TopixSimulator(Collection collection, TopixOptions options,
                 std::vector<std::vector<StreamId>> affected,
                 std::vector<Interval> timeframes);

  Collection collection_;
  TopixOptions options_;
  std::vector<std::vector<StreamId>> affected_;  // per event
  std::vector<Interval> timeframes_;             // per event
};

}  // namespace stburst

#endif  // STBURST_GEN_TOPIX_SIM_H_
