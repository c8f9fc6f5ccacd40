#include "stburst/core/stcomb.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "stburst/common/logging.h"

namespace stburst {

StComb::StComb(StCombOptions options) : options_(options) {}

std::vector<StreamInterval> StComb::ExtractStreamIntervals(
    const TermSeries& series) const {
  std::vector<StreamInterval> out;
  for (StreamId s = 0; s < series.num_streams(); ++s) {
    for (const BurstyInterval& bi :
         ExtractBurstyIntervals(series.StreamRow(s),
                                options_.min_interval_burstiness)) {
      out.push_back(StreamInterval{s, bi.interval, bi.burstiness});
    }
  }
  return out;
}

std::vector<CombinatorialPattern> StComb::MinePatterns(
    const TermSeries& series) const {
  return MineFromIntervals(ExtractStreamIntervals(series));
}

// Iterated maximum-weight clique without per-round rebuilds. A clique on an
// interval graph is a stabbing set (Helly in 1-D), so each round scans the
// endpoint events in coordinate order and maximizes the active weight; the
// event list is sorted ONCE, and after each report the events and the live
// index list are compacted in place (order-preserving, so the list stays
// sorted and the per-stream tie-breaking stays in index order). All events
// sharing a coordinate are applied before the coordinate is evaluated,
// which makes the intra-coordinate order irrelevant and keeps
// closed-interval semantics ([a,b] and [b,c] intersect) via the end+1 close
// coordinate. Each round reports the first stab of maximum live weight, so
// the result equals the brute-force reference in tests/stcomb_test.cc
// (ReferenceCliques: scan every integer stab per round) exactly — same
// stabs, same members, same scores — at O(m log m + rounds * m_live).
std::vector<CombinatorialPattern> StComb::MineFromIntervals(
    std::vector<StreamInterval> intervals) const {
  std::vector<CombinatorialPattern> patterns;

  struct Event {
    Timestamp at;
    uint32_t idx;
    bool open;
  };
  thread_local std::vector<Event> events;
  thread_local std::vector<uint32_t> alive;
  events.clear();
  alive.clear();
  for (size_t i = 0; i < intervals.size(); ++i) {
    const StreamInterval& si = intervals[i];
    if (si.burstiness <= 0.0 || !si.interval.valid()) continue;
    alive.push_back(static_cast<uint32_t>(i));
    events.push_back(Event{si.interval.start, static_cast<uint32_t>(i), true});
    events.push_back(Event{static_cast<Timestamp>(si.interval.end + 1),
                           static_cast<uint32_t>(i), false});
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.at < b.at; });

  thread_local std::unordered_map<int64_t, size_t> best_by_tag;
  thread_local std::vector<uint32_t> members;

  while (patterns.size() < options_.max_patterns && !alive.empty()) {
    // Round sweep: maximum active weight over the surviving intervals.
    double active = 0.0;
    double best_weight = 0.0;
    Timestamp best_stab = 0;
    for (size_t i = 0; i < events.size();) {
      const Timestamp at = events[i].at;
      while (i < events.size() && events[i].at == at) {
        const Event& e = events[i];
        active += e.open ? intervals[e.idx].burstiness
                         : -intervals[e.idx].burstiness;
        ++i;
      }
      if (active > best_weight) {
        best_weight = active;
        best_stab = at;
      }
    }
    if (best_weight <= 0.0) break;

    // Members: the stabbed intervals, heaviest per stream (the paper's
    // one-interval-per-stream eligibility rule). `alive` is ascending, so
    // ties resolve exactly as an index-order scan of the full pool.
    best_by_tag.clear();
    for (uint32_t idx : alive) {
      const StreamInterval& si = intervals[idx];
      if (!si.interval.Contains(best_stab)) continue;
      auto [it, inserted] =
          best_by_tag.emplace(static_cast<int64_t>(si.stream), size_t{idx});
      if (!inserted && intervals[it->second].burstiness < si.burstiness) {
        it->second = idx;
      }
    }

    // Fold members in ascending pool order: the map's iteration order
    // depends on its (thread_local) bucket history, and the score is a
    // float sum whose result must not — determinism across thread counts
    // and scheduling requires a fixed fold order.
    members.clear();
    for (const auto& [tag, idx] : best_by_tag) {
      members.push_back(static_cast<uint32_t>(idx));
    }
    std::sort(members.begin(), members.end());

    CombinatorialPattern p;
    Interval common;
    bool first = true;
    for (uint32_t idx : members) {
      const StreamInterval& si = intervals[idx];
      p.score += si.burstiness;
      p.streams.push_back(si.stream);
      common = first ? si.interval : common.Intersect(si.interval);
      first = false;
      // Remove the reported interval from the pool so later patterns do not
      // reuse it; the compaction below drops it from the sweep structures.
      intervals[idx].burstiness = 0.0;
    }
    STB_DCHECK(common.valid()) << "clique members must share a segment";
    p.timeframe = common;
    std::sort(p.streams.begin(), p.streams.end());

    if (p.streams.size() >= options_.min_streams) {
      patterns.push_back(std::move(p));
    }

    alive.erase(std::remove_if(alive.begin(), alive.end(),
                               [&](uint32_t idx) {
                                 return intervals[idx].burstiness <= 0.0;
                               }),
                alive.end());
    events.erase(std::remove_if(events.begin(), events.end(),
                                [&](const Event& e) {
                                  return intervals[e.idx].burstiness <= 0.0;
                                }),
                 events.end());
  }

  std::sort(patterns.begin(), patterns.end(),
            [](const CombinatorialPattern& a, const CombinatorialPattern& b) {
              return a.score > b.score;
            });
  return patterns;
}

}  // namespace stburst
