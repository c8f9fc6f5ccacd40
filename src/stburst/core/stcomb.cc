#include "stburst/core/stcomb.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

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

namespace {

// A pool interval takes part iff its weight is positive and finite and its
// interval is valid; everything else is ignored.
bool Live(const StreamInterval& si) {
  return si.burstiness > 0.0 &&
         si.burstiness <= std::numeric_limits<double>::max() &&
         si.interval.valid();
}

// Coordinates are ranked through a table over [min, max] unless the span
// exceeds this many slots per endpoint; then they are sorted instead. Timed
// on bench_micro's 19,813 re-mine pools (2-vCPU host, best of 7 passes,
// alternated): at their own span (1.3 slots per endpoint on average, at
// most 6.3) this clique took 122-130 ms over them with the table and
// 221-239 ms with the sort. With every timestamp scaled to widen the span,
// the table still won at an average of 129 slots per endpoint and lost at
// 172; the bound sits at half of where they crossed.
constexpr int64_t kTableSlotsPerEndpoint = 64;

// Bits of the fixed-point grid below the pool's largest weight. Burstiness
// summed over windows that start at different timestamps differs in its
// last few bits; a grid well above one ulp maps such twins to one image, so
// a tie resolves to the same stab whichever window mined the term. On
// bench/e2e live_tick (seed 1) this grid left 3 quiet slots that drift
// structurally from a fresh mine, the float sweep it replaced 174, and a
// grid at full int64 precision 280.
constexpr int kGridBits = 44;

// Per-thread scratch of one MineFromIntervals call, reused across calls.
struct CliqueScratch {
  std::vector<uint32_t> live;       // live pool indices, ascending
  std::vector<int64_t> image;       // fixed-point weight, by pool index
  std::vector<uint32_t> first;      // first leaf covered, by pool index
  std::vector<uint32_t> last;       // one past the last leaf, by pool index
  std::vector<uint32_t> table;      // coordinate - min -> rank
  std::vector<int64_t> coords;      // sorted distinct coordinates (sort path)
  std::vector<int64_t> cover;       // live image sum over each leaf
  std::vector<size_t> offset;       // leaf j's list at [offset[j], offset[j+1])
  std::vector<uint32_t> fill;       // list fill cursor, by leaf
  std::vector<uint32_t> entries;    // covering pool indices, CSR
  std::vector<uint32_t> members;    // this round's stabbed live intervals
};

}  // namespace

// Iterated maximum-weight clique over ranked leaves. A clique of an interval
// graph is the set of intervals one timestamp stabs (Helly in 1-D), so the
// pool's distinct coordinates (each start and each end+1, closed-interval
// semantics: [a,b] and [b,c] intersect) cut the timeline into leaves, and
// leaf j holds the stabs [coord_j, coord_j+1). Each live interval covers a
// contiguous run of leaves; cover[j] is the sum of their weights and leaf
// j's list names them in ascending pool index (one flat CSR array).
//
// Stab selection is exact: weights enter as fixed-point images on a
// power-of-two grid chosen per call, and every cover is an exact int64 sum
// in any order. The grid keeps kGridBits bits below the largest weight
// (Kleinberg scores are unbounded, so no grid fixed in advance would fit),
// coarser only if the live count m would otherwise let the images' sum
// reach 2^62. A positive weight never rounds to 0. Weights closer than one
// grid step tie, and ties go to the leftmost stab.
//
// Each round takes the leftmost leaf of maximal positive cover; its members
// are the live intervals on its list (skipping those retired by earlier
// rounds). Same-stream intervals are disjoint by precondition, so a stab
// holds at most one interval per stream (the paper's one-interval-per-stream
// rule). Members are retired by subtracting their images over their leaf
// runs, which leaves the stabbed leaf's cover at 0, so each list is walked
// at most once. The score is the float fold of the members' weights in
// ascending stream order — on a pool built stream by stream
// (ExtractStreamIntervals, the batch miner) that is ascending pool order.
// The result equals the brute-force reference in tests/stcomb_test.cc
// (ReferenceCliques: weigh every live start per round on the same images)
// exactly.
//
// Cost: O(m + span) to rank (O(m log m) on the sort path), O(Σ leaves
// covered) to build the lists — at most leaves × streams under the
// precondition — and O(leaves + members' leaf runs) per round, plus each
// list once. On the live feed's pools (≤ 49 leaves) a segment tree's
// O(log) argmax was measured slower than this flat scan.
std::vector<CombinatorialPattern> StComb::MineFromIntervals(
    std::vector<StreamInterval> intervals) const {
  std::vector<CombinatorialPattern> patterns;
  thread_local CliqueScratch x;

  x.live.clear();
  double max_weight = 0.0;
  int64_t lo = std::numeric_limits<int64_t>::max();
  int64_t hi = std::numeric_limits<int64_t>::min();
  for (size_t i = 0; i < intervals.size(); ++i) {
    const StreamInterval& si = intervals[i];
    if (!Live(si)) continue;
    x.live.push_back(static_cast<uint32_t>(i));
    max_weight = std::max(max_weight, si.burstiness);
    lo = std::min<int64_t>(lo, si.interval.start);
    hi = std::max<int64_t>(hi, int64_t{si.interval.end} + 1);
  }
  const size_t m = x.live.size();
  if (m == 0 || options_.max_patterns == 0) return patterns;
  STB_CHECK(m < UINT32_MAX / 2) << "interval pool too large";

  // max_weight < 2^e and m <= 2^c, so each image is at most
  // 2^min(kGridBits, 62-c) and the m images sum to at most 2^62.
  int e = 0;
  std::frexp(max_weight, &e);
  const int shift =
      std::min(kGridBits, 62 - static_cast<int>(std::bit_width(m - 1))) - e;
  x.image.resize(intervals.size());
  for (uint32_t i : x.live) {
    x.image[i] = std::max<int64_t>(
        1, std::llround(std::ldexp(intervals[i].burstiness, shift)));
  }

  // Rank the coordinates; leaf j runs from rank j to rank j+1.
  x.first.resize(intervals.size());
  x.last.resize(intervals.size());
  size_t leaves = 0;
  if (hi - lo < kTableSlotsPerEndpoint * 2 * static_cast<int64_t>(m)) {
    x.table.assign(static_cast<size_t>(hi - lo + 1), 0);
    auto slot = [&](int64_t c) -> uint32_t& {
      return x.table[static_cast<size_t>(c - lo)];
    };
    for (uint32_t i : x.live) {
      slot(intervals[i].interval.start) = 1;
      slot(int64_t{intervals[i].interval.end} + 1) = 1;
    }
    for (uint32_t& rank : x.table) {
      if (rank != 0) rank = static_cast<uint32_t>(leaves++);
    }
    for (uint32_t i : x.live) {
      x.first[i] = slot(intervals[i].interval.start);
      x.last[i] = slot(int64_t{intervals[i].interval.end} + 1);
    }
  } else {
    x.coords.clear();
    for (uint32_t i : x.live) {
      x.coords.push_back(intervals[i].interval.start);
      x.coords.push_back(int64_t{intervals[i].interval.end} + 1);
    }
    std::sort(x.coords.begin(), x.coords.end());
    x.coords.erase(std::unique(x.coords.begin(), x.coords.end()),
                   x.coords.end());
    leaves = x.coords.size();
    auto rank = [&](int64_t c) {
      return static_cast<uint32_t>(
          std::lower_bound(x.coords.begin(), x.coords.end(), c) -
          x.coords.begin());
    };
    for (uint32_t i : x.live) {
      x.first[i] = rank(intervals[i].interval.start);
      x.last[i] = rank(int64_t{intervals[i].interval.end} + 1);
    }
  }

  // Covers and the CSR lists, filled in ascending pool index.
  x.cover.assign(leaves, 0);
  x.fill.assign(leaves, 0);
  for (uint32_t i : x.live) {
    for (uint32_t j = x.first[i]; j < x.last[i]; ++j) ++x.fill[j];
  }
  x.offset.resize(leaves + 1);
  x.offset[0] = 0;
  for (size_t j = 0; j < leaves; ++j) x.offset[j + 1] = x.offset[j] + x.fill[j];
  x.entries.resize(x.offset[leaves]);
  std::fill(x.fill.begin(), x.fill.end(), 0);
  for (uint32_t i : x.live) {
    for (uint32_t j = x.first[i]; j < x.last[i]; ++j) {
      x.entries[x.offset[j] + x.fill[j]++] = i;
      x.cover[j] += x.image[i];
    }
  }

  // Retired intervals read weight 0 (the pool is this call's own copy).
  auto alive = [&](uint32_t i) { return intervals[i].burstiness > 0.0; };
  auto by_stream = [&](uint32_t a, uint32_t b) {
    return intervals[a].stream < intervals[b].stream;
  };
  while (patterns.size() < options_.max_patterns) {
    size_t stab = leaves;
    int64_t best = 0;
    for (size_t j = 0; j < leaves; ++j) {
      if (x.cover[j] > best) {
        best = x.cover[j];
        stab = j;
      }
    }
    if (stab == leaves) break;

    x.members.clear();
    for (size_t k = x.offset[stab]; k < x.offset[stab + 1]; ++k) {
      if (alive(x.entries[k])) x.members.push_back(x.entries[k]);
    }
    std::sort(x.members.begin(), x.members.end(), by_stream);

    CombinatorialPattern p;
    for (size_t k = 0; k < x.members.size(); ++k) {
      const uint32_t i = x.members[k];
      StreamInterval& si = intervals[i];
      STB_DCHECK(k == 0 || intervals[x.members[k - 1]].stream != si.stream)
          << "same-stream intervals must not overlap";
      p.streams.push_back(si.stream);
      p.score += si.burstiness;
      p.timeframe = k == 0 ? si.interval : p.timeframe.Intersect(si.interval);
      si.burstiness = 0.0;
      for (uint32_t j = x.first[i]; j < x.last[i]; ++j) {
        x.cover[j] -= x.image[i];
      }
    }
    STB_DCHECK(p.timeframe.valid()) << "clique members must share a segment";
    patterns.push_back(std::move(p));
  }

  // A total order, so equal-score patterns do not come out in round order.
  std::sort(patterns.begin(), patterns.end(),
            [](const CombinatorialPattern& a, const CombinatorialPattern& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.timeframe.start != b.timeframe.start) {
                return a.timeframe.start < b.timeframe.start;
              }
              if (a.timeframe.end != b.timeframe.end) {
                return a.timeframe.end < b.timeframe.end;
              }
              return a.streams < b.streams;
            });
  return patterns;
}

}  // namespace stburst
