#include "stburst/index/search_engine.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "stburst/common/logging.h"

namespace stburst {

double Relevance(double term_frequency) { return std::log(term_frequency + 1.0); }

BurstySearchEngine::BurstySearchEngine(const Collection* collection)
    : collection_(collection) {}

BurstySearchEngine BurstySearchEngine::Build(const Collection& collection,
                                             const PatternIndex& patterns) {
  BurstySearchEngine engine(&collection);

  std::vector<std::vector<Posting>> lists;
  std::vector<TermId> distinct;
  for (const Document& doc : collection.documents()) {
    // Distinct terms of the document with their frequencies.
    distinct = doc.tokens;
    std::sort(distinct.begin(), distinct.end());
    for (size_t i = 0; i < distinct.size();) {
      size_t j = i;
      while (j < distinct.size() && distinct[j] == distinct[i]) ++j;
      TermId term = distinct[i];
      double burst_score;
      if (patterns.MaxOverlapScore(term, doc.stream, doc.time, &burst_score)) {
        double entry = Relevance(static_cast<double>(j - i)) * burst_score;
        if (entry > 0.0) {
          if (term >= lists.size()) lists.resize(size_t{term} + 1);
          lists[term].push_back(Posting{doc.id, entry});
        }
      }
      i = j;
    }
  }
  engine.index_ = InvertedIndex(std::move(lists));
  return engine;
}

namespace {

// A phase-1 hit of ScoreTermsByCell: one of the term's patterns overlaps
// cell `cell`, and `burst` is the max overlapping score there.
struct TermHit {
  uint32_t cell;
  double burst;
};

// Where a cell's hit lives: hit `k` of score term `slot`.
struct HitRef {
  uint32_t slot;
  uint32_t k;
};

// Phase 2's per-term state, indexed by TermId. A term is a score term of the
// current cell iff cell_epoch matches, and was counted in the current
// document iff doc_epoch matches (then `count` is its frequency there).
struct TermStamp {
  uint32_t cell_epoch = 0;
  uint32_t doc_epoch = 0;
  uint32_t slot = 0;
  uint32_t count = 0;
  double burst = 0.0;
};

}  // namespace

std::vector<std::vector<Posting>> ScoreTermsByCell(
    const Collection& collection, const FrequencyIndex& freq,
    std::span<const TermId> terms, const SearchPatternSource& patterns_for,
    ThreadPool* pool, size_t* tokens_scanned) {
  const size_t num_streams = freq.num_streams();
  const Timestamp window_start = freq.window_start();
  const size_t num_cells =
      static_cast<size_t>(freq.window_length()) * num_streams;
  STB_CHECK(num_cells <= UINT32_MAX) << "window too large for cell ids";

  // Phase 1: per term, on the pool. The term's postings are sorted by
  // (stream, time), so each stream's run starts at `run[stream]`; each
  // pattern binary-searches the run of each of its streams for its
  // timeframe's start and walks to its end. Every posting keeps the maximum
  // score over the patterns that reach it, folded in pattern order as
  // MaxOverlapScore does, and hits come out in posting order, gathered in
  // the worker's scratch and kept in an exactly sized list of their own.
  struct Scratch {
    std::vector<TermPattern> patterns;
    std::vector<uint32_t> run;     // by stream, plus one end
    std::vector<uint8_t> reached;  // by posting index
    std::vector<double> burst;     // by posting index, where reached
    std::vector<TermHit> found;
  };
  const size_t workers = pool != nullptr ? pool->num_threads() + 1 : 1;
  std::vector<std::vector<TermHit>> hits(terms.size());
  std::vector<Scratch> scratch(workers);
  ParallelFor(pool, 0, terms.size(), [&](size_t worker, size_t i) {
    Scratch& w = scratch[worker];
    w.patterns.clear();
    patterns_for(i, &w.patterns);
    if (w.patterns.empty()) return;  // no pattern can overlap: no postings
    const std::vector<TermPosting>& postings = freq.postings(terms[i]);
    w.run.resize(num_streams + 1);
    for (size_t s = 0, k = 0; s <= num_streams; ++s) {
      while (k < postings.size() && postings[k].stream < s) ++k;
      w.run[s] = static_cast<uint32_t>(k);
    }
    w.reached.assign(postings.size(), 0);
    w.burst.resize(postings.size());
    for (const TermPattern& p : w.patterns) {
      for (StreamId stream : p.streams) {
        if (stream >= num_streams) continue;  // holds no posting
        const auto end = postings.begin() + w.run[stream + 1];
        auto it = std::lower_bound(
            postings.begin() + w.run[stream], end, p.timeframe.start,
            [](const TermPosting& q, Timestamp t) { return q.time < t; });
        for (; it != end && it->time <= p.timeframe.end; ++it) {
          const size_t k = static_cast<size_t>(it - postings.begin());
          if (!w.reached[k] || p.score > w.burst[k]) w.burst[k] = p.score;
          w.reached[k] = 1;
        }
      }
    }
    w.found.clear();
    for (size_t k = 0; k < postings.size(); ++k) {
      if (!w.reached[k]) continue;
      const size_t cell =
          static_cast<size_t>(postings[k].time - window_start) * num_streams +
          postings[k].stream;
      w.found.push_back(TermHit{static_cast<uint32_t>(cell), w.burst[k]});
    }
    hits[i].assign(w.found.begin(), w.found.end());
  });

  // Counting sort of references to the hits by cell into one flat buffer.
  // References, not copies: on bench/e2e live_tick (2-vCPU host) copying
  // the hits into cell order raised the peak RSS by 7%, references by 2%.
  std::vector<size_t> cell_begin(num_cells + 1, 0);
  for (const std::vector<TermHit>& list : hits) {
    for (const TermHit& h : list) ++cell_begin[h.cell + 1];
  }
  for (size_t c = 0; c < num_cells; ++c) cell_begin[c + 1] += cell_begin[c];
  std::vector<HitRef> by_cell(cell_begin[num_cells]);
  {
    std::vector<size_t> cursor(cell_begin.begin(), cell_begin.end() - 1);
    for (size_t i = 0; i < hits.size(); ++i) {
      for (size_t k = 0; k < hits[i].size(); ++k) {
        by_cell[cursor[hits[i][k].cell]++] =
            HitRef{static_cast<uint32_t>(i), static_cast<uint32_t>(k)};
      }
    }
  }

  // Phase 2: serially, each touched cell's documents once, counting only
  // the cell's score terms (per-document epoch counting, as in
  // FrequencyIndex::Build). Tokens past the table are no score term's.
  std::vector<std::vector<Posting>> staged(terms.size());
  TermId max_term = 0;
  for (TermId t : terms) max_term = std::max(max_term, t);
  std::vector<TermStamp> table(terms.empty() ? 0 : size_t{max_term} + 1);
  std::vector<TermId> doc_terms;
  uint32_t cell_epoch = 0;
  uint32_t doc_epoch = 0;
  size_t scanned = 0;
  for (size_t cell = 0; cell < num_cells; ++cell) {
    if (cell_begin[cell] == cell_begin[cell + 1]) continue;
    ++cell_epoch;
    for (size_t k = cell_begin[cell]; k < cell_begin[cell + 1]; ++k) {
      const HitRef ref = by_cell[k];
      TermStamp& e = table[terms[ref.slot]];
      e.cell_epoch = cell_epoch;
      e.slot = ref.slot;
      e.burst = hits[ref.slot][ref.k].burst;
    }
    const StreamId stream = static_cast<StreamId>(cell % num_streams);
    const Timestamp time =
        window_start + static_cast<Timestamp>(cell / num_streams);
    for (DocId id : collection.DocumentsAt(stream, time)) {
      const Document& doc = collection.document(id);
      scanned += doc.tokens.size();
      ++doc_epoch;
      doc_terms.clear();
      for (TermId token : doc.tokens) {
        if (token >= table.size()) continue;
        TermStamp& e = table[token];
        if (e.cell_epoch != cell_epoch) continue;
        if (e.doc_epoch != doc_epoch) {
          e.doc_epoch = doc_epoch;
          e.count = 0;
          doc_terms.push_back(token);
        }
        ++e.count;
      }
      for (TermId t : doc_terms) {
        const TermStamp& e = table[t];
        const double entry = Relevance(static_cast<double>(e.count)) * e.burst;
        if (entry > 0.0) staged[e.slot].push_back(Posting{id, entry});
      }
    }
  }
  if (tokens_scanned != nullptr) *tokens_scanned = scanned;
  return staged;
}

TopKResult BurstySearchEngine::Search(const std::string& query, size_t k) const {
  return Search(tokenizer_.TokenizeFrozen(query, collection_->vocabulary()), k);
}

TopKResult BurstySearchEngine::Search(const std::vector<TermId>& query,
                                      size_t k) const {
  return ThresholdTopK(index_, query, k);
}

}  // namespace stburst
