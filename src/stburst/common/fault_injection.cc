#include "stburst/common/fault_injection.h"

#ifdef STBURST_FAULT_INJECTION

#include <atomic>
#include <new>

#include "stburst/common/logging.h"
#include "stburst/common/string_util.h"

namespace stburst::fault {

namespace {

// One registry slot per site. Hit counting and the armed trigger are
// lock-free so pool workers pay two relaxed atomic ops per pass-through
// hit; arming/disarming happens only on the (externally serialized) test
// thread.
struct SiteState {
  const char* name;
  std::atomic<size_t> hits{0};
  std::atomic<size_t> fail_at_hit{0};  // 0 = disarmed
  std::atomic<int> kind{0};            // FailureKind when armed
};

// The central registry: every STBURST_FAULT_POINT* site in the library.
// Keep in lockstep with the call sites — MaybeFail CHECK-fails on an
// unregistered name, so a site added in code but not here dies loudly the
// first time it runs in a fault build, and the sweep test (which iterates
// this list) proves tick atomicity for every entry.
SiteState g_sites[] = {
    {"collection.append"},        // Collection::Append, before any mutation
    {"collection.evict"},         // Collection::EvictBefore, before any mutation
    {"frequency.append_splice"},  // per-term splice worker in AppendSnapshot
    {"frequency.evict"},          // per-term evict worker in EvictBefore
    {"batch_miner.mine_term"},    // per-term mining worker (MineAllTerms /
                                  // RemineTerms / staged re-mines)
    {"runtime.remine"},           // FeedRuntime staging, before the re-mine
    {"runtime.search_update"},    // per-term search-posting staging (pool
                                  // workers in StageSearchPostings)
    {"index.evict"},              // InvertedIndex::EvictBefore, before any
                                  // mutation
    {"runtime.publish"},          // after the next search snapshot is fully
                                  // built, before its publication swap
    {"history.fold"},             // FeedRuntime ingest, on an evicting tick
                                  // with history on, before the evicted
                                  // postings fold into the cold tier
};

SiteState* FindSite(std::string_view name) {
  for (SiteState& site : g_sites) {
    if (name == site.name) return &site;
  }
  return nullptr;
}

SiteState* FindSiteOrDie(std::string_view name) {
  SiteState* site = FindSite(name);
  STB_CHECK(site != nullptr) << "unregistered fault-injection site \"" << name
                             << "\" (add it to fault_injection.cc)";
  return site;
}

// Returns the failure to apply for this hit, or FailureKind-as-(-1) when
// the hit passes through.
int CountHit(SiteState* site) {
  const size_t hit = site->hits.fetch_add(1, std::memory_order_relaxed) + 1;
  const size_t fail_at = site->fail_at_hit.load(std::memory_order_relaxed);
  if (fail_at == 0 || hit != fail_at) return -1;
  return site->kind.load(std::memory_order_relaxed);
}

}  // namespace

std::vector<std::string_view> RegisteredSites() {
  std::vector<std::string_view> names;
  for (const SiteState& site : g_sites) names.emplace_back(site.name);
  return names;
}

void Arm(std::string_view name, size_t nth_hit, FailureKind kind) {
  STB_CHECK(nth_hit > 0) << "fault sites arm on a 1-based hit count";
  SiteState* site = FindSiteOrDie(name);
  site->hits.store(0, std::memory_order_relaxed);
  site->kind.store(static_cast<int>(kind), std::memory_order_relaxed);
  site->fail_at_hit.store(nth_hit, std::memory_order_relaxed);
}

void DisarmAll() {
  for (SiteState& site : g_sites) {
    site.fail_at_hit.store(0, std::memory_order_relaxed);
    site.hits.store(0, std::memory_order_relaxed);
  }
}

size_t HitCount(std::string_view name) {
  return FindSiteOrDie(name)->hits.load(std::memory_order_relaxed);
}

namespace internal {

Status MaybeFail(const char* name) {
  const int kind = CountHit(FindSiteOrDie(name));
  if (kind < 0) return Status::OK();
  if (kind == static_cast<int>(FailureKind::kBadAlloc)) throw std::bad_alloc();
  return Status::Internal(
      StringPrintf("injected fault at \"%s\"", name));
}

void MaybeFailThrow(const char* name) {
  const int kind = CountHit(FindSiteOrDie(name));
  if (kind < 0) return;
  if (kind == static_cast<int>(FailureKind::kBadAlloc)) throw std::bad_alloc();
  throw FaultInjected(
      StringPrintf("injected fault at \"%s\"", name));
}

}  // namespace internal

}  // namespace stburst::fault

#endif  // STBURST_FAULT_INJECTION
