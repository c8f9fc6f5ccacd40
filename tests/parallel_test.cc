// Tests for the threading runtime (common/parallel).

#include "stburst/common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <new>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace stburst {
namespace {

TEST(ThreadPool, ExecutesEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitOnIdlePoolReturns) {
  ThreadPool pool(2);
  pool.Wait();  // nothing queued: must not block
}

TEST(ThreadPool, DestructionDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 50; ++i) pool.Submit([&count] { count.fetch_add(1); });
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ResolveThreadCount, ZeroMeansHardwareConcurrency) {
  EXPECT_GE(ResolveThreadCount(0), 1u);
  EXPECT_EQ(ResolveThreadCount(7), 7u);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    std::vector<std::atomic<int>> visits(1000);
    for (auto& v : visits) v.store(0);
    ParallelFor(threads, 0, visits.size(),
                [&](size_t /*worker*/, size_t i) { visits[i].fetch_add(1); });
    for (size_t i = 0; i < visits.size(); ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ParallelFor, WorkerIdsIndexBoundedScratch) {
  const size_t threads = 4;
  std::vector<std::atomic<long>> per_worker(threads);
  for (auto& v : per_worker) v.store(0);
  ParallelFor(threads, 0, 10000, [&](size_t worker, size_t i) {
    ASSERT_LT(worker, threads);
    per_worker[worker].fetch_add(static_cast<long>(i));
  });
  long total = 0;
  for (auto& v : per_worker) total += v.load();
  EXPECT_EQ(total, 10000L * 9999L / 2);
}

TEST(ParallelFor, EmptyAndSingletonRanges) {
  int calls = 0;
  ParallelFor(size_t{4}, 5, 5, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ParallelFor(size_t{4}, 7, 8, [&](size_t worker, size_t i) {
    EXPECT_EQ(worker, 0u);
    EXPECT_EQ(i, 7u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, NonZeroBegin) {
  std::atomic<long> sum{0};
  ParallelFor(size_t{3}, 100, 200,
              [&](size_t, size_t i) { sum.fetch_add(static_cast<long>(i)); });
  long expect = 0;
  for (long i = 100; i < 200; ++i) expect += i;
  EXPECT_EQ(sum.load(), expect);
}

TEST(ParallelFor, PropagatesFirstException) {
  EXPECT_THROW(
      ParallelFor(size_t{4}, 0, 1000,
                  [&](size_t, size_t i) {
                    if (i == 537) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
}

TEST(ParallelFor, ExactlyOneExceptionPropagatesWhenManyThrow) {
  // Every index throws; the loop must rethrow exactly one (the first
  // captured), quiesce the rest, and leave the count proving no index ran
  // twice.
  std::atomic<size_t> attempts{0};
  try {
    ParallelFor(size_t{4}, 0, 64, [&](size_t, size_t i) {
      attempts.fetch_add(1);
      throw std::runtime_error("worker " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("worker"), std::string::npos);
  }
  EXPECT_LE(attempts.load(), 64u);
  EXPECT_GE(attempts.load(), 1u);
}

TEST(ParallelFor, SerialPathPropagatesToo) {
  // The null-pool inline path takes a different code route than the pooled
  // one; its exception contract must match.
  EXPECT_THROW(ParallelFor(static_cast<ThreadPool*>(nullptr), 0, 10,
                           [&](size_t, size_t i) {
                             if (i == 7) throw std::runtime_error("inline");
                           }),
               std::runtime_error);
}

TEST(ParallelFor, PropagatesBadAllocFromWorkers) {
  ThreadPool pool(3);
  EXPECT_THROW(ParallelFor(&pool, 0, 100,
                           [&](size_t, size_t i) {
                             if (i == 37) throw std::bad_alloc();
                           }),
               std::bad_alloc);
}

TEST(ParallelFor, PoolStaysUsableAfterAnException) {
  // FeedRuntime reuses one standing pool across ticks; a tick that died on
  // a worker exception must leave the pool fully serviceable.
  ThreadPool pool(3);
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(ParallelFor(&pool, 0, 50,
                             [&](size_t, size_t i) {
                               if (i % 2 == 0) {
                                 throw std::runtime_error("boom");
                               }
                             }),
                 std::runtime_error);
    std::atomic<long> sum{0};
    ParallelFor(&pool, 0, 100, [&](size_t, size_t i) {
      sum.fetch_add(static_cast<long>(i));
    });
    EXPECT_EQ(sum.load(), 99L * 100L / 2);
  }
}

// Deterministic busy-work whose cost follows a Zipf-like skew: the first
// tasks dominate, so a worker that keeps its own (LIFO) tail busy leaves the
// heavy head for thieves — the steal-heavy regime the deques exist for.
double ZipfBusyWork(size_t i) {
  size_t iters = 20000 / (i + 1) + 10;
  double acc = 0.0;
  for (size_t k = 0; k < iters; ++k) {
    acc += std::sin(static_cast<double>(k + i));
  }
  return acc;
}

TEST(ThreadPool, ZipfFanOutDeterministicAcrossThreadCounts) {
  // Each task writes its result into its own index slot, so the output must
  // be independent of which worker ran what and in what order. Children are
  // submitted from inside workers: they land on the submitting worker's own
  // deque and reach other workers only by stealing.
  constexpr size_t kGenerators = 8;
  constexpr size_t kChildren = 32;
  constexpr size_t kTasks = kGenerators * kChildren;
  auto run = [&](size_t threads) {
    std::vector<double> out(kTasks, 0.0);
    ThreadPool pool(threads);
    for (size_t g = 0; g < kGenerators; ++g) {
      pool.Submit([&pool, &out, g] {
        for (size_t c = 0; c < kChildren; ++c) {
          const size_t i = g * kChildren + c;
          pool.Submit([&out, i] { out[i] = ZipfBusyWork(i); });
        }
      });
    }
    pool.Wait();
    return out;
  };
  const std::vector<double> reference = run(1);
  for (size_t threads : {2u, 4u, 8u}) {
    EXPECT_EQ(run(threads), reference) << threads << " threads";
  }
}

TEST(ThreadPool, NestedGeneratorSubmitsStress) {
  // Wait() must count grandchildren submitted from inside running tasks,
  // and shutdown must not orphan work a worker queued onto its own deque.
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int g = 0; g < 8; ++g) {
    pool.Submit([&pool, &count] {
      for (int c = 0; c < 100; ++c) {
        pool.Submit([&count] { count.fetch_add(1); });
      }
    });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 800);
}

TEST(ThreadPool, PinThreadsSmokeTest) {
  // Pinning is best-effort (and a no-op off Linux); the pool must behave
  // identically either way.
  ThreadPoolOptions options;
  options.num_threads = 2;
  options.pin_threads = true;
  ThreadPool pool(options);
  EXPECT_EQ(pool.num_threads(), 2u);
  std::atomic<long> sum{0};
  ParallelFor(&pool, 0, 1000,
              [&](size_t, size_t i) { sum.fetch_add(static_cast<long>(i)); });
  EXPECT_EQ(sum.load(), 999L * 1000L / 2);
}

TEST(ParallelFor, SharedPoolRunsMultipleLoops) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  for (int round = 0; round < 5; ++round) {
    ParallelFor(&pool, 0, 100,
                [&](size_t, size_t i) { sum.fetch_add(static_cast<long>(i)); });
  }
  EXPECT_EQ(sum.load(), 5 * (99L * 100L / 2));
}

TEST(ParallelFor, NestedLoopsOnOneSaturatedPoolComplete) {
  // More outer bodies than workers, each fanning an inner loop across the
  // same pool: every worker ends up waiting on an inner loop, which only
  // completes because the wait helps run queued chunks.
  ThreadPool pool(2);
  std::vector<std::atomic<long>> sums(16);
  for (auto& s : sums) s.store(0);
  ParallelFor(&pool, 0, sums.size(), [&](size_t, size_t outer) {
    ParallelFor(&pool, 0, 200, [&](size_t, size_t i) {
      sums[outer].fetch_add(static_cast<long>(i));
    });
  });
  for (size_t o = 0; o < sums.size(); ++o) {
    EXPECT_EQ(sums[o].load(), 199L * 200L / 2) << "outer " << o;
  }
}

}  // namespace
}  // namespace stburst
