// Minimal threading runtime for the batch mining engine.
//
// ThreadPool is a fixed-size worker pool over one mutex-guarded FIFO queue.
// It does no load balancing of its own: ParallelFor submits one helper task
// per worker, and the helpers balance among themselves by grabbing chunks
// from a shared atomic cursor (so uneven per-item costs — rare heavy terms
// amid a Zipfian tail — still spread evenly). The queue therefore sees a
// handful of hand-offs per loop, not one per item.
// Exceptions thrown by the body are captured and rethrown on the calling
// thread after all workers finish, so invariants outside the loop hold.
//
// Determinism contract: ParallelFor invokes the body exactly once per index
// with a worker id in [0, num_workers); callers that write results into
// index-addressed slots get schedule-independent output.

#ifndef STBURST_COMMON_PARALLEL_H_
#define STBURST_COMMON_PARALLEL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace stburst {

/// Fixed-size worker pool. Threads are created once and live until
/// destruction; Submit() enqueues work, Wait() blocks until all submitted
/// tasks finish. Destruction runs every queued task — including tasks that
/// running tasks submit meanwhile — before joining the workers.
///
/// Scheduling: tasks are taken FIFO from one shared queue, whoever submitted
/// them. No cross-task ordering is guaranteed once several workers run;
/// callers needing deterministic output write into index-addressed slots
/// (what ParallelFor's contract provides).
///
/// Thread-safety: Submit() and Wait() may be called concurrently from any
/// thread; tasks run concurrently with each other and with the submitter.
class ThreadPool {
 public:
  /// `num_threads` 0 means std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues a task. Tasks must not throw; wrap user code that can. If
  /// Submit itself throws (allocation failure), the pool is unchanged: the
  /// task is not queued and Wait() does not count it.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has completed.
  void Wait();

  /// Pops and runs the oldest queued task on the calling thread, if any;
  /// returns whether a task ran. This is how a thread that must wait for
  /// other work on the same pool lends its cycles instead of blocking:
  /// ParallelFor's completion wait calls it, which makes *nested* loops on
  /// one pool safe — an outer loop's workers drain the inner loops' chunks
  /// rather than deadlocking with every worker parked in an inner wait.
  bool TryRunOneTask();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::deque<std::function<void()>> queue_;  // guarded by mu_
  size_t in_flight_ = 0;                     // queued + running; mu_
  bool shutdown_ = false;                    // guarded by mu_
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::vector<std::thread> workers_;
};

/// Resolves a thread-count knob: 0 -> hardware concurrency, floor 1.
size_t ResolveThreadCount(size_t requested);

/// Invokes `body(worker, i)` for every i in [begin, end) across `pool`'s
/// workers with dynamic chunking. `worker` is a stable id in
/// [0, pool->num_threads()] usable to index per-worker scratch — size such
/// scratch pool->num_threads() + 1, since the calling thread participates
/// with the highest id. With a null pool or a single-index range, runs
/// serially on the calling thread with worker id 0.
///
/// The first exception thrown by any invocation — or by the pool's Submit
/// while the loop is being fanned out — is rethrown on the calling thread
/// once the loop has quiesced; remaining chunks are abandoned. No invocation
/// of `body` runs after ParallelFor returns or throws.
///
/// Reentrancy: the body may itself call ParallelFor on the same pool. The
/// completion wait is a helping wait (ThreadPool::TryRunOneTask), so nested
/// fan-out cannot deadlock on a saturated pool.
///
/// Thread-safety: `body` runs concurrently on multiple threads and must be
/// safe for that; per-worker scratch indexed by the worker id is the
/// sanctioned way to keep it allocation- and lock-free. The loop itself
/// costs O((end - begin) / chunk) atomic cursor bumps with chunk ≈
/// range / (8 · workers), and blocks the caller until every index ran.
void ParallelFor(ThreadPool* pool, size_t begin, size_t end,
                 const std::function<void(size_t worker, size_t i)>& body);

/// Convenience overload: creates a transient pool of `num_threads` (see
/// ResolveThreadCount) for one loop. num_threads <= 1 runs serially without
/// spawning anything.
void ParallelFor(size_t num_threads, size_t begin, size_t end,
                 const std::function<void(size_t worker, size_t i)>& body);

}  // namespace stburst

#endif  // STBURST_COMMON_PARALLEL_H_
