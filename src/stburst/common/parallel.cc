#include "stburst/common/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <utility>

#include "stburst/common/fault_injection.h"

namespace stburst {

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t n = ResolveThreadCount(num_threads);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_available_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  STBURST_FAULT_POINT_THROW("pool.submit");
  {
    std::lock_guard<std::mutex> lock(mu_);
    // push_back is all-or-nothing, and the count moves only once the task
    // is queued, so a throw here leaves the pool exactly as it was.
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

bool ThreadPool::TryRunOneTask() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  task();
  // Destroy the task's captures before it counts as done, so Wait()
  // returning means nothing a task captured is still referenced.
  task = nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  if (--in_flight_ == 0) all_done_.notify_all();
  return true;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(lock,
                           [this] { return shutdown_ || !queue_.empty(); });
      // Drained shutdown. A task still running on another worker may queue
      // more work after this, but that worker comes back to the queue
      // before it can exit, so nothing is orphaned.
      if (queue_.empty()) return;
    }
    // Another thread may take the task first; then this finds none and
    // the loop waits again.
    TryRunOneTask();
  }
}

size_t ResolveThreadCount(size_t requested) {
  if (requested > 0) return requested;
  size_t hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

namespace {

// Shared state of one ParallelFor call: the chunk cursor, a per-call
// completion latch (so concurrent loops on a shared pool don't wait on each
// other), and the first captured exception.
struct LoopState {
  std::atomic<size_t> next{0};
  size_t end = 0;
  size_t chunk = 1;
  std::atomic<bool> failed{false};
  std::mutex mu;
  std::condition_variable done;
  size_t outstanding = 0;
  std::exception_ptr error;
};

// Called from a catch block: keeps the first exception and stops every
// participant from claiming further chunks.
void RecordFailure(LoopState* state) {
  std::unique_lock<std::mutex> lock(state->mu);
  if (!state->error) state->error = std::current_exception();
  state->failed.store(true, std::memory_order_relaxed);
}

void RunChunks(LoopState* state, size_t worker,
               const std::function<void(size_t, size_t)>& body) {
  for (;;) {
    if (state->failed.load(std::memory_order_relaxed)) return;
    size_t start = state->next.fetch_add(state->chunk, std::memory_order_relaxed);
    if (start >= state->end) return;
    size_t stop = std::min(state->end, start + state->chunk);
    try {
      for (size_t i = start; i < stop; ++i) body(worker, i);
    } catch (...) {
      RecordFailure(state);
      return;
    }
  }
}

}  // namespace

void ParallelFor(ThreadPool* pool, size_t begin, size_t end,
                 const std::function<void(size_t, size_t)>& body) {
  if (end <= begin) return;
  const size_t n = end - begin;
  const size_t helpers = pool == nullptr ? 0 : pool->num_threads();
  if (helpers == 0 || n == 1) {
    for (size_t i = begin; i < end; ++i) body(0, i);
    return;
  }

  auto state = std::make_shared<LoopState>();
  state->next.store(begin);
  state->end = end;
  // ~8 chunks per worker balances Zipf-skewed per-item costs against cursor
  // contention.
  state->chunk = std::max<size_t>(1, n / (8 * (helpers + 1)));
  state->outstanding = helpers;

  size_t submitted = 0;
  try {
    for (; submitted < helpers; ++submitted) {
      pool->Submit([state, w = submitted, &body] {
        RunChunks(state.get(), w, body);
        std::unique_lock<std::mutex> lock(state->mu);
        if (--state->outstanding == 0) state->done.notify_all();
      });
    }
  } catch (...) {
    // A failed Submit queued nothing. The helpers already queued hold
    // `body` by reference, so the loop must still quiesce before the
    // exception leaves: fail the loop (they claim no further chunk) and
    // stop counting the helpers that were never queued.
    RecordFailure(state.get());
    std::unique_lock<std::mutex> lock(state->mu);
    state->outstanding -= helpers - submitted;
  }
  // The calling thread participates with the highest worker id.
  RunChunks(state.get(), helpers, body);
  // Helping wait: while this loop's helper tasks are outstanding, run other
  // queued pool tasks instead of blocking. A helper of *this* loop may be
  // queued behind tasks of a sibling loop (nested fan-out on a shared
  // pool); executing whatever TryRunOneTask finds keeps every loop
  // progressing. The timed wait covers the gap where no task is visible
  // but a nested body is about to submit — our own helpers' completion
  // still notifies promptly through `done`.
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(state->mu);
      if (state->outstanding == 0) break;
    }
    if (pool->TryRunOneTask()) continue;
    std::unique_lock<std::mutex> lock(state->mu);
    state->done.wait_for(lock, std::chrono::milliseconds(1),
                         [&] { return state->outstanding == 0; });
  }
  if (state->error) std::rethrow_exception(state->error);
}

void ParallelFor(size_t num_threads, size_t begin, size_t end,
                 const std::function<void(size_t, size_t)>& body) {
  size_t n = ResolveThreadCount(num_threads);
  if (n <= 1) {
    ParallelFor(nullptr, begin, end, body);
    return;
  }
  // The calling thread works too, so one fewer pool thread suffices.
  ThreadPool pool(n - 1);
  ParallelFor(&pool, begin, end, body);
}

}  // namespace stburst
