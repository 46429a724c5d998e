#include "src/common/thread_pool.h"

#include <atomic>
#include <memory>

#include "src/common/thread_annotations.h"

namespace cajade {

WorkerPool::WorkerPool(size_t num_threads) {
  if (num_threads < 1) num_threads = 1;
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_cv_.NotifyOne();
}

void WorkerPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) work_cv_.Wait(mu_);
      // Drain the queue even when stopping so ~WorkerPool never drops
      // submitted work (ParallelFor state lives until its tasks finish).
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void WorkerPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (n == 1 || threads_.size() == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Shared by the worker tasks; heap-owned so a task that is still
  // returning after the final notify cannot touch freed stack memory.
  struct ForState {
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    size_t n = 0;
    const std::function<void(size_t)>* fn = nullptr;
    /// Guards nothing by itself — it exists so the completion notify and
    /// the final wait exchange `done` without a missed wakeup. The
    /// counters stay atomics (workers touch them lock-free per iteration).
    Mutex mu;
    CondVar cv;
  };
  auto state = std::make_shared<ForState>();
  state->n = n;
  state->fn = &fn;  // valid: this frame outlives all fn() calls (see wait)
  auto drain = [state] {
    while (true) {
      size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= state->n) return;
      (*state->fn)(i);
      if (state->done.fetch_add(1, std::memory_order_acq_rel) + 1 == state->n) {
        MutexLock lock(state->mu);
        state->cv.NotifyAll();
      }
    }
  };
  size_t tasks = std::min(threads_.size(), n);
  for (size_t t = 0; t < tasks; ++t) Submit(drain);
  // The caller drains its own loop too, instead of only waiting. This is
  // what makes one pool safe to share between concurrent logical callers:
  // a loop always makes progress on the thread that issued it, even when
  // every worker is occupied by another caller's iterations — and a
  // ParallelFor issued from inside a pool task cannot deadlock waiting for
  // workers that are all blocked the same way. It also means total
  // concurrency is num_threads() + 1, counting the caller.
  drain();
  MutexLock lock(state->mu);
  while (state->done.load(std::memory_order_acquire) < state->n) {
    state->cv.Wait(state->mu);
  }
}

size_t WorkerPool::ResolveThreads(int requested) {
  if (requested > 0) return static_cast<size_t>(requested);
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

}  // namespace cajade
