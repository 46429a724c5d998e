// A small fixed-size worker pool for the embarrassingly parallel loops in
// the engine (per-join-graph explanation, per-APT mining). Plain
// std::thread + a mutex-protected task queue — no work stealing, no
// external dependencies. Throughput needs are modest: tasks are
// coarse-grained (materialize + mine one APT), so a single shared queue is
// nowhere near contention.
//
// Determinism contract: the pool schedules tasks in submission order but
// completes them in any order. Callers that need reproducible output index
// results by task id and merge after ParallelFor() returns (see
// Explainer::Explain), so the visible result never depends on the
// schedule.
//
// Multi-caller contract: one pool may be shared by any number of concurrent
// logical callers (the serving layer runs every request's fan-out on one
// process-wide pool). Submit is thread-safe; each ParallelFor call is its
// own task group — a heap-owned iteration counter that workers and the
// calling thread drain together — so two concurrent loops never exchange
// iterations and each returns exactly when its own iterations finish. The
// pool has no pool-global barrier: a caller waits only for its own loop.
//
// Ownership: the pool owns its worker threads and the queued task closures;
// callers own whatever state those closures capture. Locking is annotated
// in-line (Mutex / GUARDED_BY below) and checked by the thread-safety CI
// leg.

#ifndef CAJADE_COMMON_THREAD_POOL_H_
#define CAJADE_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "src/common/thread_annotations.h"

namespace cajade {

/// \brief Fixed-size thread pool with a FIFO task queue.
class WorkerPool {
 public:
  /// Spawns `num_threads` workers (values < 1 are clamped to 1; use
  /// ResolveThreads to map a config knob onto a thread count first).
  explicit WorkerPool(size_t num_threads);

  /// Drains outstanding tasks, then joins all workers.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  /// Enqueues a task. Tasks must not throw; Status-style error handling
  /// belongs inside the task (record the error, merge it once the
  /// submitter's own tasks are done, as ParallelFor's callers do).
  void Submit(std::function<void()> task) EXCLUDES(mu_);

  /// Runs fn(0) .. fn(n-1) on the pool and blocks until all calls
  /// returned. Iterations are claimed dynamically (one atomic fetch-add
  /// per iteration), so uneven task costs balance across workers. The
  /// calling thread participates in draining its own loop, so total
  /// concurrency is num_threads() + 1, the loop makes progress even when
  /// every worker is busy with another caller's work, and a ParallelFor
  /// issued from inside a pool task cannot deadlock. Safe to call from any
  /// number of threads concurrently; each call completes independently.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Maps the CajadeConfig::num_threads knob onto a concrete thread
  /// count: 0 = std::thread::hardware_concurrency() (at least 1),
  /// otherwise the requested value.
  static size_t ResolveThreads(int requested);

 private:
  void WorkerLoop() EXCLUDES(mu_);

  /// Immutable after the constructor returns (workers are spawned once and
  /// only joined in the destructor), so reads need no lock.
  std::vector<std::thread> threads_;
  Mutex mu_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  CondVar work_cv_;  ///< signals workers: queue non-empty/stop
  bool stop_ GUARDED_BY(mu_) = false;
};

}  // namespace cajade

#endif  // CAJADE_COMMON_THREAD_POOL_H_
