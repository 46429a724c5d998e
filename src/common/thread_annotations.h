// Compile-time concurrency contracts: Clang Thread Safety Analysis macros
// and the annotated synchronization primitives every module must use.
//
// The locking rules of the concurrent layers (WorkerPool, ExplainServer's
// request slots, the process-wide caches) used to live only in comments,
// checked dynamically by the TSan CI leg on whatever paths the tests
// happened to exercise. These annotations move the rules into the type
// system: a field declared GUARDED_BY(mu_) cannot be touched without
// holding mu_, a method declared REQUIRES(mu_) cannot be called without
// it, and the Clang-ThreadSafety CI leg builds the whole tree with
// -Werror=thread-safety so violations fail to compile. Under non-Clang
// compilers every macro expands to nothing.
//
// Ownership and thread-safety: this header owns the repository's only
// std::mutex / std::condition_variable — tools/lint_contracts.py rejects
// naked standard primitives anywhere else, so all lock state flows through
// the annotated Mutex/MutexLock/CondVar wrappers below and stays visible
// to the analysis. The wrappers add no state and no overhead beyond the
// wrapped primitive.
//
// Conventions (docs/STATIC_ANALYSIS.md walks through each with examples):
//  - every mutex-protected field is GUARDED_BY its mutex;
//  - private helpers that expect the caller to hold a lock are named
//    *Locked and annotated REQUIRES(mu_);
//  - public methods that take a lock internally are annotated
//    EXCLUDES(mu_) so accidental re-entry fails to compile;
//  - condition waits are explicit while-loops around CondVar::Wait —
//    predicate lambdas cannot carry capability attributes, so the loop
//    form is what keeps the guarded reads inside the analyzed region.

#ifndef CAJADE_COMMON_THREAD_ANNOTATIONS_H_
#define CAJADE_COMMON_THREAD_ANNOTATIONS_H_

#include <condition_variable>
#include <mutex>

// Attribute shims: real attributes under Clang (any build — the analysis
// itself only fires with -Wthread-safety, which the CAJADE_THREAD_SAFETY
// CMake option turns on and promotes to an error), no-ops elsewhere.
#if defined(__clang__)
#define CAJADE_TSA_ATTRIBUTE(x) __attribute__((x))
#else
#define CAJADE_TSA_ATTRIBUTE(x)  // no-op
#endif

#define CAPABILITY(x) CAJADE_TSA_ATTRIBUTE(capability(x))
#define SCOPED_CAPABILITY CAJADE_TSA_ATTRIBUTE(scoped_lockable)
#define GUARDED_BY(x) CAJADE_TSA_ATTRIBUTE(guarded_by(x))
#define PT_GUARDED_BY(x) CAJADE_TSA_ATTRIBUTE(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) CAJADE_TSA_ATTRIBUTE(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) CAJADE_TSA_ATTRIBUTE(acquired_after(__VA_ARGS__))
#define REQUIRES(...) \
  CAJADE_TSA_ATTRIBUTE(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  CAJADE_TSA_ATTRIBUTE(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) CAJADE_TSA_ATTRIBUTE(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  CAJADE_TSA_ATTRIBUTE(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) CAJADE_TSA_ATTRIBUTE(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  CAJADE_TSA_ATTRIBUTE(release_shared_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) \
  CAJADE_TSA_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))
#define EXCLUDES(...) CAJADE_TSA_ATTRIBUTE(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) CAJADE_TSA_ATTRIBUTE(assert_capability(x))
#define RETURN_CAPABILITY(x) CAJADE_TSA_ATTRIBUTE(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS \
  CAJADE_TSA_ATTRIBUTE(no_thread_safety_analysis)

namespace cajade {

/// \brief Annotated exclusive mutex over std::mutex.
///
/// Prefer the scoped MutexLock; call Lock/Unlock directly only where a
/// scope cannot express the protocol (none of the current callers need to).
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// \brief RAII scoped lock of a Mutex (the std::lock_guard counterpart).
///
/// SCOPED_CAPABILITY makes the analysis track the guarded region as the
/// lexical scope of this object: fields GUARDED_BY the mutex are
/// accessible between construction and destruction and nowhere else.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// \brief Condition variable bound to the annotated Mutex.
///
/// Wait atomically releases `mu` and reacquires it before returning, like
/// std::condition_variable::wait. The analysis models the capability as
/// held across the call (REQUIRES), which is exactly the caller-visible
/// contract; spurious wakeups are possible, so callers loop:
///
///   MutexLock lock(mu_);
///   while (!predicate_over_guarded_fields) cv_.Wait(mu_);
///
/// There is deliberately no predicate overload: a lambda cannot carry the
/// REQUIRES attribute, so a predicate form would move guarded reads out of
/// the analyzed region. The while-loop keeps them checkable.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) REQUIRES(mu) {
    // Adopt the already-held std::mutex for the duration of the wait; the
    // release() afterwards returns ownership to the caller's MutexLock so
    // the mutex is not unlocked twice.
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  /// One targeted wakeup (the request slots' direct handoff depends on
  /// waking exactly the granted waiter — see ExplainServer).
  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace cajade

#endif  // CAJADE_COMMON_THREAD_ANNOTATIONS_H_
