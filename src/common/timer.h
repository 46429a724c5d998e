// Wall-clock timing helpers and the per-step profiler used to reproduce the
// paper's runtime-breakdown tables (Feature Selection / Gen. Pat. Cand. /
// F-score Calc. / Materialize APTs / Refine Patterns / Rank Top-k /
// Sampling for F1 / JG Enum.).
//
// Ownership and thread-safety: timers and profilers are caller-owned,
// single-stream objects — one thread starts/stops a given instance; they are
// not internally synchronized.

#ifndef CAJADE_COMMON_TIMER_H_
#define CAJADE_COMMON_TIMER_H_

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace cajade {

/// Simple wall-clock stopwatch.
class Timer {
 public:
  Timer() { Restart(); }
  void Restart() { start_ = Clock::now(); }
  /// Seconds elapsed since construction or the last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// \brief Accumulates named step timings across an algorithm run.
///
/// Steps may be entered repeatedly; times accumulate. The step names mirror
/// the rows of the paper's breakdown tables.
class StepProfiler {
 public:
  /// Adds `seconds` to the accumulated time of `step`.
  void Add(const std::string& step, double seconds) { totals_[step] += seconds; }

  /// Accumulated seconds for `step` (0 if never entered).
  double Get(const std::string& step) const {
    auto it = totals_.find(step);
    return it == totals_.end() ? 0.0 : it->second;
  }

  /// Sum over all steps.
  double Total() const {
    double t = 0;
    for (const auto& [_, v] : totals_) t += v;
    return t;
  }

  void Clear() { totals_.clear(); }

  const std::map<std::string, double>& totals() const { return totals_; }

 private:
  std::map<std::string, double> totals_;
};

/// RAII guard that charges its lifetime to a profiler step. A null profiler
/// is allowed (no-op), so instrumented code paths need no branches.
class ScopedStep {
 public:
  ScopedStep(StepProfiler* profiler, std::string step)
      : profiler_(profiler), step_(std::move(step)) {}
  ~ScopedStep() {
    if (profiler_ != nullptr) profiler_->Add(step_, timer_.ElapsedSeconds());
  }
  ScopedStep(const ScopedStep&) = delete;
  ScopedStep& operator=(const ScopedStep&) = delete;

 private:
  StepProfiler* profiler_;
  std::string step_;
  Timer timer_;
};

}  // namespace cajade

#endif  // CAJADE_COMMON_TIMER_H_
