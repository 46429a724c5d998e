// Test helper shared by the cache tests (once_lru_cache_test, parallel_test,
// serve_test): a lookup that waits on a build which then fails.

#ifndef CAJADE_TESTS_CACHE_TEST_UTIL_H_
#define CAJADE_TESTS_CACHE_TEST_UTIL_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include "src/common/status.h"

namespace cajade {

/// Runs 1 + `waiters` lookups of one key, each on its own thread.
/// `lookup(build)` performs one lookup with `build` and handles the
/// failure. The first caller's build holds until every other caller has
/// been started, lingers 50 ms so they reach the wait on it, then returns
/// fail(). A caller that arrives after the failure builds with fail()
/// itself; either way no caller gets a value.
template <typename V, typename Lookup>
void LookUpWhileBuildFails(const Lookup& lookup,
                           const std::function<Result<V>()>& fail,
                           int waiters = 1) {
  std::atomic<bool> building{false};
  std::atomic<bool> others_started{false};
  const std::function<Result<V>()> first_build = [&]() -> Result<V> {
    building.store(true);
    while (!others_started.load()) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return fail();
  };
  std::thread first([&] { lookup(first_build); });
  while (!building.load()) std::this_thread::yield();
  std::vector<std::thread> others;
  for (int i = 0; i < waiters; ++i) others.emplace_back([&] { lookup(fail); });
  others_started.store(true);
  first.join();
  for (auto& t : others) t.join();
}

}  // namespace cajade

#endif  // CAJADE_TESTS_CACHE_TEST_UTIL_H_
