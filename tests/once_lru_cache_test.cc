// OnceLruCache protocol tests on a small value type (std::string, charged
// its length): single-flight builds, failure propagation, lookup
// accounting, tag invalidation, stamps, LRU order and the byte bound. The
// TSan CI job runs this binary, so the concurrent cases double as race
// detectors.

#include "src/common/once_lru_cache.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "tests/cache_test_util.h"

namespace cajade {
namespace {

using Cache = OnceLruCache<std::string>;

size_t StringBytes(const std::string& s) { return s.size(); }

Cache::BuildFn Value(const std::string& v) {
  return [v] { return Result<std::string>(v); };
}

/// A build that must not run (the lookup is expected to be served).
Cache::BuildFn NoBuild() {
  return []() -> Result<std::string> {
    ADD_FAILURE() << "unexpected build";
    return Status::Internal("unexpected build");
  };
}

std::string Get(Cache& cache, const std::string& key,
                const std::string& tag = "") {
  Result<Cache::ValuePtr> r = cache.GetOrBuild(key, tag, NoBuild());
  return r.ok() ? **r : "<" + r.status().ToString() + ">";
}

TEST(OnceLruCacheTest, ConcurrentLookupsBuildEachKeyOnce) {
  constexpr int kThreads = 8;
  constexpr int kKeys = 6;
  constexpr int kIters = 40;
  Cache cache(size_t{1} << 20, &StringBytes);
  std::array<std::atomic<int>, kKeys> builds{};
  std::array<Cache::ValuePtr, kKeys> first_seen;
  Mutex first_seen_mu;
  std::atomic<bool> failed{false};
  auto worker = [&](int tid) {
    for (int iter = 0; iter < kIters; ++iter) {
      for (int k = 0; k < kKeys; ++k) {
        int key = (k + tid) % kKeys;  // stagger so builders and waiters mix
        auto r = cache.GetOrBuild("k" + std::to_string(key), [&, key] {
          builds[key].fetch_add(1);
          return Result<std::string>("v" + std::to_string(key));
        });
        if (!r.ok() || **r != "v" + std::to_string(key)) {
          failed.store(true);
          continue;
        }
        MutexLock lock(first_seen_mu);
        if (first_seen[key] == nullptr) first_seen[key] = *r;
        if (first_seen[key] != *r) failed.store(true);  // a second value
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& t : threads) t.join();

  EXPECT_FALSE(failed.load());
  for (int k = 0; k < kKeys; ++k) EXPECT_EQ(builds[k].load(), 1) << k;
  Cache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, static_cast<size_t>(kKeys));
  EXPECT_EQ(s.hits + s.misses,
            static_cast<size_t>(kThreads) * kKeys * kIters);
  EXPECT_EQ(s.evictions, 0u);
}

TEST(OnceLruCacheTest, FailedBuildReachesEveryWaiterAndIsNotCached) {
  for (bool throws : {false, true}) {
    SCOPED_TRACE(throws ? "exception" : "status");
    Cache cache(size_t{1} << 20, &StringBytes);
    std::atomic<int> failures{0};
    const Cache::BuildFn fail = [throws]() -> Result<std::string> {
      if (throws) throw std::runtime_error("build threw");
      return Status::OutOfRange("build failed");
    };
    auto lookup = [&](const Cache::BuildFn& build) {
      try {
        Result<Cache::ValuePtr> r = cache.GetOrBuild("k", build);
        if (!r.ok() && r.status().message() == "build failed") ++failures;
      } catch (const std::runtime_error& e) {
        if (std::string(e.what()) == "build threw") ++failures;
      }
    };
    LookUpWhileBuildFails<std::string>(lookup, fail, /*waiters=*/4);

    EXPECT_EQ(failures.load(), 5);
    Cache::Stats s = cache.stats();
    // No lookup returned a value, so none is a hit.
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.misses, 5u);
    EXPECT_EQ(s.bytes_in_use, 0u);
    // Not cached: the next lookup builds.
    auto r = cache.GetOrBuild("k", Value("ok"));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(**r, "ok");
    EXPECT_EQ(cache.misses(), 6u);
  }
}

TEST(OnceLruCacheTest, TagMismatchInvalidatesAndRebuilds) {
  Cache cache(size_t{1} << 20, &StringBytes);
  ASSERT_EQ(**cache.GetOrBuild("k", "t1", Value("old")), "old");
  EXPECT_EQ(Get(cache, "k", "t1"), "old");
  EXPECT_EQ(cache.bytes_in_use(), 3u + 1u + 2u);  // value + key + tag

  auto fresh = cache.GetOrBuild("k", "t2", Value("fresher"));
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(**fresh, "fresher");
  EXPECT_EQ(Get(cache, "k", "t2"), "fresher");
  Cache::Stats s = cache.stats();
  EXPECT_EQ(s.invalidations, 1u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.bytes_in_use, 7u + 1u + 2u);  // the old entry's bytes are gone
}

TEST(OnceLruCacheTest, EntryInvalidatedMidBuildServesOnlyItsOwnCallers) {
  Cache cache(size_t{1} << 20, &StringBytes);
  std::atomic<bool> building{false};
  std::atomic<bool> release{false};
  std::string builder_got;
  std::string waiter_got;
  std::thread builder([&] {
    builder_got = **cache.GetOrBuild("k", "old", [&] {
      building.store(true);
      while (!release.load()) std::this_thread::yield();
      return Result<std::string>("stale");
    });
  });
  while (!building.load()) std::this_thread::yield();
  std::thread waiter([&] { waiter_got = Get(cache, "k", "old"); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // A lookup with a new tag detaches the in-flight entry and builds its own.
  auto fresh = cache.GetOrBuild("k", "new", Value("fresh"));
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(**fresh, "fresh");
  EXPECT_EQ(cache.invalidations(), 1u);
  release.store(true);
  builder.join();
  waiter.join();

  // The detached build answered its own callers...
  EXPECT_EQ(builder_got, "stale");
  EXPECT_EQ(waiter_got, "stale");
  // ...but was not retained and did not displace its replacement.
  EXPECT_EQ(Get(cache, "k", "new"), "fresh");
  EXPECT_EQ(cache.bytes_in_use(), 5u + 1u + 3u);
  Cache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, 2u);  // the stale build and the fresh one
  EXPECT_EQ(s.hits, 2u);    // the stale waiter and the last lookup
}

TEST(OnceLruCacheTest, LruVictimOrderFollowsTouches) {
  // Each entry is charged 10 (value) + 1 (key) bytes; three fit.
  Cache cache(33, &StringBytes);
  const std::string ten(10, 'x');
  for (const char* key : {"a", "b", "c"}) {
    ASSERT_TRUE(cache.GetOrBuild(key, Value(ten)).ok());
  }
  EXPECT_EQ(Get(cache, "a"), ten);  // a is now the most recently used
  ASSERT_TRUE(cache.GetOrBuild("d", Value(ten)).ok());
  EXPECT_EQ(cache.evictions(), 1u);  // b was the least recently used
  EXPECT_EQ(Get(cache, "c"), ten);
  EXPECT_EQ(Get(cache, "a"), ten);
  ASSERT_TRUE(cache.GetOrBuild("e", Value(ten)).ok());
  EXPECT_EQ(cache.evictions(), 2u);  // then d
  for (const char* key : {"a", "c", "e"}) EXPECT_EQ(Get(cache, key), ten);

  std::atomic<int> rebuilds{0};
  for (const char* key : {"b", "d"}) {
    auto r = cache.GetOrBuild(key, [&] {
      ++rebuilds;
      return Result<std::string>("y");
    });
    ASSERT_TRUE(r.ok());
  }
  EXPECT_EQ(rebuilds.load(), 2);
}

TEST(OnceLruCacheTest, OversizeEntryIsEvictedOnInsertButReturned) {
  Cache cache(5, &StringBytes);
  auto r = cache.GetOrBuild("big", Value("0123456789"));
  ASSERT_TRUE(r.ok());
  Cache::ValuePtr held = *r;
  Cache::Stats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.bytes_in_use, 0u);
  EXPECT_EQ(*held, "0123456789");  // the caller's reference outlives eviction
  // Nothing retained: the next lookup builds again.
  ASSERT_TRUE(cache.GetOrBuild("big", Value("0123456789")).ok());
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(OnceLruCacheTest, PeakIsAHighWaterMark) {
  Cache cache(100, &StringBytes);
  ASSERT_TRUE(cache.GetOrBuild("a", Value("0123456789")).ok());
  ASSERT_TRUE(cache.GetOrBuild("b", Value("0123456789")).ok());
  EXPECT_EQ(cache.peak_bytes(), 22u);
  // A new tag detaches b's 11 bytes and rebuilds it with 3.
  ASSERT_TRUE(cache.GetOrBuild("b", "t", Value("0")).ok());
  EXPECT_EQ(cache.invalidations(), 1u);
  EXPECT_EQ(cache.bytes_in_use(), 14u);
  EXPECT_EQ(cache.peak_bytes(), 22u);  // shrinking does not lower the peak
  for (const char* key : {"c", "d"}) {
    ASSERT_TRUE(cache.GetOrBuild(key, Value("0123456789")).ok());
  }
  EXPECT_EQ(cache.bytes_in_use(), 36u);
  EXPECT_EQ(cache.peak_bytes(), 36u);
}

/// A cache whose stamp is an int; a lookup's `is_current` compares it.
using StampedCache = OnceLruCache<std::string, int>;

auto StampIs(int want) {
  return [want](int stamp) { return stamp == want; };
}

TEST(OnceLruCacheTest, GetIfCurrentServesTheStampOfTheLastServedLookup) {
  StampedCache cache(size_t{1} << 20, &StringBytes);
  EXPECT_EQ(cache.GetIfCurrent("k", StampIs(1)), nullptr);  // no entry
  ASSERT_TRUE(cache.GetOrBuild("k", "t", 1, Value("v")).ok());
  StampedCache::ValuePtr served = cache.GetIfCurrent("k", StampIs(1));
  ASSERT_NE(served, nullptr);
  EXPECT_EQ(*served, "v");
  EXPECT_EQ(cache.GetIfCurrent("k", StampIs(2)), nullptr);

  // A lookup served under the entry's tag re-stamps it...
  ASSERT_EQ(**cache.GetOrBuild("k", "t", 2, NoBuild()), "v");
  EXPECT_EQ(cache.GetIfCurrent("k", StampIs(1)), nullptr);
  EXPECT_EQ(cache.GetIfCurrent("k", StampIs(2)), served);
  // ...and one with another tag replaces the entry, stamp and all.
  ASSERT_EQ(**cache.GetOrBuild("k", "u", 3, Value("w")), "w");
  EXPECT_EQ(cache.GetIfCurrent("k", StampIs(2)), nullptr);
  ASSERT_NE(cache.GetIfCurrent("k", StampIs(3)), nullptr);
  EXPECT_EQ(*cache.GetIfCurrent("k", StampIs(3)), "w");

  StampedCache::Stats s = cache.stats();
  EXPECT_EQ(s.stamp_hits, 4u);
  EXPECT_EQ(s.hits, 5u);  // the stamp hits and the tag hit
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.invalidations, 1u);
}

TEST(OnceLruCacheTest, GetIfCurrentNeitherWaitsNorServesAFailure) {
  StampedCache cache(22, &StringBytes);  // two 11-byte entries fit
  auto any = [](int) { return true; };
  std::atomic<bool> building{false};
  std::atomic<bool> release{false};
  std::thread builder([&] {
    ASSERT_TRUE(cache.GetOrBuild("a", "", 1, [&] {
                       building.store(true);
                       while (!release.load()) std::this_thread::yield();
                       return Result<std::string>("0123456789");
                     }).ok());
  });
  while (!building.load()) std::this_thread::yield();
  EXPECT_EQ(cache.GetIfCurrent("a", any), nullptr);  // in flight: declined
  release.store(true);
  builder.join();
  EXPECT_NE(cache.GetIfCurrent("a", any), nullptr);

  const StampedCache::BuildFn fail = [] {
    return Result<std::string>(Status::OutOfRange("build failed"));
  };
  EXPECT_FALSE(cache.GetOrBuild("f", "", 1, fail).ok());
  EXPECT_EQ(cache.GetIfCurrent("f", any), nullptr);  // nothing recorded

  // A stamp hit refreshes LRU recency like any hit: with b built after a,
  // touching a makes b the victim of c.
  ASSERT_TRUE(cache.GetOrBuild("b", "", 1, Value("0123456789")).ok());
  EXPECT_NE(cache.GetIfCurrent("a", any), nullptr);
  ASSERT_TRUE(cache.GetOrBuild("c", "", 1, Value("0123456789")).ok());
  EXPECT_EQ(cache.GetIfCurrent("b", any), nullptr);
  EXPECT_NE(cache.GetIfCurrent("a", any), nullptr);

  StampedCache::Stats s = cache.stats();
  EXPECT_EQ(s.stamp_hits, 3u);
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.misses, 4u);  // a, f, b, c
  EXPECT_EQ(s.evictions, 1u);
}

TEST(OnceLruCacheTest, BuildMayLookUpAnotherKey) {
  Cache cache(size_t{1} << 20, &StringBytes);
  auto outer_build = [&]() -> Result<std::string> {
    auto inner = cache.GetOrBuild("inner", Value("in"));
    if (!inner.ok()) return inner.status();
    return **inner + "+out";
  };
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      auto r = cache.GetOrBuild("outer", outer_build);
      if (r.ok() && **r == "in+out") ++ok;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), 4);
  EXPECT_EQ(Get(cache, "inner"), "in");
  EXPECT_EQ(Get(cache, "outer"), "in+out");
}

}  // namespace
}  // namespace cajade
