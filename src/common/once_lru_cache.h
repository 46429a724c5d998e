// Build-once, byte-bounded LRU cache: the one protocol behind the engine's
// caches (AptIndexCache and AptPrefixCache in src/mining/apt.h, ResultCache
// in src/serve/result_cache.h, StatsCatalog in src/stats/table_stats.h).
//
// The protocol, per key:
//  - one build in flight: the first caller builds, outside the lock (a
//    build may itself call GetOrBuild on another key); concurrent callers
//    wait on the entry's shared_future and share the built value;
//  - a failed build — a non-OK Status or an exception — reaches the builder
//    and every waiter unchanged and is never cached, so a later call
//    rebuilds;
//  - an optional tag: a lookup whose tag differs from the entry's detaches
//    that entry (an invalidation), even mid-build, and builds afresh. A
//    detached build still serves its own waiters, is never retained, and
//    never displaces the entry that replaced it;
//  - an optional stamp (the Stamp parameter; caches without one pay
//    nothing): what the caller derived its tag from. A new entry keeps its
//    builder's stamp, and every lookup an entry serves under the same tag
//    replaces it with that lookup's. GetIfCurrent serves a ready entry
//    without a tag when the stamp still holds, checked inside the critical
//    section that counts the hit, so the stamp it checks belongs to the
//    value it returns;
//  - ready entries sit in an LRU list charged value_bytes(value) + key +
//    tag; an insert evicts least-recently-used entries above max_bytes.
//    Eviction drops only the cache's reference: values are handed out as
//    shared_ptr<const V>, so callers keep what they got.
//
// Every GetOrBuild counts exactly once: a hit when it returns a value it did
// not build, otherwise a miss (it built, or it received a failure). A
// GetIfCurrent counts only when it serves: a hit, also counted in
// stamp_hits. So hits + misses == GetOrBuild lookups + stamp_hits.
//
// Ownership and thread-safety: the cache owns its entries; values are
// immutable once built and shared by pointer. Every method is safe to call
// concurrently. The map, the LRU list and the counters are GUARDED_BY(mu_);
// the byte bound is fixed at construction. A built value travels from its
// builder to the waiters through the entry's promise/shared_future pair, not
// through the mutex.

#ifndef CAJADE_COMMON_ONCE_LRU_CACHE_H_
#define CAJADE_COMMON_ONCE_LRU_CACHE_H_

#include <algorithm>
#include <cstddef>
#include <exception>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/common/status.h"
#include "src/common/thread_annotations.h"

namespace cajade {

/// The stamp of a cache that keeps none.
struct NoStamp {};

/// \brief Single-flight build-once cache of immutable values under a byte
/// bound (see the file comment for the protocol).
template <typename V, typename Stamp = NoStamp>
class OnceLruCache {
 public:
  using ValuePtr = std::shared_ptr<const V>;
  using BuildFn = std::function<Result<V>()>;
  /// Approximate heap bytes of a value: the unit of the byte bound.
  using ValueBytesFn = size_t (*)(const V&);

  /// One consistent reading of the counters (taken under one lock).
  struct Stats {
    size_t hits = 0;
    /// Hits served by GetIfCurrent (also counted in hits).
    size_t stamp_hits = 0;
    /// Lookups that built, or that received a failed build.
    size_t misses = 0;
    /// Entries detached because a lookup presented a different tag. The
    /// lookup that detached one is also counted as a miss.
    size_t invalidations = 0;
    size_t evictions = 0;
    size_t bytes_in_use = 0;
    /// High-water mark of bytes_in_use since construction.
    size_t peak_bytes = 0;
  };

  OnceLruCache(size_t max_bytes, ValueBytesFn value_bytes)
      : value_bytes_(value_bytes), max_bytes_(max_bytes) {}

  /// Returns the value cached under `key`, building it via `build` unless a
  /// ready or in-flight entry with the same `tag` exists. A failed build is
  /// returned (Status) or rethrown (exception) to the builder and every
  /// waiter. `stamp` becomes the stamp of the entry that served or built
  /// the value, unless the build failed.
  Result<ValuePtr> GetOrBuild(const std::string& key, const std::string& tag,
                              Stamp stamp, const BuildFn& build) EXCLUDES(mu_);
  Result<ValuePtr> GetOrBuild(const std::string& key, const std::string& tag,
                              const BuildFn& build) EXCLUDES(mu_) {
    return GetOrBuild(key, tag, Stamp(), build);
  }
  /// Untagged lookup: entries are never invalidated, only evicted.
  Result<ValuePtr> GetOrBuild(const std::string& key, const BuildFn& build)
      EXCLUDES(mu_) {
    return GetOrBuild(key, std::string(), Stamp(), build);
  }

  /// The ready value under `key` when `is_current(stamp)` holds for its
  /// entry's stamp: a hit that refreshes LRU recency like any other and
  /// builds nothing. Null, counting nothing, when no entry under `key` is
  /// ready or its stamp is not current. `is_current` runs under the cache
  /// lock, so it must be cheap and must not call back into this cache.
  template <typename IsCurrent>
  ValuePtr GetIfCurrent(const std::string& key, const IsCurrent& is_current)
      EXCLUDES(mu_);

  size_t max_bytes() const { return max_bytes_; }

  Stats stats() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return stats_;
  }
  size_t hits() const EXCLUDES(mu_) { return stats().hits; }
  size_t misses() const EXCLUDES(mu_) { return stats().misses; }
  size_t invalidations() const EXCLUDES(mu_) { return stats().invalidations; }
  size_t evictions() const EXCLUDES(mu_) { return stats().evictions; }
  size_t bytes_in_use() const EXCLUDES(mu_) { return stats().bytes_in_use; }
  size_t peak_bytes() const EXCLUDES(mu_) { return stats().peak_bytes; }

 private:
  /// `tag` is fixed at construction and the outcome is published once
  /// through `ready`, so neither needs mu_. The stamp and the LRU fields
  /// (value, bytes, in_lru, lru_it) are touched only inside mu_ critical
  /// sections, alongside lru_; `value` is set with in_lru, before `ready`
  /// is, so GetIfCurrent never waits on the future under the lock.
  struct Entry {
    Entry(std::string t, Stamp s) : tag(std::move(t)), stamp(std::move(s)) {}

    const std::string tag;
    std::promise<Result<ValuePtr>> promise;
    const std::shared_future<Result<ValuePtr>> ready = promise.get_future();
    Stamp stamp;
    ValuePtr value;
    size_t bytes = 0;
    bool in_lru = false;
    std::list<std::string>::iterator lru_it;
  };
  using Map = std::unordered_map<std::string, std::shared_ptr<Entry>>;

  /// Waits for another caller's build of `entry`, counts the lookup and,
  /// when it is served, gives the entry its `stamp`.
  Result<ValuePtr> Await(Entry& entry, Stamp stamp) EXCLUDES(mu_);
  /// Runs `build` for the freshly inserted `entry` and publishes the outcome.
  Result<ValuePtr> Build(const std::string& key,
                         const std::shared_ptr<Entry>& entry,
                         const BuildFn& build) EXCLUDES(mu_);
  /// Removes `entry` from the map if it is still the entry under `key`.
  void DetachIfCurrent(const std::string& key,
                       const std::shared_ptr<Entry>& entry) EXCLUDES(mu_);
  /// Unlinks a map entry and, when it is ready, its LRU node and bytes.
  void EraseLocked(typename Map::iterator it) REQUIRES(mu_);
  void EvictOverLimitLocked() REQUIRES(mu_);

  const ValueBytesFn value_bytes_;
  mutable Mutex mu_;
  Map map_ GUARDED_BY(mu_);
  /// Keys of ready entries, most-recently-used first.
  std::list<std::string> lru_ GUARDED_BY(mu_);
  const size_t max_bytes_;
  Stats stats_ GUARDED_BY(mu_);
};

template <typename V, typename Stamp>
Result<typename OnceLruCache<V, Stamp>::ValuePtr>
OnceLruCache<V, Stamp>::GetOrBuild(const std::string& key,
                                   const std::string& tag, Stamp stamp,
                                   const BuildFn& build) {
  std::shared_ptr<Entry> entry;
  bool builder = false;
  {
    MutexLock lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end() && it->second->tag != tag) {
      // Made for another tag (e.g. stale provenance), ready or still being
      // built: detach it. An in-flight build keeps running and still
      // answers the callers already waiting on it.
      EraseLocked(it);
      ++stats_.invalidations;
      it = map_.end();
    }
    if (it == map_.end()) {
      it = map_.emplace(key, std::make_shared<Entry>(tag, std::move(stamp)))
               .first;
      ++stats_.misses;
      builder = true;
    }
    entry = it->second;
  }
  return builder ? Build(key, entry, build) : Await(*entry, std::move(stamp));
}

template <typename V, typename Stamp>
template <typename IsCurrent>
typename OnceLruCache<V, Stamp>::ValuePtr OnceLruCache<V, Stamp>::GetIfCurrent(
    const std::string& key, const IsCurrent& is_current) {
  MutexLock lock(mu_);
  auto it = map_.find(key);
  // Only current, built entries are in the LRU list.
  if (it == map_.end() || !it->second->in_lru) return nullptr;
  Entry& entry = *it->second;
  if (!is_current(entry.stamp)) return nullptr;
  ++stats_.hits;
  ++stats_.stamp_hits;
  lru_.splice(lru_.begin(), lru_, entry.lru_it);
  return entry.value;
}

template <typename V, typename Stamp>
Result<typename OnceLruCache<V, Stamp>::ValuePtr>
OnceLruCache<V, Stamp>::Await(Entry& entry, Stamp stamp) {
  // The future's release/acquire pair orders the builder's writes before
  // our reads; get() rethrows a builder exception.
  const Result<ValuePtr>* outcome = nullptr;
  try {
    outcome = &entry.ready.get();
  } catch (...) {
    {
      MutexLock lock(mu_);
      ++stats_.misses;
    }
    throw;
  }
  MutexLock lock(mu_);
  if (!outcome->ok()) {
    ++stats_.misses;
  } else {
    ++stats_.hits;
    entry.stamp = std::move(stamp);
    if (entry.in_lru) lru_.splice(lru_.begin(), lru_, entry.lru_it);
  }
  return *outcome;
}

template <typename V, typename Stamp>
Result<typename OnceLruCache<V, Stamp>::ValuePtr>
OnceLruCache<V, Stamp>::Build(const std::string& key,
                              const std::shared_ptr<Entry>& entry,
                              const BuildFn& build) {
  ValuePtr value;
  try {
    Result<V> built = build();
    if (!built.ok()) {
      // Never cached: a failure may hold only for this caller (a row-limit
      // abort under its cap, say); waiters see it, later calls rebuild.
      DetachIfCurrent(key, entry);
      entry->promise.set_value(built.status());
      return built.status();
    }
    value = std::make_shared<const V>(built.MoveValue());
  } catch (...) {
    // Never cached; waiters rethrow the builder's own exception, so the
    // error they surface does not depend on which caller won the race.
    DetachIfCurrent(key, entry);
    entry->promise.set_exception(std::current_exception());
    throw;
  }
  const size_t bytes = value_bytes_(*value) + key.size() + entry->tag.size();
  {
    MutexLock lock(mu_);
    auto it = map_.find(key);
    // An entry invalidated mid-build answers its own callers only.
    if (it != map_.end() && it->second == entry) {
      entry->value = value;
      entry->bytes = bytes;
      lru_.push_front(key);
      entry->lru_it = lru_.begin();
      entry->in_lru = true;
      stats_.bytes_in_use += bytes;
      stats_.peak_bytes = std::max(stats_.peak_bytes, stats_.bytes_in_use);
      // May evict the entry just inserted when it alone exceeds the bound;
      // the returned shared_ptr keeps the value alive for this caller.
      EvictOverLimitLocked();
    }
  }
  entry->promise.set_value(value);
  return value;
}

template <typename V, typename Stamp>
void OnceLruCache<V, Stamp>::DetachIfCurrent(
    const std::string& key, const std::shared_ptr<Entry>& entry) {
  MutexLock lock(mu_);
  auto it = map_.find(key);
  if (it != map_.end() && it->second == entry) EraseLocked(it);
}

template <typename V, typename Stamp>
void OnceLruCache<V, Stamp>::EraseLocked(typename Map::iterator it) {
  Entry& entry = *it->second;
  if (entry.in_lru) {
    stats_.bytes_in_use -= entry.bytes;
    lru_.erase(entry.lru_it);
    entry.in_lru = false;
  }
  map_.erase(it);
}

template <typename V, typename Stamp>
void OnceLruCache<V, Stamp>::EvictOverLimitLocked() {
  while (stats_.bytes_in_use > max_bytes_ && !lru_.empty()) {
    // Only current, ready entries are in the LRU list: the lookup hits.
    EraseLocked(map_.find(lru_.back()));
    ++stats_.evictions;
  }
}

}  // namespace cajade

#endif  // CAJADE_COMMON_ONCE_LRU_CACHE_H_
