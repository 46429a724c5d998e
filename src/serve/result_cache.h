// Request-level result cache for the serving layer: complete ranked
// explanation lists keyed by (query, question) and validated in two steps,
// by the versions of the tables the provenance was read from and, when
// those changed, by provenance content fingerprint.
//
// The cache deliberately does NOT trust its keys across data changes. A key
// only says "same request"; whether the cached answer is still right depends
// on the base tables. Every entry records the AptPtFingerprint of the
// provenance it was computed from (its tag) and the (relation,
// content_version) of each FROM relation that provenance was read from (its
// stamp, Explainer::Prepare's input_versions):
//  - GetIfInputsCurrent serves an entry whose every recorded relation is
//    still the database's table under that name at that version. A PT is a
//    deterministic function of the query and the relations it reads
//    (Definition 1), and content versions are process-unique, so the PT —
//    and the fingerprint — would come out the same: ExplainServer skips
//    Prepare altogether;
//  - otherwise GetOrCompute takes the fingerprint the request just computed
//    with Prepare (provenance + question resolution, the cheap front half).
//    Equal fingerprints imply bit-identical explanations for a fixed config
//    and seed, so a hit skips enumeration, APT materialization, and mining,
//    and re-stamps the entry with the request's versions; a mismatch means
//    some base-table change altered the selected provenance, and the entry
//    is invalidated on the spot.
//
// Ownership and thread-safety: the build-once protocol, the byte-bounded
// LRU, the stamps, the counters and their locking are OnceLruCache's
// (src/common/once_lru_cache.h); results are handed out as shared_ptr
// snapshots, immutable once computed.

#ifndef CAJADE_SERVE_RESULT_CACHE_H_
#define CAJADE_SERVE_RESULT_CACHE_H_

#include <functional>
#include <memory>
#include <string>

#include "src/common/once_lru_cache.h"
#include "src/common/status.h"
#include "src/core/explainer.h"
#include "src/storage/database.h"

namespace cajade {

/// \brief Version- and fingerprint-validated LRU cache of ExplainResults.
///
/// A OnceLruCache tagged with the provenance fingerprint and stamped with
/// the input versions: N clients asking the same question at the same time
/// produce one mining run and N-1 waiters; resident bytes are bounded
/// (ApproxResultBytes + key + fingerprint, LRU-evicted above `max_bytes`);
/// failures reach all waiters and are never cached; eviction or
/// invalidation only drops the cache's reference (callers hold results by
/// shared_ptr).
///
/// Safe for concurrent use from any number of threads.
class ResultCache : public OnceLruCache<ExplainResult, InputVersions> {
 public:
  using ResultPtr = ValuePtr;

  static constexpr size_t kDefaultMaxBytes = size_t{64} << 20;  // 64 MiB

  explicit ResultCache(size_t max_bytes = kDefaultMaxBytes)
      : OnceLruCache(max_bytes, &ApproxResultBytes) {}

  /// The result cached under `key` when every relation its entry records is
  /// still `db`'s table under that name at the recorded content version (an
  /// empty record never is): a hit, counted in stamp_hits too. Null,
  /// counting nothing, otherwise.
  ResultPtr GetIfInputsCurrent(const std::string& key, const Database& db);

  /// Returns the result cached under `key`, computing it via `compute` on
  /// first use (at most one computation per key across threads; concurrent
  /// callers block until it finishes and share its result).
  ///
  /// `fingerprint` is the caller's just-computed provenance fingerprint and
  /// `inputs` the versions it was computed from. An existing entry is
  /// served only when its recorded fingerprint matches, and then records
  /// `inputs`; otherwise the entry — even one still being computed from
  /// now-stale data — is invalidated and this call recomputes. A failed
  /// compute is reported to every waiter and not cached, so a later call
  /// retries.
  Result<ResultPtr> GetOrCompute(
      const std::string& key, const std::string& fingerprint,
      InputVersions inputs,
      const std::function<Result<ExplainResult>()>& compute) {
    return GetOrBuild(key, fingerprint, std::move(inputs), compute);
  }

  /// Approximate heap footprint of a result (query-result column buffers +
  /// explanation strings); the unit of the cache's byte accounting.
  static size_t ApproxResultBytes(const ExplainResult& result);
};

}  // namespace cajade

#endif  // CAJADE_SERVE_RESULT_CACHE_H_
