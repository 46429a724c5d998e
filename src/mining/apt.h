// Augmented provenance tables (paper Definition 4): the provenance table
// joined with the context relations of a join graph. Rows keep the position
// of the provenance row they extend, which is what coverage (Definition 7a)
// is computed over.
//
// An APT is always a ShardedApt: a sequence of row-range shards that are
// never concatenated. MaterializeAptSharded is the one materializer; with
// shard_rows = 0 it produces a single full-range shard.
//
// Materialization runs every tree-edge join through the typed kernel layer
// (JoinBuildIndex in src/exec/join.h) and shares work at two granularities:
//  - AptIndexCache caches build-side join indexes per (relation, key
//    columns) across join graphs;
//  - AptPrefixCache caches intermediate join states per graph *prefix*, so
//    sibling graphs (PT-A-B vs PT-A-C) start from the shared PT-A state
//    instead of re-joining from the PT.
// The seed's scalar implementation survives as ReferenceMaterializeApt, the
// differential-testing oracle and bench baseline (mirroring
// ReferenceHashEquiJoin / ReferenceExecuteSpj): concat(shards) is
// byte-identical to its single shard at any shard size, and errors (row-limit
// trips included) match.
//
// Ownership and thread-safety: APT values own their column storage and
// belong to the caller. The caches below own their entries and hand out
// shared handles (shared_ptr / shared_future); their locking is annotated
// in-line (Mutex / GUARDED_BY) and checked by the thread-safety CI leg.

#ifndef CAJADE_MINING_APT_H_
#define CAJADE_MINING_APT_H_

#include <atomic>
#include <exception>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/exec/join.h"
#include "src/graph/join_graph.h"
#include "src/provenance/provenance.h"
#include "src/stats/table_stats.h"

namespace cajade {

class WorkerPool;

/// \brief Cross-join-graph cache of build-side join indexes on context
/// relations.
///
/// Enumerations revisit the same (relation, join-key) combinations across
/// hundreds of join graphs; caching the build side makes APT
/// materialization cost proportional to the APT, not the base tables.
/// Entries are typed kernel indexes (JoinBuildIndex): dense counting or
/// packed composite-key layouts sized from the StatsCatalog range tier when
/// one is threaded through Get, so index builds never rescan key ranges.
///
/// Designed to live process-wide under the serving layer (one cache shared
/// by every request, like AptPrefixCache):
///  - keys embed Table::content_version(), so a mutated or replaced base
///    table can never be served a stale index — old-version entries simply
///    age out of the LRU;
///  - resident bytes are bounded (ApproxBytes-accounted, LRU-evicted above
///    `max_bytes`), mirroring the prefix cache's accounting. Eviction only
///    drops the cache's reference — Get returns shared_ptr, so a caller
///    probing an index keeps it alive regardless.
///
/// Safe for concurrent use: each entry is built exactly once behind a
/// std::shared_future — two join graphs sharing a build side neither race
/// nor duplicate the build (the second caller blocks until the first
/// finishes); a failed build is propagated to all waiters and dropped so a
/// later call retries.
class AptIndexCache {
 public:
  using Index = JoinBuildIndex;
  using IndexPtr = std::shared_ptr<const Index>;

  static constexpr size_t kDefaultMaxBytes = size_t{256} << 20;  // 256 MiB

  explicit AptIndexCache(size_t max_bytes = kDefaultMaxBytes)
      : max_bytes_(max_bytes) {}

  /// Index of `base` (at its current content version) on `cols`, built on
  /// first use. The base table must outlive the returned index and must not
  /// be mutated while it is probed — MarkMutated-style version bumps after
  /// this call are fine (they key future lookups), concurrent mutation is
  /// not. `stats` (the full `base` table's statistics; the range tier
  /// suffices) sizes the typed layout without a key-range rescan — it only
  /// needs to stay valid for the duration of the call, and does not affect
  /// probe results (only build cost).
  IndexPtr Get(const Table& base, const std::vector<int>& cols,
               const TableStats* stats = nullptr) EXCLUDES(mu_);

  /// Number of indexes actually built (not lookups); a concurrent stress
  /// test asserts this equals the number of distinct keys requested.
  size_t num_builds() const {
    return builds_.load(std::memory_order_relaxed);
  }

  size_t hits() const { return hits_.load(std::memory_order_relaxed); }
  size_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

  /// Adjusts the memory bound, evicting LRU entries if now over it.
  void set_max_bytes(size_t max_bytes) EXCLUDES(mu_);
  size_t max_bytes() const EXCLUDES(mu_);
  /// Bytes held by cached indexes (JoinBuildIndex::ApproxBytes accounting).
  size_t bytes_in_use() const EXCLUDES(mu_);
  /// High-water mark of bytes_in_use() since construction: the observable
  /// peak-resident-bytes bound the serving layer reports.
  size_t peak_bytes() const EXCLUDES(mu_);

 private:
  /// Entry fields are protected by the shared_future protocol, not mu_:
  /// only the building thread writes index/bytes, before fulfilling
  /// ready_promise; waiters read them after ready. in_lru/lru_it are the
  /// exception — touched only inside mu_ critical sections with lru_.
  struct Entry {
    /// Published before ready is fulfilled; null when the build failed.
    IndexPtr index;
    std::promise<void> ready_promise;
    std::shared_future<void> ready;
    size_t bytes = 0;
    bool in_lru = false;
    std::list<std::string>::iterator lru_it;
  };

  void EvictOverLimitLocked() REQUIRES(mu_);

  mutable Mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<Entry>> map_
      GUARDED_BY(mu_);
  /// Most-recently-used first; holds only Ready entries.
  std::list<std::string> lru_ GUARDED_BY(mu_);
  size_t max_bytes_ GUARDED_BY(mu_);
  size_t bytes_ GUARDED_BY(mu_) = 0;
  size_t peak_bytes_ GUARDED_BY(mu_) = 0;
  std::atomic<size_t> hits_{0};
  std::atomic<size_t> builds_{0};
  std::atomic<size_t> evictions_{0};
};

/// \brief One materialization state: the partial (or final) APT after some
/// prefix of a join graph's materialization steps.
///
/// Immutable once published to the prefix cache — every step reads its input
/// state and produces a fresh one, which is what lets states be shared
/// between concurrent materializations by shared_ptr.
struct AptJoinState {
  /// PT columns followed by the context columns joined so far.
  Table table;
  /// state row -> position in the materialization's pt_rows.
  std::vector<int32_t> pt_row;
};

/// \brief Cache of intermediate APT join states keyed by canonical graph
/// prefix.
///
/// Join graphs produced by the enumerator overwhelmingly share prefixes
/// (PT-A-B and PT-A-C differ only in their last step), and the initial
/// PT-subset state is shared by every graph of one user question. Keys are
/// the PT fingerprint plus the concatenated AptStepSignature prefix, so a
/// state built for one graph is picked up by any sibling whose leading
/// steps match.
///
/// Concurrency-safe under the per-graph WorkerPool fan-out: each key is
/// built exactly once behind a std::shared_future (waiters block on the
/// builder, as in AptIndexCache); build failures are reported to all
/// waiters and not cached. Cached states are deterministic, so explanations
/// stay bit-identical to the serial/uncached path at every thread count.
///
/// The cache is designed to outlive one Explain call (the serving-layer
/// road): it carries a byte-accounted memory bound with LRU eviction.
/// Evicting an entry only drops the cache's reference — readers holding the
/// shared_ptr keep their state alive. Assumes an immutable database (like
/// AptIndexCache): re-loading tables under a live cache invalidates it.
class AptPrefixCache {
 public:
  using StatePtr = std::shared_ptr<const AptJoinState>;

  static constexpr size_t kDefaultMaxBytes = size_t{256} << 20;  // 256 MiB

  explicit AptPrefixCache(size_t max_bytes = kDefaultMaxBytes)
      : max_bytes_(max_bytes) {}

  /// Returns the state cached under `key`, building it via `build` on first
  /// use (at most one builder per key across threads; concurrent callers
  /// block until it finishes). A failed build is propagated to every waiter
  /// and evicted immediately, so a later call retries.
  Result<StatePtr> GetOrBuild(
      const std::string& key,
      const std::function<Result<AptJoinState>()>& build) EXCLUDES(mu_);

  /// Adjusts the memory bound, evicting LRU entries if now over it.
  void set_max_bytes(size_t max_bytes) EXCLUDES(mu_);
  size_t max_bytes() const EXCLUDES(mu_);
  /// Bytes held by cached states (approximate, column-buffer accounting).
  size_t bytes_in_use() const EXCLUDES(mu_);
  /// High-water mark of bytes_in_use() since construction. Under the
  /// sharded pipeline entries are per-shard states, so this bounds peak
  /// resident cache bytes at shard granularity, not final-APT size.
  size_t peak_bytes() const EXCLUDES(mu_);

  size_t hits() const { return hits_.load(std::memory_order_relaxed); }
  size_t builds() const { return builds_.load(std::memory_order_relaxed); }
  size_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

  /// Approximate heap footprint of a state (column buffers + dictionaries +
  /// the pt-row map); the unit of the cache's byte accounting.
  static size_t ApproxStateBytes(const AptJoinState& state);

 private:
  /// Entry fields follow the same split as AptIndexCache::Entry: the
  /// builder alone writes state/status/exception/bytes before fulfilling
  /// ready_promise (waiters read after ready — the future carries the
  /// ordering); in_lru/lru_it only move inside mu_ critical sections.
  struct Entry {
    std::promise<void> ready_promise;
    std::shared_future<void> ready;
    /// Published before ready is fulfilled; null when the build failed.
    StatePtr state;
    Status status = Status::OK();
    /// A builder exception, rethrown to waiters so they wrap it exactly as
    /// they would had they built the state themselves — the surfaced error
    /// text must not depend on which graph won the builder race.
    std::exception_ptr exception;
    size_t bytes = 0;
    bool in_lru = false;
    std::list<std::string>::iterator lru_it;
  };

  void EvictOverLimitLocked() REQUIRES(mu_);

  mutable Mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<Entry>> map_
      GUARDED_BY(mu_);
  /// Most-recently-used first; holds only Ready entries.
  std::list<std::string> lru_ GUARDED_BY(mu_);
  size_t max_bytes_ GUARDED_BY(mu_);
  size_t bytes_ GUARDED_BY(mu_) = 0;
  size_t peak_bytes_ GUARDED_BY(mu_) = 0;
  std::atomic<size_t> hits_{0};
  std::atomic<size_t> builds_{0};
  std::atomic<size_t> evictions_{0};
};

/// \brief One row-range shard of an APT: the materialization of the PT
/// positions [pt_begin, pt_end) of the full selection. pt_row entries are
/// GLOBAL positions into ShardedApt::pt_rows_used (not shard-local), so
/// per-shard coverage sets OR straight into one global CoverageBitmap.
struct AptShard {
  /// PT columns (prov_ names) followed by context columns ("<label>.<attr>").
  Table table;
  /// Shard row -> position in ShardedApt::pt_rows_used.
  std::vector<int32_t> pt_row;
  size_t pt_begin = 0;
  size_t pt_end = 0;

  size_t num_rows() const { return pt_row.size(); }
};

/// \brief A materialized APT as a sequence of row-range shards.
///
/// Global APT row ids are the shards' rows concatenated in shard order; every
/// consumer (miner, quality views, LCA, the ET baseline) iterates shards in
/// that order, so results do not depend on the shard size. Shard tables are
/// never concatenated. Every shard has the identical schema, and string
/// columns adopt the dictionary of the same source column, so dictionary
/// codes compare across shards and with schema_table(). There is always at
/// least one shard (possibly empty) so schema_table() is well defined.
struct ShardedApt {
  std::vector<AptShard> shards;
  /// The PT rows the APT was built over (typically PT(t1) u PT(t2)), as
  /// original PT row ids, in ascending order.
  std::vector<int64_t> pt_rows_used;
  /// Number of leading columns that came from PT.
  size_t num_pt_columns = 0;
  /// Columns eligible for patterns (group-by attributes excluded).
  std::vector<int> pattern_cols;
  /// Sum of shard row counts.
  size_t total_rows = 0;

  size_t num_rows() const { return total_rows; }
  /// Schema/dictionary carrier: shard 0 answers all schema questions.
  const Table& schema_table() const { return shards.front().table; }

  /// True for a single shard whose pt_row maps row r to PT position r for
  /// every position — the case for 1:1 context joins. The miner then scores
  /// a row match mask directly as the coverage set.
  bool PtRowIsIdentity() const;
};

/// Locates global APT row ids: (*shard)[i] and (*local)[i] are the shard and
/// shard-local row of rows[i].
void LocateAptRows(const ShardedApt& apt, const std::vector<size_t>& rows,
                   std::vector<size_t>* shard, std::vector<size_t>* local);

/// \brief Observability counters for APT materialization, shared across the
/// per-graph (and per-shard) fan-out of one Explain call. Thread-safe.
struct AptMaterializeMetrics {
  /// High-water mark of the approximate bytes of any single resident join
  /// state (ApproxStateBytes of the base state and of every step output,
  /// built or cache-hit). Under sharding this is bounded by the largest
  /// shard's fan-out rather than the full APT — the memory headline.
  std::atomic<size_t> peak_state_bytes{0};
  /// Total shards materialized.
  std::atomic<size_t> shards{0};

  void RecordStateBytes(size_t bytes) {
    size_t cur = peak_state_bytes.load(std::memory_order_relaxed);
    while (bytes > cur &&
           !peak_state_bytes.compare_exchange_weak(
               cur, bytes, std::memory_order_relaxed)) {
    }
  }
};

/// Caches and statistics threaded through MaterializeAptSharded.
struct AptMaterializeOptions {
  /// Build-side index cache; nullptr uses a per-call local cache.
  AptIndexCache* index_cache = nullptr;
  /// Prefix-state cache; nullptr disables prefix sharing (states are built
  /// fresh; results are identical either way).
  AptPrefixCache* prefix_cache = nullptr;
  /// Statistics catalog whose thread-safe range tier (SharedRanges) sizes
  /// the kernel indexes; nullptr makes index builds scan key ranges.
  StatsCatalog* stats = nullptr;
  /// 0 = unlimited; otherwise materialization aborts with OutOfRange once a
  /// tree-edge join's output exceeds it — the backstop behind the cost
  /// estimate's inevitable misses.
  size_t row_limit = 0;
  /// Precomputed AptPtFingerprint(pt, pt_rows) (empty = compute per call).
  /// Callers materializing many graphs over one (pt, pt_rows) pair — the
  /// explainer's per-graph fan-out — compute it once instead of re-hashing
  /// the row selection per graph. Must match the pt/pt_rows actually
  /// passed; a stale fingerprint aliases prefix-cache states.
  std::string pt_fingerprint;
  /// Optional observability sink (peak resident state bytes, shard counts);
  /// nullptr disables recording. Shared across threads — it is atomic.
  AptMaterializeMetrics* metrics = nullptr;
  /// Worker pool that MaterializeAptSharded fans shards across; nullptr (or
  /// a single shard) runs them serially on the caller.
  WorkerPool* pool = nullptr;
};

/// Stable fingerprint of a (PT, selected rows) pair: the leading component
/// of every prefix-cache key (schema, relations, group-by shape, cached
/// cell-content hash, selected row ids). Exposed so callers can compute it
/// once per question via AptMaterializeOptions::pt_fingerprint.
std::string AptPtFingerprint(const ProvenanceTable& pt,
                             const std::vector<int64_t>& pt_rows);

/// Materializes APT(Q, D, Omega) restricted to the given PT rows, as
/// contiguous row ranges of at most `shard_rows` PT rows each (0 or
/// >= |pt_rows| gives a single full-range shard). Shards fan out across
/// `options.pool` when one is provided.
///
/// Joins proceed breadth-first from the PT node (the deterministic step
/// order of PlanAptSteps); edges that close a cycle become post-join
/// filters. PT-adjacent join conditions resolve their PT-side attributes
/// through the query relation recorded on the edge. Null join keys never
/// match — including null vs null and middle columns of composite keys — on
/// tree edges and cycle-closing filters alike, matching the executor's
/// contract.
///
/// Equivalence contract (the differential tests' anchor):
///  - concat(shards) is byte-identical to ReferenceMaterializeApt's single
///    shard — same rows in the same order, same dictionaries, same
///    pattern_cols;
///  - errors are identical too: the per-step row totals summed across
///    shards hit `options.row_limit` exactly when the reference's step
///    output does, and the surfaced Status (message included) matches,
///    regardless of shard size, thread count, or scheduling;
///  - prefix-cache states for partial ranges are keyed with a `|shard:b-e`
///    suffix so they never alias full-range states; the full-range single
///    shard uses the plain key.
Result<ShardedApt> MaterializeAptSharded(const ProvenanceTable& pt,
                                         const std::vector<int64_t>& pt_rows,
                                         const JoinGraph& graph,
                                         const SchemaGraph& schema_graph,
                                         const Database& db,
                                         const AptMaterializeOptions& options,
                                         size_t shard_rows);

/// Differential-testing oracle and bench baseline: the scalar
/// implementation (per-row HashRowKey/RowKeysEqual probes against a local
/// flat index per tree edge), kept verbatim. Returns one full-range shard.
Result<ShardedApt> ReferenceMaterializeApt(const ProvenanceTable& pt,
                                           const std::vector<int64_t>& pt_rows,
                                           const JoinGraph& graph,
                                           const SchemaGraph& schema_graph,
                                           const Database& db,
                                           size_t row_limit = 0);

}  // namespace cajade

#endif  // CAJADE_MINING_APT_H_
