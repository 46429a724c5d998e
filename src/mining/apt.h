// Augmented provenance tables (paper Definition 4): the provenance table
// joined with the context relations of a join graph. Rows keep the position
// of the provenance row they extend, which is what coverage (Definition 7a)
// is computed over.
//
// An APT is always a ShardedApt: a sequence of row-range shards that are
// never concatenated. MaterializeAptSharded is the one materializer; with
// shard_rows = 0 it produces a single full-range shard.
//
// A call binds the join graph once, before any shard runs: walking
// PlanAptSteps, it resolves each step's relation, key columns, output
// schema and prefix-cache key piece. Shards then only look up states,
// probe and gather. A step whose names do not resolve, or a disconnected
// graph, becomes the plan's tail status at that step: shards materialize
// only the steps before it, and the call returns a row-limit trip among
// those steps if one happened, else the tail status. The APT oracle
// (tests/oracles) stops at whichever of the two it meets first, so both
// report the same error (see MaterializeAptSharded for the one exception).
//
// Materialization runs every tree-edge join through the typed kernel layer
// (JoinBuildIndex in src/exec/join.h) and shares work at two granularities:
//  - AptIndexCache caches build-side join indexes per (relation, key
//    columns) across join graphs;
//  - AptPrefixCache caches intermediate join states per graph *prefix*, so
//    sibling graphs (PT-A-B vs PT-A-C) start from the shared PT-A state
//    instead of re-joining from the PT.
// Ownership and thread-safety: APT values own their column buffers and
// belong to the caller; their string columns share the source columns'
// immutable dictionaries (src/storage/column.h) instead of copying them.
// The caches below are adapters over OnceLruCache
// (src/common/once_lru_cache.h), which owns their entries, hands out
// shared_ptr handles and is safe for concurrent use. The statistics catalog
// threaded through AptMaterializeOptions is too, so concurrent
// materializations may share one.

#ifndef CAJADE_MINING_APT_H_
#define CAJADE_MINING_APT_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/common/once_lru_cache.h"
#include "src/common/status.h"
#include "src/core/config.h"
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
/// packed composite-key layouts sized from the StatsCatalog's range
/// statistics when a catalog is threaded through Get, so index builds never
/// rescan key ranges.
///
/// Designed to live process-wide under the serving layer (one cache shared
/// by every request, like AptPrefixCache). Keys embed
/// Table::content_version(), so a mutated or replaced base table can never
/// be served a stale index — old-version entries simply age out of the
/// LRU. Build-once, failure propagation, the byte bound (charged
/// JoinBuildIndex::ApproxBytes + key) and the counters are OnceLruCache's.
class AptIndexCache : public OnceLruCache<JoinBuildIndex> {
 public:
  using Index = JoinBuildIndex;
  using IndexPtr = ValuePtr;

  explicit AptIndexCache(size_t max_bytes = kDefaultAptIndexCacheBytes)
      : OnceLruCache(max_bytes,
                     [](const Index& index) { return index.ApproxBytes(); }) {}

  /// Index of `base` (at its current content version) on `cols`, built on
  /// first use. The base table must outlive the returned index and must not
  /// be mutated while it is probed — MarkMutated-style version bumps after
  /// this call are fine (they key future lookups), concurrent mutation is
  /// not. When `stats` is given, a build reads `base`'s range statistics
  /// from it to size the typed layout without a key-range rescan; a hit
  /// does not touch it. It affects build cost only, never probe results.
  IndexPtr Get(const Table& base, const std::vector<int>& cols,
               StatsCatalog* stats = nullptr);

  /// Lookups that built an index (or received a failed build).
  size_t num_builds() const { return misses(); }
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
/// the PT fingerprint plus one piece per step, its AptStepSignature and,
/// on a tree step, the joined relation's content version, so a state built
/// for one graph is picked up by any sibling whose leading steps match.
///
/// GetOrBuild is OnceLruCache's: one build per key under the per-graph
/// WorkerPool fan-out, failures reported to all waiters and not cached,
/// states charged ApproxStateBytes + key against the byte bound. Cached
/// states are deterministic, so explanations stay bit-identical to the
/// serial/uncached path at every thread count. The cache outlives one
/// Explain call; under the sharded pipeline its entries are per-shard
/// states, so peak_bytes() bounds resident cache bytes at shard
/// granularity. Like AptIndexCache, it survives writes: a write to a query
/// relation changes the PT fingerprint, a write to a context relation
/// changes that relation's version in the key, so no state built before a
/// write is served after it, and superseded states age out of the LRU.
class AptPrefixCache : public OnceLruCache<AptJoinState> {
 public:
  using StatePtr = ValuePtr;

  explicit AptPrefixCache(size_t max_bytes = kDefaultAptPrefixCacheBytes)
      : OnceLruCache(max_bytes, &ApproxStateBytes) {}

  /// Lookups that built a state (or received a failed build).
  size_t builds() const { return misses(); }

  /// Approximate heap footprint of a state (column buffers + dictionaries +
  /// the pt-row map); the unit of the cache's byte accounting. A dictionary
  /// shared by several states is charged to each of them, so the sum over
  /// states is an upper bound.
  static size_t ApproxStateBytes(const AptJoinState& state);
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
/// columns point at the one dictionary of the same source column, so
/// dictionary codes compare across shards and with schema_table(), and a
/// shard costs no dictionary copy. There is always at least one shard
/// (possibly empty) so schema_table() is well defined.
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
  /// Statistics catalog whose range statistics size the kernel index
  /// builds; nullptr makes index builds scan key ranges.
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
///  - concat(shards) is byte-identical to the single shard of the APT
///    oracle (ReferenceMaterializeApt in tests/oracles) — same rows in the
///    same order, same dictionaries, same pattern_cols;
///  - errors are identical too: the per-step row totals summed across
///    shards hit `options.row_limit` exactly when the reference's step
///    output does, names are bound before any shard runs, and the surfaced
///    Status (message included) matches, regardless of shard size, thread
///    count, or scheduling. The one exception: a tree step whose output
///    columns would repeat a name (only possible with a '.' in a relation
///    or attribute name) reports AlreadyExists even where the reference's
///    probe of that step trips the row limit first;
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

}  // namespace cajade

#endif  // CAJADE_MINING_APT_H_
