// All tuning parameters of CaJaDE (paper Table 1 plus the thresholds named
// in the text), with the paper's default values.
//
// Ownership and thread-safety: a plain caller-owned value struct with no
// hidden sharing; copy freely, including one copy per thread.

#ifndef CAJADE_CORE_CONFIG_H_
#define CAJADE_CORE_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <cstdlib>

namespace cajade {

/// Default of CajadeConfig::apt_shard_rows: the CAJADE_APT_SHARD_ROWS
/// environment variable when set and positive, else 0 (one full-range
/// shard). The env hook exists for the CI forced-sharding leg, which runs
/// the whole tier-1 suite over many-shard APTs without editing every test;
/// code that assigns the field explicitly (e.g. a differential test pinning
/// one shard with `= 0`) overrides it as usual.
inline size_t DefaultAptShardRows() {
  const char* env = std::getenv("CAJADE_APT_SHARD_ROWS");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(env, &end, 10);
  return end == env ? 0 : static_cast<size_t>(v);
}

/// Default byte bound of an APT prefix-state cache: the default of
/// CajadeConfig::apt_prefix_cache_bytes and of AptPrefixCache.
inline constexpr size_t kDefaultAptPrefixCacheBytes = size_t{256} << 20;
/// Default byte bound of an APT join-index cache: the default of
/// CajadeConfig::apt_index_cache_bytes and of AptIndexCache.
inline constexpr size_t kDefaultAptIndexCacheBytes = size_t{256} << 20;

/// \brief Configuration for the explanation pipeline.
struct CajadeConfig {
  // ---- Table 1 parameters -------------------------------------------------
  /// lambda_#edges: maximum number of edges per join graph (Section 4).
  int max_join_graph_edges = 3;
  /// lambda_#sel-attr: attributes kept by relevance filtering (Section 3.1).
  /// Values <= 1 are a fraction of the eligible attributes (1.0 keeps all,
  /// clustering still applies), values > 1 a count. (The paper's table
  /// lists 3; patterns in its appendix draw on more attributes per APT, so
  /// we default to the fraction reading 0.5 and sweep this in the
  /// feature-selection benchmark.)
  double sel_attr = 0.5;
  /// lambda_attrNum: max numeric attributes allowed in a pattern.
  int max_numeric_attrs = 3;
  /// lambda_pat-samp: sample rate for LCA pattern candidate generation
  /// (Section 3.2), with the row cap the paper fixes at 1000.
  double pat_sample_rate = 0.1;
  size_t pat_sample_cap = 1000;
  /// lambda_F1-samp: sample rate for F-score calculation (Section 3.3).
  double f1_sample_rate = 0.3;

  // ---- Thresholds named in the text ---------------------------------------
  /// lambda_recall: patterns below this recall are dropped and not refined.
  double recall_threshold = 0.1;
  /// lambda_#frag: number of domain fragments for numeric refinement
  /// (Section 3.4; 3 = min/median/max boundaries).
  int num_fragments = 3;
  /// lambda_qcost: estimated-cost threshold for join-graph pruning
  /// (Section 4). Cost is estimated APT rows x APT width; the paper reports
  /// this check is necessary for reasonable performance — graphs that
  /// re-enter fact tables through dimension nodes blow up otherwise.
  double cost_threshold = 2e6;
  /// k: number of explanations returned per join graph.
  int top_k = 10;
  /// k_cat: categorical patterns kept as refinement seeds (Algorithm 1).
  int k_cat = 20;

  // ---- Ablation / optimization toggles ------------------------------------
  bool enable_feature_selection = true;  ///< Section 3.1 on/off ("Naive")
  bool enable_recall_pruning = true;     ///< Proposition 3.1 pruning
  bool enable_diversity = true;          ///< Section 3.5 wscore re-ranking
  bool enable_cost_pruning = true;       ///< isValid cost check
  bool enable_pk_pruning = true;         ///< isValid PK-coverage check
  /// Strict reading of the PK check (every key attribute joined); see
  /// PkCheckMode in graph/enumerator.h for why the default is relaxed.
  bool pk_check_strict = false;
  bool include_pt_only_graph = true;     ///< also mine Omega_0 (provenance only)

  // ---- Random forest (relevance filter) -----------------------------------
  int forest_trees = 10;
  int forest_max_depth = 8;
  size_t forest_row_cap = 800;

  // ---- Attribute clustering ------------------------------------------------
  double cluster_threshold = 0.9;

  // ---- Parallelism ---------------------------------------------------------
  /// Worker threads for per-join-graph explanation (materialize + mine).
  /// 0 = hardware concurrency, 1 = fully serial (no pool). Any value
  /// produces bit-identical ranked explanations: per-graph RNG streams are
  /// forked in enumeration order and results merge with a stable tie-break
  /// on graph index.
  int num_threads = 1;

  // ---- APT prefix cache ----------------------------------------------------
  /// Share intermediate APT join states across join graphs with a common
  /// prefix (PT-A-B reuses PT-A-C's PT-A state). Purely a performance
  /// knob: explanations are bit-identical with the cache on or off, at any
  /// thread count.
  bool enable_apt_prefix_cache = true;
  /// Memory bound of an Explainer's prefix cache in bytes (LRU-evicted
  /// above it), read when the Explainer is constructed. The cache lives as
  /// long as its Explainer, so this bounds resident state across calls —
  /// across requests under ExplainServer, whose one Explainer serves them
  /// all — not per call.
  size_t apt_prefix_cache_bytes = kDefaultAptPrefixCacheBytes;  // 256 MiB
  /// Memory bound of an Explainer's APT join-index cache in bytes
  /// (build-side join indexes keyed by table content version; LRU-evicted
  /// above it), read when the Explainer is constructed. Like the prefix
  /// cache it lives as long as its Explainer and bounds resident state
  /// across calls.
  size_t apt_index_cache_bytes = kDefaultAptIndexCacheBytes;  // 256 MiB

  // ---- Sharded APT pipeline ------------------------------------------------
  /// Rows of the PT selection materialized per APT shard. 0 = one
  /// full-range shard per join graph. Positive values split every
  /// materialization into ceil(|pt_rows| / apt_shard_rows) row-range shards
  /// that fan out across the worker pool and are mined without ever being
  /// concatenated, so the largest single join state resident at once is
  /// bounded by the shard's fan-out instead of the full APT's. Purely a
  /// performance/memory knob: explanations are bit-identical at any shard
  /// size and thread count.
  /// Defaults from the CAJADE_APT_SHARD_ROWS environment variable (CI's
  /// forced-sharding leg); 0 when unset.
  size_t apt_shard_rows = DefaultAptShardRows();

  // ---- Safety bounds (implementation guards; docs/DESIGN.md, Section 3) ---
  /// Cap on refinement-pattern evaluations per APT.
  size_t refinement_budget = 20000;
  /// Cap on row-filter work (rows scanned while generating refinements) per
  /// APT; bounds the worst case on wide, dense APTs.
  size_t refinement_row_budget = 3000000;
  /// Hard cap on materialized APT rows (backstop for cost-estimate misses);
  /// oversized join graphs are skipped and counted.
  size_t max_apt_rows = 200000;

  /// Seed for every stochastic component (sampling, forests).
  uint64_t seed = 42;
};

}  // namespace cajade

#endif  // CAJADE_CORE_CONFIG_H_
