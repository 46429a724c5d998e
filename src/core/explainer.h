// The CaJaDE engine (paper Definition 6 + Algorithms 1 and 2): given a
// query, a user question, and a schema graph, enumerate join graphs, mine
// each valid graph's augmented provenance table for summarization patterns,
// and return a globally ranked explanation list.
//
// Ownership and thread-safety: an Explainer borrows the Database and
// SchemaGraph (the caller keeps them alive and unmodified while it is in
// use) and, when given one, a WorkerPool; it owns its configuration, its
// executor with the statistics catalog, and its two APT caches. Explain/
// Prepare are internally parallel over a WorkerPool and safe to call
// concurrently on one instance; mutable_config is not.

#ifndef CAJADE_CORE_EXPLAINER_H_
#define CAJADE_CORE_EXPLAINER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/timer.h"
#include "src/core/config.h"
#include "src/core/question.h"
#include "src/graph/enumerator.h"
#include "src/graph/schema_graph.h"
#include "src/mining/apt.h"
#include "src/mining/miner.h"
#include "src/provenance/provenance.h"
#include "src/sql/expr.h"
#include "src/storage/database.h"

namespace cajade {

/// \brief One ranked explanation E = (Omega, Phi, (c1,a1), (c2,a2)).
struct Explanation {
  /// Join graph structure, e.g. "PT - player_game_stats - player".
  std::string join_graph;
  /// Edge-by-edge join conditions.
  std::string join_conditions;
  /// Pattern over the APT's attribute names.
  std::string pattern;
  /// 0 when t1 is the primary tuple, 1 for t2.
  int primary = 0;
  /// Rendering of the primary output tuple's group-by values.
  std::string primary_tuple;
  double precision = 0.0;
  double recall = 0.0;
  double fscore = 0.0;
  /// F-score on the sampled metrics view that drove mining (equals `fscore`
  /// when lambda_F1-samp = 1); the sampling experiments compare rankings by
  /// this value against the exact ranking.
  double fscore_sampled = 0.0;
  /// Relative supports (Definition 6): (c1, a1) for the primary tuple,
  /// (c2, a2) for the other.
  int64_t support_primary = 0;
  int64_t total_primary = 0;
  int64_t support_other = 0;
  int64_t total_other = 0;
  /// Number of predicates in the pattern.
  int pattern_size = 0;

  /// One-line rendering for logs/examples.
  std::string ToString() const;
};

class WorkerPool;

/// Result of explaining one user question.
struct ExplainResult {
  Table query_result;
  /// Explanations from all join graphs, globally ranked by F-score
  /// (Section 4, "Ranking Results").
  std::vector<Explanation> explanations;
  /// Step timings (paper Figures 7/9 breakdown rows plus "JG Enum.",
  /// "Materialize APTs", "Compute Provenance").
  StepProfiler profile;
  EnumeratorStats enumeration;
  size_t apts_mined = 0;
  /// Mined join graphs whose ranking was cut short by
  /// CajadeConfig::refinement_budget or refinement_row_budget
  /// (MineResult::budget_exhausted): their explanations come from the
  /// patterns evaluated before the budget ran out.
  size_t apts_truncated = 0;
  size_t apts_skipped_oversize = 0;
  size_t patterns_evaluated = 0;
  /// High-water mark of any single resident APT join state's approximate
  /// bytes during materialization (ApproxStateBytes). With
  /// CajadeConfig::apt_shard_rows > 0 this is the quantity the shard bound
  /// caps: shards replace whole-APT states, so the peak shrinks with the
  /// shard size instead of growing with the largest APT.
  size_t peak_apt_bytes = 0;
  /// Total APT shards materialized across all join graphs that materialized
  /// successfully (1 per graph with apt_shard_rows = 0).
  size_t apt_shards = 0;
  std::string t1_description;
  std::string t2_description;
};

/// (relation, Table::content_version) of each distinct relation a query's
/// FROM clause names, in FROM order.
using InputVersions = std::vector<std::pair<std::string, uint64_t>>;

/// \brief The front half of one Explain call: parsed query resolved into
/// provenance plus the question's PT row classes.
///
/// Produced by Explainer::Prepare and consumed by ExplainPrepared. The
/// split exists for the serving layer's result cache, which validates a
/// cached answer in two steps. `input_versions` says which table versions
/// the provenance was read from: while each relation is still the
/// database's table under its name at that version, the PT would come out
/// the same (Definition 1), so ExplainServer serves the answer without
/// calling Prepare. Otherwise it runs Prepare, and `pt_fingerprint` — a
/// content hash of exactly the state the expensive back half depends on —
/// decides: a match skips enumeration, APT materialization and mining,
/// while a base-table change that altered the selected provenance flips it
/// and forces recomputation.
struct PreparedExplain {
  ProvenanceTable pt;
  std::vector<int64_t> pt_rows;  ///< PT rows the question selects (sorted)
  PtClasses classes;             ///< 0 = t1's provenance, 1 = t2's
  std::string t1_description;
  std::string t2_description;
  /// AptPtFingerprint(pt, pt_rows): stable content hash of the provenance
  /// restricted to the question. Equal fingerprints imply bit-identical
  /// explanations for a fixed config and seed.
  std::string pt_fingerprint;
  /// The FROM relations' versions, read before the provenance was, so a
  /// write racing Prepare can leave the record older than the PT but never
  /// newer.
  InputVersions input_versions;
  /// Front-half timings ("Compute Provenance"); ExplainPrepared folds these
  /// into the result's profile.
  StepProfiler profile;
};

/// \brief End-to-end explanation engine.
///
/// With CajadeConfig::num_threads != 1, candidate join graphs are
/// materialized and mined concurrently on a WorkerPool; the ranked output
/// is bit-identical to the serial path (per-graph RNG streams are assigned
/// in enumeration order and the merge tie-breaks on graph index).
///
/// Explain, Prepare, ExplainPrepared, BuildApt and MineJoinGraph are safe
/// to call concurrently on one instance: the per-instance state they share
/// (the executor with its statistics catalog, the index and prefix caches,
/// the pool) is concurrency-safe, which is how ExplainServer runs every
/// request on one Explainer. mutable_config() is not; call it while no
/// request runs.
class Explainer {
 public:
  /// `pool`, when given, runs the per-graph and per-shard fan-out of every
  /// call whose config.num_threads resolves to more than one thread, and
  /// must outlive this Explainer; with nullptr such a call makes a pool of
  /// its own. The cache byte bounds (apt_index_cache_bytes,
  /// apt_prefix_cache_bytes) are read here, once: later mutable_config()
  /// edits to them have no effect.
  Explainer(const Database* db, const SchemaGraph* schema_graph,
            CajadeConfig config = {}, WorkerPool* pool = nullptr)
      : db_(db), schema_graph_(schema_graph), config_(config), pool_(pool) {}

  /// Parses and explains.
  Result<ExplainResult> Explain(const std::string& sql,
                                const UserQuestion& question) const;

  /// Explains a pre-parsed query.
  Result<ExplainResult> Explain(const ParsedQuery& query,
                                const UserQuestion& question) const;

  /// Front half of Explain: provenance computation plus question
  /// resolution. Cheap relative to the mining back half; the serving layer
  /// calls it when a cached answer's input versions no longer hold, to
  /// obtain the result-cache validation fingerprint.
  Result<PreparedExplain> Prepare(const std::string& sql,
                                  const UserQuestion& question) const;
  Result<PreparedExplain> Prepare(const ParsedQuery& query,
                                  const UserQuestion& question) const;

  /// Back half of Explain: join-graph enumeration, APT materialization,
  /// mining, and global ranking. Consumes `prepared` (the query result
  /// moves into the returned ExplainResult). Explain(sql, question) is
  /// exactly Prepare + ExplainPrepared.
  Result<ExplainResult> ExplainPrepared(PreparedExplain prepared) const;

  /// Mines a single caller-supplied join graph (used by the sampling and
  /// ET-comparison experiments that fix one APT). A malformed graph is
  /// InvalidArgument; an APT over CajadeConfig::max_apt_rows is OutOfRange.
  Result<MineResult> MineJoinGraph(const ParsedQuery& query,
                                   const UserQuestion& question,
                                   const JoinGraph& graph,
                                   StepProfiler* profiler = nullptr) const;

  /// Materializes the APT of one join graph (exposes Figure 10a's
  /// rows/attributes reporting), sharded by CajadeConfig::apt_shard_rows.
  /// Fails like MineJoinGraph.
  Result<ShardedApt> BuildApt(const ParsedQuery& query,
                              const UserQuestion& question,
                              const JoinGraph& graph) const;

  const CajadeConfig& config() const { return config_; }
  CajadeConfig* mutable_config() { return &config_; }

  /// The caches every call of this Explainer shares, for their counters.
  const AptIndexCache& index_cache() const { return index_cache_; }
  const AptPrefixCache& prefix_cache() const { return prefix_cache_; }

 private:
  /// Resolves the user question into PT row classes.
  Status ResolveQuestion(const ProvenanceTable& pt, const UserQuestion& question,
                         std::vector<int64_t>* pt_rows, PtClasses* classes,
                         std::string* t1_desc, std::string* t2_desc) const;

  /// Materialization options for `prepared`'s provenance: this Explainer's
  /// statistics catalog and caches (the prefix cache when enabled), the
  /// max_apt_rows cap and the prepared PT fingerprint.
  AptMaterializeOptions MakeAptOptions(const PreparedExplain& prepared) const;

  const Database* db_;
  const SchemaGraph* schema_graph_;
  CajadeConfig config_;
  /// One executor for every provenance computation this Explainer runs.
  /// Its statistics catalog (executor_.stats()) also serves join-graph
  /// enumeration and APT index builds, and survives across calls, so no
  /// phase rescans a base table per Explain call.
  QueryExecutor executor_{db_};
  WorkerPool* const pool_;
  /// Build-side join indexes and intermediate APT join states, shared
  /// across join graphs and across calls, LRU-bounded by the config's
  /// apt_index_cache_bytes / apt_prefix_cache_bytes.
  mutable AptIndexCache index_cache_{config_.apt_index_cache_bytes};
  mutable AptPrefixCache prefix_cache_{config_.apt_prefix_cache_bytes};
};

/// Removes near-duplicate explanations: keeps the best-scoring instance of
/// each (pattern, primary) regardless of which join graph produced it (the
/// presentation-level dedup the paper applies in Section 6).
std::vector<Explanation> DeduplicateExplanations(
    const std::vector<Explanation>& ranked);

}  // namespace cajade

#endif  // CAJADE_CORE_EXPLAINER_H_
