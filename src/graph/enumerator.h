// Join graph enumeration (paper Algorithm 2): breadth-first generation of
// join graphs of increasing edge count, extending each graph of size i-1 by
// one schema-graph-conforming edge, with isValid pruning (primary-key
// coverage + estimated cost) deciding which graphs are mined.
//
// Ownership and thread-safety: an enumerator borrows the schema graph, the
// database and (optionally) a statistics catalog, and owns its counters, so
// one instance runs one enumeration at a time; separate instances may run
// concurrently, sharing one catalog. Produced join graphs are fresh
// caller-owned values.

#ifndef CAJADE_GRAPH_ENUMERATOR_H_
#define CAJADE_GRAPH_ENUMERATOR_H_

#include <functional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/graph/join_graph.h"
#include "src/graph/schema_graph.h"
#include "src/stats/table_stats.h"
#include "src/storage/database.h"

namespace cajade {

/// Counters reported by the enumerator (Figure 12 shows #join graphs).
struct EnumeratorStats {
  int generated = 0;    ///< raw extensions produced
  int unique = 0;       ///< after canonical deduplication
  int valid = 0;        ///< passed isValid (mined)
  int pruned_pk = 0;    ///< rejected: PK attributes not fully joined
  int pruned_cost = 0;  ///< rejected: estimated cost above lambda_qcost
};

/// How isValid's primary-key coverage check treats multi-attribute keys.
/// The paper's pseudocode requires every PK attribute to be joined, but its
/// own Figure 2c example (lineup_player joined on lineupid only) violates
/// that reading; kAnyAttr is therefore the default, with the strict mode
/// available for ablation. The cost check independently catches the
/// unkeyed-fanout blowups the strict mode targets.
enum class PkCheckMode {
  kOff,
  kAnyAttr,   ///< at least one PK attribute joined per context node
  kAllAttrs,  ///< every PK attribute joined (strict pseudocode reading)
};

/// \brief Enumerates join graphs for a query over a schema graph.
class JoinGraphEnumerator {
 public:
  struct Options {
    int max_edges = 3;             ///< lambda_#edges
    double cost_threshold = 2e6;   ///< lambda_qcost (estimated rows x width)
    PkCheckMode pk_check = PkCheckMode::kAnyAttr;
    bool check_cost = true;
    bool include_pt_only = true;   ///< also mine Omega_0 (provenance only)
  };

  /// `shared_stats` (optional) replaces the enumerator's own StatsCatalog,
  /// so cost-estimate statistics are shared with the caller's other phases:
  /// the Explainer passes its executor's catalog, which also serves the join
  /// planner and APT index builds. The catalog is safe for concurrent use,
  /// so enumerations on several threads may share it.
  JoinGraphEnumerator(const SchemaGraph* schema_graph, const Database* db,
                      std::vector<std::string> query_relations, Options options,
                      StatsCatalog* shared_stats = nullptr)
      : schema_graph_(schema_graph),
        db_(db),
        query_relations_(std::move(query_relations)),
        options_(options),
        external_stats_(shared_stats) {}

  /// The catalog cost estimation reads: the shared one when given, the
  /// enumerator's own otherwise.
  StatsCatalog* stats_catalog() {
    return external_stats_ != nullptr ? external_stats_ : &stats_catalog_;
  }

  /// Runs the enumeration. `mine` is invoked for every valid join graph;
  /// `pt_rows`/`pt_columns` parameterize the cost estimate.
  Status Enumerate(double pt_rows, size_t pt_columns,
                   const std::function<Status(const JoinGraph&)>& mine);

  /// Convenience: collects all valid join graphs.
  Result<std::vector<JoinGraph>> EnumerateAll(double pt_rows, size_t pt_columns);

  const EnumeratorStats& stats() const { return stats_; }

  /// isValid (Algorithm 2): PK coverage of every context node plus the cost
  /// estimate. Exposed for tests.
  bool IsValid(const JoinGraph& g, double pt_rows, size_t pt_columns);

 private:
  /// ExtendJG: all one-edge extensions of `g`.
  std::vector<JoinGraph> Extend(const JoinGraph& g) const;

  /// AddEdge: extensions connecting `node` through (schema_edge, condition),
  /// where `node` plays the role of `rel_self`.
  void AddEdgeExtensions(const JoinGraph& g, int node,
                         const std::string& rel_self, int schema_edge,
                         int condition, std::vector<JoinGraph>* out) const;

  bool PkCovered(const JoinGraph& g) const;

  const SchemaGraph* schema_graph_;
  const Database* db_;
  std::vector<std::string> query_relations_;
  Options options_;
  EnumeratorStats stats_;
  StatsCatalog stats_catalog_;
  StatsCatalog* external_stats_ = nullptr;
};

}  // namespace cajade

#endif  // CAJADE_GRAPH_ENUMERATOR_H_
