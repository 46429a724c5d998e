// APT size/cost estimation for join-graph pruning (Section 4, lambda_qcost).
// Plays the role of the DBMS cost estimate the paper obtains from
// PostgreSQL: a Selinger-style cardinality estimate from per-column distinct
// counts, multiplied by the APT width.
//
// Ownership and thread-safety: stateless free functions over a borrowed
// statistics catalog, which is safe for concurrent use; concurrent calls
// are safe.

#ifndef CAJADE_GRAPH_COST_H_
#define CAJADE_GRAPH_COST_H_

#include "src/graph/join_graph.h"
#include "src/stats/table_stats.h"
#include "src/storage/database.h"

namespace cajade {

/// Estimated number of APT rows for join graph `g` given `pt_rows` rows in
/// the provenance table, step by step in PlanAptSteps order. Infinite for a
/// graph PlanAptSteps rejects (it cannot be materialized).
double EstimateAptRows(const JoinGraph& g, const SchemaGraph& sg,
                       const Database& db, StatsCatalog* stats, double pt_rows);

/// Estimated materialization + mining cost: estimated rows times APT width
/// (provenance columns plus all context columns).
double EstimateAptCost(const JoinGraph& g, const SchemaGraph& sg,
                       const Database& db, StatsCatalog* stats, double pt_rows,
                       size_t pt_columns);

}  // namespace cajade

#endif  // CAJADE_GRAPH_COST_H_
