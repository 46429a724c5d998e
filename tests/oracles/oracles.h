// Differential-testing oracles: scalar restatements of the paper's
// definitions and of the seed's join algorithms, which the engine's kernel
// paths are checked against. They are compiled into the test-only
// cajade_oracles library, which only the tests and bench_micro link; the
// engine library, the examples, the paper-table programs, bench_load and the
// end-to-end benchmark never contain them.
//
//  - ReferenceHashEquiJoin: HashEquiJoin's oracle, the seed's
//    hash-build/probe-verify equi-join.
//  - ReferenceExecuteSpj: QueryExecutor::ExecuteSpj's oracle and the
//    BM_ExecuteSpjSeed baseline, the seed's tuple-key join loop. It shares
//    binding, pushdown, residual filters and working-table materialization
//    with the executor (src/exec/spj_steps.h); only the join loop differs.
//  - ReferenceMaterializeApt: MaterializeAptSharded's oracle and the
//    BM_MaterializeAptSeed baseline, the seed's scalar APT materializer
//    (Definition 4).
//  - ComputeCoverage, ScoreFromCoverage and ScorePattern: coverage and
//    precision/recall/F-score evaluated row by row with Pattern::Matches
//    (Definitions 6-7), the oracle of the miner and of CoverageScorer.
//  - CoverageFromRows: CoverageScorer::CoverageFromMask's oracle.
//
// The oracles restate the engine's small helpers (the PT-column lookup, the
// bind error texts, the F-score formula) instead of calling them, so a
// differential test compares production against an independent copy.
//
// Ownership and thread-safety: stateless free functions; inputs are borrowed
// read-only and results are fresh caller-owned values, so concurrent calls
// are safe.

#ifndef CAJADE_TESTS_ORACLES_ORACLES_H_
#define CAJADE_TESTS_ORACLES_ORACLES_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/exec/executor.h"
#include "src/exec/join.h"
#include "src/graph/join_graph.h"
#include "src/graph/schema_graph.h"
#include "src/mining/apt.h"
#include "src/mining/coverage.h"
#include "src/mining/pattern.h"
#include "src/mining/quality.h"
#include "src/provenance/provenance.h"
#include "src/sql/expr.h"
#include "src/storage/database.h"

namespace cajade {

/// The seed's hash-build/probe-verify algorithm restated on
/// std::unordered_map with per-key vectors, so duplicate matches come back
/// in deterministic right_rows order (the seed's unordered_multimap left
/// that order implementation-defined). The verbatim seed code survives as
/// SeedMultimapJoin in bench/bench_micro.cc, the "before" side of
/// BENCH_join.json.
std::vector<std::pair<int64_t, int64_t>> ReferenceHashEquiJoin(
    const Table& left, const std::vector<int64_t>& left_rows, const Table& right,
    const std::vector<int64_t>& right_rows, const JoinKeySpec& keys);

/// The seed's tuple-key select-project-join (std::vector<Value> keys hashed
/// into an unordered_multimap, first textually-connected join order).
/// Produces the same working-row multiset as QueryExecutor::ExecuteSpj; row
/// order may differ when the planner reorders joins.
Result<SpjOutput> ReferenceExecuteSpj(const Database& db,
                                      const ParsedQuery& query);

/// The seed's scalar APT materializer (per-row HashRowKey/RowKeysEqual
/// probes against a local flat index per tree edge, breadth-first edge
/// order), kept verbatim. Returns one full-range shard.
Result<ShardedApt> ReferenceMaterializeApt(const ProvenanceTable& pt,
                                           const std::vector<int64_t>& pt_rows,
                                           const JoinGraph& graph,
                                           const SchemaGraph& schema_graph,
                                           const Database& db,
                                           size_t row_limit = 0);

/// Coverage bitmap (Definition 7a): out[p] = 1 iff some APT row of PT
/// position p (within the view) matches the pattern. Every shard row is
/// tested with Pattern::Matches, shards in order; `view` must have been
/// built from `apt`.
void ComputeCoverage(const Pattern& pattern, const ShardedApt& apt,
                     const MetricsView& view, std::vector<uint8_t>* covered);

/// Scores from a coverage bitmap with `primary` = 0 (t1) or 1 (t2).
PatternScores ScoreFromCoverage(const std::vector<uint8_t>& covered,
                                const PtClasses& classes,
                                const MetricsView& view, int primary);

/// Coverage and scoring in one call.
PatternScores ScorePattern(const Pattern& pattern, const ShardedApt& apt,
                           const PtClasses& classes, const MetricsView& view,
                           int primary);

/// Fills `*covered` (Reset to the number of PT positions) from matched APT
/// rows: covered bit pt_row[r] set for every r in rows.
void CoverageFromRows(const std::vector<int32_t>& rows,
                      const std::vector<int32_t>& pt_row,
                      CoverageBitmap* covered);

}  // namespace cajade

#endif  // CAJADE_TESTS_ORACLES_ORACLES_H_
