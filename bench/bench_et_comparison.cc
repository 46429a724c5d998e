// Reproduces Figure 11 and Appendix Table 10: CaJaDE versus Explanation
// Tables (ET) on one fixed join graph (PT - player_game_stats - player for
// NBA Q1), varying the candidate-generation sample size, plus the first 20
// ET patterns for qualitative comparison.
//
// Expected shape: ET's runtime grows roughly quadratically in the sample
// size (candidate set is the sample crossed with itself, each candidate
// scanned against the table per greedy round); CaJaDE stays nearly flat.

#include "bench/bench_util.h"
#include "src/baselines/explanation_tables.h"
#include <set>

#include "src/common/string_util.h"
#include "src/sql/parser.h"

using namespace cajade;
using namespace cajade::bench;

int main() {
  NbaOptions opt;
  opt.scale_factor = EnvScale(0.25);
  Database db = MakeNbaDatabase(opt).ValueOrDie();
  SchemaGraph sg = MakeNbaSchemaGraph(db).ValueOrDie();
  auto query = ParseQuery(NbaQuerySql(4)).ValueOrDie();
  UserQuestion question = NbaQuestion(4);

  JoinGraph graph =
      BuildPathJoinGraph(sg, "game", {"player_game_stats", "player"})
          .ValueOrDie();
  Explainer explainer(&db, &sg);
  ShardedApt apt = explainer.BuildApt(query, question, graph).ValueOrDie();
  std::printf("APT: %zu rows, %zu pattern attributes (%s)\n", apt.num_rows(),
              apt.pattern_cols.size(), graph.Describe().c_str());

  // ET needs a binary outcome: row belongs to t1's provenance. Recover the
  // classes by re-deriving coverage from the miner inputs: rows of t1 are
  // the first class in pt_rows_used order, which BuildApt derived from the
  // question; recompute via the query result ordering.
  // (The provenance rows of t1 precede t2's in pt_rows_used only per group;
  // we rebuild the labels through the Explainer-independent path.)
  auto pt = ComputeProvenance(db, query).ValueOrDie();
  int row1 = question.t1.FindRow(pt.result).ValueOrDie();
  std::vector<int8_t> outcome(apt.pt_rows_used.size(), 0);
  {
    std::set<int64_t> t1_rows(pt.output_to_pt_rows[row1].begin(),
                              pt.output_to_pt_rows[row1].end());
    for (size_t i = 0; i < apt.pt_rows_used.size(); ++i) {
      outcome[i] = t1_rows.count(apt.pt_rows_used[i]) > 0 ? 1 : 0;
    }
  }
  std::vector<int8_t> row_outcome;  // per global APT row
  row_outcome.reserve(apt.num_rows());
  for (const AptShard& shard : apt.shards) {
    for (int32_t p : shard.pt_row) row_outcome.push_back(outcome[p]);
  }

  // ET operates on categorical data: bin the numeric columns (Appendix A.1's
  // preprocessing), and apply CaJaDE's feature selection for fairness as the
  // paper does.
  ShardedApt binned = BinNumericColumns(apt);

  std::vector<size_t> sizes =
      FullRuns() ? std::vector<size_t>{16, 64, 256, 512}
                 : std::vector<size_t>{16, 64, 128, 256};
  std::printf("\n%-12s %12s %12s\n", "sample", "CaJaDE", "ET");
  for (size_t size : sizes) {
    // CaJaDE: mine the same join graph with the LCA sample pinned to `size`.
    Explainer ex(&db, &sg);
    ex.mutable_config()->pat_sample_cap = size;
    ex.mutable_config()->pat_sample_rate = 1.0;
    Timer cajade_timer;
    auto mined = ex.MineJoinGraph(query, question, graph);
    double cajade_s = cajade_timer.ElapsedSeconds();
    if (!mined.ok()) {
      std::printf("CaJaDE error: %s\n", mined.status().ToString().c_str());
      return 1;
    }

    EtOptions et_options;
    et_options.sample_size = size;
    et_options.table_size = 20;
    ExplanationTables et(et_options);
    Rng rng(7);
    Timer et_timer;
    auto table = et.Build(binned, row_outcome, &rng);
    double et_s = et_timer.ElapsedSeconds();
    std::printf("%-12zu %11.2fs %11.2fs\n", size, cajade_s, et_s);
  }

  // Appendix Table 10 analogue: the first 20 ET patterns at sample size 64.
  std::printf("\nFirst 20 ET patterns (sample size 64):\n");
  EtOptions et_options;
  et_options.sample_size = 64;
  et_options.table_size = 20;
  ExplanationTables et(et_options);
  Rng rng(7);
  auto table = et.Build(binned, row_outcome, &rng);
  for (size_t i = 0; i < table.size(); ++i) {
    std::printf("%2zu. %s  (rate=%.2f, count=%lld, gain=%.3f)\n", i + 1,
                table[i].pattern.Describe(binned.schema_table()).c_str(),
                table[i].outcome_rate,
                static_cast<long long>(table[i].count), table[i].gain);
  }
  return 0;
}
