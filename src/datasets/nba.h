// Synthetic NBA dataset reproducing the paper's Figure 5 schema: season,
// team, player, game, player_salary, play_for, lineup, lineup_player,
// team_game_stats (wide), player_game_stats (wide), lineup_game_stats.
//
// Substitution note (docs/DESIGN.md, Section 1): the paper scrapes nba.com;
// we generate a seeded synthetic instance that preserves the schema
// topology, relative cardinalities, join fan-outs, attribute mix, and —
// crucially for the case studies — the signals the paper's explanations
// recover:
//   * GSW's win counts per season (26, 36, 23, 47, 51, 67, 73, 67, 58, 57),
//   * GSW's average assists jump from 2013-14 to 2014-15 (with assistpoints
//     causally derived from assists),
//   * named players' careers: Curry's 2015-16 scoring peak, Draymond
//     Green's per-season scoring arc and salary jump, LeBron's CLE-MIA-CLE
//     moves, Jimmy Butler's rise in CHI, Jarrett Jack leaving GSW in 2013,
//     Andre Iguodala joining in 2013, Pau Gasol's late-career moves.
//
// Scale factor 1.0 corresponds to a full 10-season schedule (1230 games per
// season); smaller/larger factors shrink/grow the schedule per Section 5's
// methodology (relative table sizes and join-result sizes preserved).
//
// Ownership and thread-safety: stateless generator functions, deterministic
// in the seed; each call returns a fresh caller-owned Database, so
// concurrent calls are safe.

#ifndef CAJADE_DATASETS_NBA_H_
#define CAJADE_DATASETS_NBA_H_

#include "src/graph/schema_graph.h"
#include "src/storage/database.h"

namespace cajade {

struct NbaOptions {
  double scale_factor = 0.1;
  uint64_t seed = 1234;
  /// Players dressed per team per game (drives player_game_stats size).
  int players_per_game = 8;
  /// Lineups recorded per team per game (drives lineup_game_stats size).
  int lineups_per_game = 4;
};

/// Generates the NBA database.
Result<Database> MakeNbaDatabase(const NbaOptions& options = {});

/// Schema graph from the FK constraints plus the user conditions the paper
/// adds (winner-side joins, lineup_player self-join).
Result<SchemaGraph> MakeNbaSchemaGraph(const Database& db);

/// The paper's NBA workload queries Qnba1..Qnba5 (Table 3), 1-indexed.
std::string NbaQuerySql(int index);

}  // namespace cajade

#endif  // CAJADE_DATASETS_NBA_H_
