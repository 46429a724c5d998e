// Tests for the dataset generators: schema shape, referential integrity,
// planted signals, and determinism.

#include <gtest/gtest.h>

#include <unordered_set>

#include "src/datasets/mimic.h"
#include "src/datasets/nba.h"
#include "src/exec/executor.h"
#include "src/sql/parser.h"

namespace cajade {
namespace {

double ScalarQuery(const Database& db, const std::string& sql) {
  QueryExecutor exec(&db);
  auto q = ParseQuery(sql).ValueOrDie();
  Table result = exec.Execute(q).ValueOrDie();
  return result.GetValue(0, 0).ToDouble();
}

TEST(NbaDatasetTest, SchemaMatchesFigure5) {
  NbaOptions opt;
  opt.scale_factor = 0.03;
  Database db = MakeNbaDatabase(opt).ValueOrDie();
  for (const char* table :
       {"season", "team", "player", "game", "player_salary", "play_for",
        "lineup", "lineup_player", "team_game_stats", "player_game_stats",
        "lineup_game_stats"}) {
    EXPECT_TRUE(db.HasTable(table)) << table;
  }
  EXPECT_EQ(db.num_tables(), 11u);
  EXPECT_EQ(db.GetTable("team").ValueOrDie()->num_rows(), 30u);
  EXPECT_EQ(db.GetTable("season").ValueOrDie()->num_rows(), 20u);
}

TEST(NbaDatasetTest, ReferentialIntegrityGameTeams) {
  NbaOptions opt;
  opt.scale_factor = 0.03;
  Database db = MakeNbaDatabase(opt).ValueOrDie();
  auto game = db.GetTable("game").ValueOrDie();
  auto team = db.GetTable("team").ValueOrDie();
  std::unordered_set<int64_t> team_ids;
  for (size_t r = 0; r < team->num_rows(); ++r) {
    team_ids.insert(team->GetValue(r, 0).AsInt());
  }
  int home = game->schema().FindColumn("home_id");
  int away = game->schema().FindColumn("away_id");
  int winner = game->schema().FindColumn("winner_id");
  for (size_t r = 0; r < game->num_rows(); ++r) {
    EXPECT_TRUE(team_ids.count(game->GetValue(r, home).AsInt()));
    EXPECT_TRUE(team_ids.count(game->GetValue(r, away).AsInt()));
    int64_t w = game->GetValue(r, winner).AsInt();
    EXPECT_TRUE(w == game->GetValue(r, home).AsInt() ||
                w == game->GetValue(r, away).AsInt());
  }
}

TEST(NbaDatasetTest, GswWinShapePlanted) {
  NbaOptions opt;
  opt.scale_factor = 0.25;
  Database db = MakeNbaDatabase(opt).ValueOrDie();
  QueryExecutor exec(&db);
  auto q = ParseQuery(NbaQuerySql(4)).ValueOrDie();
  Table wins = exec.Execute(q).ValueOrDie();
  // 2015-16 must be GSW's best season, and beat 2011-12 clearly.
  double best = 0, w2015 = 0, w2011 = 0;
  for (size_t r = 0; r < wins.num_rows(); ++r) {
    double w = wins.GetValue(r, 0).ToDouble();
    best = std::max(best, w);
    std::string season = wins.GetValue(r, 1).AsString();
    if (season == "2015-16") w2015 = w;
    if (season == "2011-12") w2011 = w;
  }
  // Sampling noise at small scale factors can shuffle the top seasons by a
  // couple of wins; require 2015-16 to sit at (or within 3 of) the top and
  // clearly beat the weak 2011-12 season.
  // (GSW's per-season schedule size itself varies at small scale factors.)
  EXPECT_GE(w2015, best - 5);
  EXPECT_GT(w2015, 1.4 * w2011);
}

TEST(NbaDatasetTest, RosterMovesPlanted) {
  NbaOptions opt;
  opt.scale_factor = 0.05;
  Database db = MakeNbaDatabase(opt).ValueOrDie();
  // Jarrett Jack: GSW only in 2012-13; Iguodala: GSW from 2013-14 on.
  double jack_gsw = ScalarQuery(
      db,
      "SELECT count(*) AS n FROM play_for pf, player p, team t "
      "WHERE pf.player_id = p.player_id AND pf.team_id = t.team_id "
      "AND p.player_name = 'Jarrett Jack' AND t.team = 'GSW'");
  EXPECT_EQ(jack_gsw, 1.0);
  double iguodala_gsw = ScalarQuery(
      db,
      "SELECT count(*) AS n FROM play_for pf, player p, team t "
      "WHERE pf.player_id = p.player_id AND pf.team_id = t.team_id "
      "AND p.player_name = 'Andre Iguodala' AND t.team = 'GSW'");
  EXPECT_EQ(iguodala_gsw, 1.0);
}

TEST(NbaDatasetTest, DeterministicForSameSeed) {
  NbaOptions opt;
  opt.scale_factor = 0.03;
  Database a = MakeNbaDatabase(opt).ValueOrDie();
  Database b = MakeNbaDatabase(opt).ValueOrDie();
  EXPECT_EQ(a.TotalRows(), b.TotalRows());
  auto ga = a.GetTable("game").ValueOrDie();
  auto gb = b.GetTable("game").ValueOrDie();
  ASSERT_EQ(ga->num_rows(), gb->num_rows());
  for (size_t r = 0; r < std::min<size_t>(ga->num_rows(), 50); ++r) {
    for (size_t c = 0; c < ga->num_columns(); ++c) {
      EXPECT_EQ(ga->GetValue(r, c), gb->GetValue(r, c));
    }
  }
}

TEST(NbaDatasetTest, ScaleFactorScalesFactTables) {
  NbaOptions small, large;
  small.scale_factor = 0.05;
  large.scale_factor = 0.2;
  size_t small_games =
      MakeNbaDatabase(small).ValueOrDie().GetTable("game").ValueOrDie()->num_rows();
  size_t large_games =
      MakeNbaDatabase(large).ValueOrDie().GetTable("game").ValueOrDie()->num_rows();
  EXPECT_NEAR(static_cast<double>(large_games) / small_games, 4.0, 0.5);
}

TEST(MimicDatasetTest, SchemaMatchesFigure6) {
  MimicOptions opt;
  opt.scale_factor = 0.05;
  Database db = MakeMimicDatabase(opt).ValueOrDie();
  for (const char* table : {"patients", "admissions", "patients_admit_info",
                            "icustays", "diagnoses", "procedures"}) {
    EXPECT_TRUE(db.HasTable(table)) << table;
  }
  EXPECT_EQ(db.num_tables(), 6u);
}

TEST(MimicDatasetTest, InsuranceMortalitySignal) {
  MimicOptions opt;
  opt.scale_factor = 0.4;
  Database db = MakeMimicDatabase(opt).ValueOrDie();
  double medicare = ScalarQuery(
      db,
      "SELECT 1.0*sum(hospital_expire_flag)/count(*) AS dr FROM admissions "
      "WHERE insurance = 'Medicare'");
  double priv = ScalarQuery(
      db,
      "SELECT 1.0*sum(hospital_expire_flag)/count(*) AS dr FROM admissions "
      "WHERE insurance = 'Private'");
  EXPECT_GT(medicare, 1.8 * priv);  // paper: 0.14 vs 0.06
}

TEST(MimicDatasetTest, IcuLosGroupsConsistent) {
  MimicOptions opt;
  opt.scale_factor = 0.1;
  Database db = MakeMimicDatabase(opt).ValueOrDie();
  auto icu = db.GetTable("icustays").ValueOrDie();
  int los_col = icu->schema().FindColumn("los");
  int group_col = icu->schema().FindColumn("los_group");
  for (size_t r = 0; r < icu->num_rows(); ++r) {
    double los = icu->GetValue(r, los_col).ToDouble();
    std::string group = icu->GetValue(r, group_col).AsString();
    if (los > 8) {
      EXPECT_EQ(group, "x>8");
    } else if (los <= 1) {
      EXPECT_EQ(group, "0-1");
    }
  }
}

TEST(MimicDatasetTest, HospitalDeathImpliesPatientExpireFlag) {
  MimicOptions opt;
  opt.scale_factor = 0.1;
  Database db = MakeMimicDatabase(opt).ValueOrDie();
  double inconsistent = ScalarQuery(
      db,
      "SELECT count(*) AS n FROM admissions a, patients p "
      "WHERE a.subject_id = p.subject_id AND a.hospital_expire_flag = 1 "
      "AND p.expire_flag = 0");
  EXPECT_EQ(inconsistent, 0.0);
}

}  // namespace
}  // namespace cajade
