// Serving-layer tests: ExplainServer request flow and the ResultCache
// contract — hit/miss accounting, the two-step validation (input versions,
// then fingerprint) and invalidation when a base table changes, byte-bound
// eviction, and the bit-identical cached-vs-uncached guarantee at several
// thread counts. The TSan CI job runs this binary, so the concurrent-client
// scenarios double as race detectors over the shared pool and process-wide
// caches.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/explainer.h"
#include "src/datasets/example_nba.h"
#include "src/serve/explain_server.h"
#include "tests/cache_test_util.h"

namespace cajade {

// Test-only access to the private request slots (friend of ExplainServer):
// lets the FIFO handoff tests below control exactly when each waiter is
// queued, which no public-API test can do deterministically.
struct ExplainServerTestPeer {
  static void Acquire(ExplainServer& server) { server.Acquire(); }
  static void Release(ExplainServer& server) { server.Release(); }
  static size_t IdleSlots(ExplainServer& server) {
    MutexLock lock(server.slot_mu_);
    return server.idle_;
  }
  static size_t WaiterCount(ExplainServer& server) {
    MutexLock lock(server.slot_mu_);
    return server.waiters_.size();
  }
};

namespace {

constexpr const char* kQ1 =
    "SELECT winner AS team, season, count(*) AS win "
    "FROM game g WHERE winner = 'GSW' GROUP BY winner, season";

UserQuestion TwoPointQuestion() {
  return UserQuestion::TwoPoint(Where({{"season", Value("2015-16")}}),
                                Where({{"season", Value("2012-13")}}));
}

UserQuestion SinglePointQuestion() {
  return UserQuestion::SinglePoint(Where({{"season", Value("2015-16")}}));
}

void ExpectSameExplanations(const ExplainResult& a, const ExplainResult& b) {
  ASSERT_EQ(a.explanations.size(), b.explanations.size());
  for (size_t i = 0; i < a.explanations.size(); ++i) {
    const Explanation& ea = a.explanations[i];
    const Explanation& eb = b.explanations[i];
    EXPECT_EQ(ea.join_graph, eb.join_graph) << "rank " << i;
    EXPECT_EQ(ea.pattern, eb.pattern) << "rank " << i;
    EXPECT_EQ(ea.primary, eb.primary) << "rank " << i;
    EXPECT_EQ(ea.fscore, eb.fscore) << "rank " << i;
    EXPECT_EQ(ea.precision, eb.precision) << "rank " << i;
    EXPECT_EQ(ea.recall, eb.recall) << "rank " << i;
    EXPECT_EQ(ea.support_primary, eb.support_primary) << "rank " << i;
    EXPECT_EQ(ea.support_other, eb.support_other) << "rank " << i;
  }
}

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeExampleNbaDatabase().ValueOrDie();
    schema_graph_ = MakeExampleNbaSchemaGraph(db_).ValueOrDie();
  }

  ExplainServer::Options BaseOptions() const {
    ExplainServer::Options options;
    options.num_explainers = 2;
    options.pool_threads = 2;
    return options;
  }

  Database db_;
  SchemaGraph schema_graph_;
};

TEST_F(ServeTest, RepeatedRequestHitsResultCache) {
  ExplainServer server(&db_, &schema_graph_, BaseOptions());
  auto first = server.Explain(kQ1, TwoPointQuestion()).ValueOrDie();
  auto second = server.Explain(kQ1, TwoPointQuestion()).ValueOrDie();
  // A hit shares the exact cached object, not a recomputed copy.
  EXPECT_EQ(first.get(), second.get());
  auto c = server.counters();
  EXPECT_EQ(c.requests, 2u);
  EXPECT_EQ(c.result_misses, 1u);
  EXPECT_EQ(c.result_hits, 1u);
  EXPECT_EQ(c.result_invalidations, 0u);
  ASSERT_FALSE(first->explanations.empty());
}

TEST_F(ServeTest, DistinctQuestionsGetDistinctEntries) {
  ExplainServer server(&db_, &schema_graph_, BaseOptions());
  auto two_point = server.Explain(kQ1, TwoPointQuestion()).ValueOrDie();
  auto single = server.Explain(kQ1, SinglePointQuestion()).ValueOrDie();
  EXPECT_NE(server.CacheKey(kQ1, TwoPointQuestion()),
            server.CacheKey(kQ1, SinglePointQuestion()));
  EXPECT_NE(two_point.get(), single.get());
  auto c = server.counters();
  EXPECT_EQ(c.result_misses, 2u);
  EXPECT_EQ(c.result_hits, 0u);
}

TEST(ServeKeyTest, CloseDoublesAndSwappedSidesGetTheirOwnEntries) {
  // Two groups whose keys agree to 6 significant digits, and a second
  // question that swaps t1 and t2. Both questions select the same PT rows,
  // so the validation tag (the PT fingerprint) cannot tell them apart; only
  // an exact key can. With a key rendered by TupleSelector::ToString, B was
  // served A's entry and every explanation's primary side was flipped.
  Database db;
  TablePtr t = db.CreateTable("t", Schema({{"x", DataType::kDouble},
                                           {"k", DataType::kString},
                                           {"v", DataType::kInt64}}))
                   .ValueOrDie();
  for (int64_t i = 0; i < 10; ++i) {
    const bool first = i < 5;
    ASSERT_TRUE(t->AppendRow({Value(first ? 0.1000001 : 0.1000002),
                              Value(first == (i % 5 != 4) ? "a" : "b"),
                              Value(i)})
                    .ok());
  }
  SchemaGraph sg;
  const std::string sql = "SELECT x, COUNT(*) AS c FROM t GROUP BY x";
  const UserQuestion a =
      UserQuestion::TwoPoint(Where({{"x", Value(0.1000001)}}),
                             Where({{"x", Value(0.1000002)}}));
  const UserQuestion b = UserQuestion::TwoPoint(a.t2, a.t1);

  ExplainServer::Options options;
  options.num_explainers = 1;
  options.pool_threads = 1;
  ExplainServer server(&db, &sg, options);
  EXPECT_NE(server.CacheKey(sql, a), server.CacheKey(sql, b));
  // Values keep their type: 1 and 1.0 select alike but key apart.
  EXPECT_NE(server.CacheKey(sql, UserQuestion::SinglePoint(
                                     Where({{"x", Value(int64_t{1})}}))),
            server.CacheKey(sql, UserQuestion::SinglePoint(
                                     Where({{"x", Value(1.0)}}))));

  auto served_a = server.Explain(sql, a).ValueOrDie();
  auto served_b = server.Explain(sql, b).ValueOrDie();
  EXPECT_NE(served_a.get(), served_b.get());
  EXPECT_EQ(server.counters().result_hits, 0u);
  EXPECT_EQ(server.counters().result_misses, 2u);

  Explainer fresh(&db, &sg, options.config);
  const ExplainResult want_a = fresh.Explain(sql, a).ValueOrDie();
  const ExplainResult want_b = fresh.Explain(sql, b).ValueOrDie();
  ASSERT_FALSE(want_b.explanations.empty());
  ExpectSameExplanations(want_a, *served_a);
  ExpectSameExplanations(want_b, *served_b);
  // The sides really differ: the top pattern's primary flips with them.
  EXPECT_NE(want_a.explanations[0].primary, want_b.explanations[0].primary);
}

TEST_F(ServeTest, ServersWithDifferentConfigsServeTheirOwnAnswers) {
  // The result-cache key carries no config: each server owns its cache and
  // its config is fixed, so two servers over one database with different
  // top_k never share an entry, even though their keys are equal.
  ExplainServer::Options narrow = BaseOptions();
  narrow.config.top_k = 2;
  ExplainServer::Options wide = BaseOptions();
  wide.config.top_k = 7;
  ExplainServer narrow_server(&db_, &schema_graph_, narrow);
  ExplainServer wide_server(&db_, &schema_graph_, wide);
  EXPECT_EQ(narrow_server.CacheKey(kQ1, TwoPointQuestion()),
            wide_server.CacheKey(kQ1, TwoPointQuestion()));

  Explainer fresh_narrow(&db_, &schema_graph_, narrow.config);
  Explainer fresh_wide(&db_, &schema_graph_, wide.config);
  const ExplainResult want_narrow =
      fresh_narrow.Explain(kQ1, TwoPointQuestion()).ValueOrDie();
  const ExplainResult want_wide =
      fresh_wide.Explain(kQ1, TwoPointQuestion()).ValueOrDie();
  // top_k bounds the explanations kept per join graph.
  ASSERT_LT(want_narrow.explanations.size(), want_wide.explanations.size());

  for (int round = 0; round < 2; ++round) {  // a miss, then a hit
    ExpectSameExplanations(
        want_narrow, *narrow_server.Explain(kQ1, TwoPointQuestion()).ValueOrDie());
    ExpectSameExplanations(
        want_wide, *wide_server.Explain(kQ1, TwoPointQuestion()).ValueOrDie());
  }
  EXPECT_EQ(narrow_server.counters().result_hits, 1u);
  EXPECT_EQ(wide_server.counters().result_hits, 1u);
}

TEST_F(ServeTest, BaseTableChangeFlipsFingerprintAndInvalidates) {
  ExplainServer server(&db_, &schema_graph_, BaseOptions());
  auto before = server.Explain(kQ1, TwoPointQuestion()).ValueOrDie();
  int64_t wins_before = before->query_result.GetValue(0, 2).AsInt() +
                        before->query_result.GetValue(1, 2).AsInt();

  // One more GSW win in 2015-16: the provenance the question selects
  // changes, so the cached result must not be served again.
  TablePtr game = db_.GetTable("game").ValueOrDie();
  ASSERT_TRUE(game->AppendRow({Value(int64_t{2016}), Value(int64_t{6}),
                               Value(int64_t{30}), Value("GSW"), Value("CLE"),
                               Value(int64_t{120}), Value(int64_t{100}),
                               Value("GSW"), Value("2015-16")})
                  .ok());

  auto after = server.Explain(kQ1, TwoPointQuestion()).ValueOrDie();
  EXPECT_NE(before.get(), after.get());
  int64_t wins_after = after->query_result.GetValue(0, 2).AsInt() +
                       after->query_result.GetValue(1, 2).AsInt();
  EXPECT_EQ(wins_after, wins_before + 1);
  auto c = server.counters();
  EXPECT_EQ(c.result_invalidations, 1u);
  EXPECT_EQ(c.result_misses, 2u);
  EXPECT_EQ(c.result_hits, 0u);

  // The new result is cached under the new fingerprint.
  auto again = server.Explain(kQ1, TwoPointQuestion()).ValueOrDie();
  EXPECT_EQ(after.get(), again.get());
  EXPECT_EQ(server.counters().result_hits, 1u);
}

TEST_F(ServeTest, AppendOfNewStringKeepsEarlierResultAndMatchesFresh) {
  ExplainServer server(&db_, &schema_graph_, BaseOptions());
  auto before = server.Explain(kQ1, TwoPointQuestion()).ValueOrDie();
  const std::string rendered = before->query_result.ToString();

  // A GSW 2015-16 win over an opponent the `away` column has never seen:
  // the PT changes, and interning the name clones the dictionary the base
  // table shares with the provenance and the cached APT prefix states.
  TablePtr game = db_.GetTable("game").ValueOrDie();
  ASSERT_EQ(game->FindColumn("away")->FindCode("SEA"), -1);
  ASSERT_TRUE(game->AppendRow({Value(int64_t{2016}), Value(int64_t{6}),
                               Value(int64_t{29}), Value("GSW"), Value("SEA"),
                               Value(int64_t{118}), Value(int64_t{97}),
                               Value("GSW"), Value("2015-16")})
                  .ok());
  EXPECT_EQ(before->query_result.ToString(), rendered);

  auto served = server.Explain(kQ1, TwoPointQuestion()).ValueOrDie();
  EXPECT_NE(served.get(), before.get());
  EXPECT_EQ(server.counters().result_invalidations, 1u);
  Explainer fresh(&db_, &schema_graph_);
  ExpectSameExplanations(fresh.Explain(kQ1, TwoPointQuestion()).ValueOrDie(),
                         *served);
  EXPECT_EQ(before->query_result.ToString(), rendered);
}

TEST_F(ServeTest, ContextWriteIsNotServedFromStalePrefixStates) {
  // lineup_per_game_stats is a context relation of kQ1 (its FROM clause
  // reads only game), and PT - lineup_per_game_stats - lineup_player caches
  // its first step's state. After rows are appended to it, the mirror
  // question misses the result cache but selects the same PT rows, so its
  // materialization looks up the same prefix keys; it must not be served
  // states built before the write.
  ExplainServer server(&db_, &schema_graph_, BaseOptions());
  const UserQuestion question = TwoPointQuestion();
  const UserQuestion mirror = UserQuestion::TwoPoint(question.t2, question.t1);
  (void)server.Explain(kQ1, question).ValueOrDie();

  // Lineup 58420 plays long minutes in every 2012-13 game.
  TablePtr game = db_.GetTable("game").ValueOrDie();
  TablePtr stats = db_.GetTable("lineup_per_game_stats").ValueOrDie();
  for (size_t r = 0; r < game->num_rows(); ++r) {
    if (game->GetValue(r, 8).AsString() != "2012-13") continue;
    ASSERT_TRUE(stats->AppendRow({Value(int64_t{58420}), game->GetValue(r, 0),
                                  game->GetValue(r, 1), game->GetValue(r, 2),
                                  game->GetValue(r, 3), Value(29.5)})
                    .ok());
  }

  auto served = server.Explain(kQ1, mirror).ValueOrDie();
  EXPECT_EQ(server.counters().result_hits, 0u);
  Explainer fresh(&db_, &schema_graph_, BaseOptions().config);
  ExpectSameExplanations(fresh.Explain(kQ1, mirror).ValueOrDie(), *served);
}

TEST_F(ServeTest, TinyByteBoundEvictsButStaysCorrect) {
  ExplainServer::Options options = BaseOptions();
  options.result_cache_bytes = 1;  // nothing fits: every insert evicts
  ExplainServer server(&db_, &schema_graph_, options);

  auto first = server.Explain(kQ1, TwoPointQuestion()).ValueOrDie();
  auto second = server.Explain(kQ1, TwoPointQuestion()).ValueOrDie();
  // Both requests recomputed (the entry never survives), both correct.
  ExpectSameExplanations(*first, *second);
  auto c = server.counters();
  EXPECT_EQ(c.result_misses, 2u);
  EXPECT_EQ(c.result_hits, 0u);
  EXPECT_GE(c.result_evictions, 2u);
  EXPECT_EQ(server.result_cache().bytes_in_use(), 0u);
}

TEST_F(ServeTest, CachedMatchesUncachedAtEveryThreadCount) {
  // Reference: a plain single-stream Explainer, fully serial.
  Explainer reference(&db_, &schema_graph_);
  auto expected = reference.Explain(kQ1, TwoPointQuestion()).ValueOrDie();

  for (int threads : {1, 4, 8}) {
    ExplainServer::Options options;
    options.config.num_threads = threads;
    options.pool_threads = threads;
    options.num_explainers = 2;

    ExplainServer cached(&db_, &schema_graph_, options);
    options.enable_result_cache = false;
    ExplainServer uncached(&db_, &schema_graph_, options);

    (void)cached.Explain(kQ1, TwoPointQuestion()).ValueOrDie();
    auto from_cache = cached.Explain(kQ1, TwoPointQuestion()).ValueOrDie();
    auto recomputed = uncached.Explain(kQ1, TwoPointQuestion()).ValueOrDie();
    EXPECT_EQ(cached.counters().result_hits, 1u) << threads << " threads";

    ExpectSameExplanations(expected, *from_cache);
    ExpectSameExplanations(expected, *recomputed);
  }
}

TEST_F(ServeTest, ConcurrentClientsShareCachesAndPool) {
  Explainer reference(&db_, &schema_graph_);
  auto expected_two = reference.Explain(kQ1, TwoPointQuestion()).ValueOrDie();
  auto expected_single =
      reference.Explain(kQ1, SinglePointQuestion()).ValueOrDie();

  // With the result cache off, every request runs ExplainPrepared on the
  // server's one Explainer, concurrently with the other clients'.
  for (bool result_cache : {true, false}) {
    SCOPED_TRACE(result_cache ? "result cache on" : "result cache off");
    ExplainServer::Options options;
    options.num_explainers = 4;
    options.pool_threads = 4;
    options.config.num_threads = 2;
    options.enable_result_cache = result_cache;
    ExplainServer server(&db_, &schema_graph_, options);

    constexpr int kClients = 8;
    constexpr int kIters = 3;
    std::vector<std::thread> clients;
    std::vector<int> failures(kClients, 0);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int i = 0; i < kIters; ++i) {
          bool two_point = (c + i) % 2 == 0;
          auto result = server.Explain(
              kQ1, two_point ? TwoPointQuestion() : SinglePointQuestion());
          if (!result.ok()) {
            ++failures[c];
            continue;
          }
          const ExplainResult& expected =
              two_point ? expected_two : expected_single;
          if (result.ValueOrDie()->explanations.size() !=
              expected.explanations.size()) {
            ++failures[c];
          }
        }
      });
    }
    for (auto& t : clients) t.join();
    for (int c = 0; c < kClients; ++c) {
      EXPECT_EQ(failures[c], 0) << "client " << c;
    }
    auto counters = server.counters();
    EXPECT_EQ(counters.requests, static_cast<size_t>(kClients * kIters));
    if (result_cache) {
      // Two distinct keys were ever computed; everything else hit or
      // latched onto an in-flight computation.
      EXPECT_EQ(counters.result_hits + counters.result_misses,
                static_cast<size_t>(kClients * kIters));
      EXPECT_GE(counters.result_hits, counters.result_misses);
    } else {
      EXPECT_EQ(counters.result_hits + counters.result_misses, 0u);
      // Every request materialized through the one index cache, so it
      // built each index once and served the other requests from it.
      EXPECT_GT(counters.index_hits, counters.index_builds);
    }

    // Full-detail determinism check (on the cached objects when cached).
    ExpectSameExplanations(
        expected_two, *server.Explain(kQ1, TwoPointQuestion()).ValueOrDie());
    ExpectSameExplanations(
        expected_single,
        *server.Explain(kQ1, SinglePointQuestion()).ValueOrDie());
  }
}

TEST_F(ServeTest, ShardedServingMatchesUnshardedAndReportsCounters) {
  // The apt_shard_rows knob is perf/memory-only: results are bit-identical,
  // so it is deliberately absent from the result-cache config hash, and the
  // counters expose what changed instead — shard counts and the peak
  // resident APT bytes the shard bound caps.
  ExplainServer unsharded(&db_, &schema_graph_, BaseOptions());
  auto expected = unsharded.Explain(kQ1, TwoPointQuestion()).ValueOrDie();
  auto base_counters = unsharded.counters();
  EXPECT_GT(base_counters.peak_apt_bytes, 0u);
  EXPECT_GT(base_counters.apt_shards, 0u);

  ExplainServer::Options options = BaseOptions();
  options.config.apt_shard_rows = 4;
  ExplainServer server(&db_, &schema_graph_, options);
  auto result = server.Explain(kQ1, TwoPointQuestion()).ValueOrDie();
  ExpectSameExplanations(*expected, *result);

  auto c = server.counters();
  // More shards than the unsharded path's one-per-graph, and a peak no
  // worse than unsharded (each resident state spans one shard range).
  EXPECT_GT(c.apt_shards, base_counters.apt_shards);
  EXPECT_GT(c.peak_apt_bytes, 0u);
  EXPECT_LE(c.peak_apt_bytes, base_counters.peak_apt_bytes);
  EXPECT_GT(c.prefix_peak_bytes + c.index_peak_bytes, 0u);

  // A result-cache hit materializes nothing: the metric counters must not
  // move.
  auto again = server.Explain(kQ1, TwoPointQuestion()).ValueOrDie();
  EXPECT_EQ(again.get(), result.get());
  auto c2 = server.counters();
  EXPECT_EQ(c2.apt_shards, c.apt_shards);
  EXPECT_EQ(c2.peak_apt_bytes, c.peak_apt_bytes);
}

/// A copy of `table` whose row `row` has `column` replaced by `value`; a
/// new object with a version of its own.
TablePtr CopyWithCell(const Table& table, size_t row, const std::string& column,
                      const Value& value) {
  auto copy = std::make_shared<Table>(table.name(), table.schema());
  const int col = table.schema().FindColumn(column);
  for (size_t r = 0; r < table.num_rows(); ++r) {
    std::vector<Value> cells;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const bool replaced = r == row && static_cast<int>(c) == col;
      cells.push_back(replaced ? value : table.GetValue(r, c));
    }
    EXPECT_TRUE(copy->AppendRow(cells).ok());
  }
  return copy;
}

/// The first row of `table` whose `column` holds `value` (a string).
size_t FirstRowWhere(const Table& table, const std::string& column,
                     const std::string& value) {
  const Column& col = *table.FindColumn(column);
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (!col.IsNull(r) && col.GetString(r) == value) return r;
  }
  ADD_FAILURE() << "no row with " << column << " = " << value;
  return 0;
}

// The two-step rule on one scripted stream. After every step the counters
// say which path served the request: a version hit when no FROM table
// changed version, a re-validating hit when one did but the PT did not, an
// invalidation when the PT changed. The served answer equals a fresh
// Explainer's on the database as it then is.
TEST_F(ServeTest, VersionHitsSkipPrepareOnlyWhileTheFromTablesAreUnchanged) {
  ExplainServer server(&db_, &schema_graph_, BaseOptions());
  const UserQuestion question = TwoPointQuestion();
  struct Want {
    size_t hits, misses, invalidations, version_hits;
  };
  auto serve = [&](const char* step, Want want) {
    SCOPED_TRACE(step);
    auto served = server.Explain(kQ1, question).ValueOrDie();
    const ExplainServer::Counters c = server.counters();
    EXPECT_EQ(c.result_hits, want.hits);
    EXPECT_EQ(c.result_misses, want.misses);
    EXPECT_EQ(c.result_invalidations, want.invalidations);
    EXPECT_EQ(c.version_hits, want.version_hits);
    Explainer fresh(&db_, &schema_graph_);
    ExpectSameExplanations(fresh.Explain(kQ1, question).ValueOrDie(), *served);
    return served;
  };
  auto game = [&] { return db_.GetTable("game").ValueOrDie(); };
  auto append_game = [&](const char* winner, const char* season) {
    ASSERT_TRUE(game()
                    ->AppendRow({Value(int64_t{2016}), Value(int64_t{6}),
                                 Value(int64_t{30}), Value(winner),
                                 Value("TOR"), Value(int64_t{110}),
                                 Value(int64_t{100}), Value(winner),
                                 Value(season)})
                    .ok());
  };

  auto first = serve("first request mines", {0, 1, 0, 0});
  EXPECT_EQ(serve("repeat", {1, 1, 0, 1}), first);

  append_game("CLE", "2015-16");  // filtered out by WHERE winner = 'GSW'
  EXPECT_EQ(serve("append the WHERE drops", {2, 1, 0, 1}), first);
  EXPECT_EQ(serve("repeat after re-validation", {3, 1, 0, 2}), first);

  // Outside the question's two groups, but inside the PT, whose whole
  // content the fingerprint folds in.
  append_game("GSW", "2013-14");
  auto second = serve("append that enters the PT", {3, 2, 1, 2});
  EXPECT_NE(second, first);

  // lineup_player is not in the FROM clause; the row joins nothing.
  ASSERT_TRUE(db_.GetTable("lineup_player")
                  .ValueOrDie()
                  ->AppendRow({Value(int64_t{99999}), Value("Z. Nobody")})
                  .ok());
  EXPECT_EQ(serve("append to a table the query does not read", {4, 2, 1, 3}),
            second);

  // Copies keep the version along with the content.
  db_.ReplaceTable(std::make_shared<Table>(*game()));
  EXPECT_EQ(serve("replace with an identical copy", {5, 2, 1, 4}), second);

  const size_t other = FirstRowWhere(*game(), "winner", "CLE");
  db_.ReplaceTable(CopyWithCell(*game(), other, "home_pts", Value(int64_t{1})));
  EXPECT_EQ(serve("replace with a copy whose one row changed", {6, 2, 1, 4}),
            second);

  // An in-place cell edit, then the re-stamp the contract asks for.
  const TablePtr edited = game();
  const size_t gsw = FirstRowWhere(*edited, "winner", "GSW");
  const int pts = edited->schema().FindColumn("home_pts");
  Column column(DataType::kInt64);
  for (size_t r = 0; r < edited->num_rows(); ++r) {
    column.AppendInt(r == gsw ? 1 : edited->column(pts).GetInt(r));
  }
  edited->column(pts) = std::move(column);
  edited->MarkMutated();
  auto third = serve("cell edited through column()", {6, 3, 2, 4});
  EXPECT_NE(third, second);
  EXPECT_EQ(serve("repeat", {7, 3, 2, 5}), third);

  // Fails in Prepare every time, so nothing is recorded for it.
  const UserQuestion twice =
      UserQuestion::TwoPoint(Where({{"season", Value("2015-16")}}),
                             Where({{"season", Value("2015-16")}}));
  const size_t bytes = server.result_cache().bytes_in_use();
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(server.Explain(kQ1, twice).status().code(),
              StatusCode::kInvalidArgument);
  }
  const ExplainServer::Counters c = server.counters();
  EXPECT_EQ(c.requests, 12u);
  EXPECT_EQ(c.result_hits, 7u);
  EXPECT_EQ(c.result_misses, 3u);
  EXPECT_EQ(c.version_hits, 5u);
  EXPECT_EQ(server.result_cache().bytes_in_use(), bytes);
}

// With every request slot held, a version-validated hit still returns (it
// runs no Explainer code), while a request that must run Prepare queues.
TEST_F(ServeTest, VersionHitTakesNoRequestSlot) {
  auto options = BaseOptions();
  options.num_explainers = 1;
  ExplainServer server(&db_, &schema_graph_, options);
  auto warm = server.Explain(kQ1, TwoPointQuestion()).ValueOrDie();

  ExplainServerTestPeer::Acquire(server);
  ASSERT_EQ(ExplainServerTestPeer::IdleSlots(server), 0u);
  EXPECT_EQ(server.Explain(kQ1, TwoPointQuestion()).ValueOrDie(), warm);
  EXPECT_EQ(server.counters().version_hits, 1u);

  // A new version of game, same content: the request re-validates.
  db_.GetTable("game").ValueOrDie()->MarkMutated();
  std::atomic<bool> done{false};
  std::shared_ptr<const ExplainResult> revalidated;
  std::thread queued([&] {
    revalidated = server.Explain(kQ1, TwoPointQuestion()).ValueOrDie();
    done.store(true);
  });
  while (ExplainServerTestPeer::WaiterCount(server) != 1 && !done.load()) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(done.load()) << "a request that must run Prepare took no slot";
  ExplainServerTestPeer::Release(server);
  queued.join();
  EXPECT_EQ(revalidated, warm);
  const ExplainServer::Counters c = server.counters();
  EXPECT_EQ(c.result_hits, 2u);
  EXPECT_EQ(c.version_hits, 1u);
  EXPECT_EQ(c.result_misses, 1u);
}

// 8 clients mix version hits on warm keys with misses on new keys. Every
// answer is the one cached object of its key and equals a serial run's,
// and the counters add up: each new key is built once, every warm-key
// request is a version hit.
TEST_F(ServeTest, ConcurrentVersionHitsAndMissesMatchASerialRun) {
  const std::string kGames =
      "SELECT season, count(*) AS games FROM game g GROUP BY season";
  struct Request {
    std::string sql;
    UserQuestion question;
  };
  const UserQuestion swapped =
      UserQuestion::TwoPoint(Where({{"season", Value("2012-13")}}),
                             Where({{"season", Value("2015-16")}}));
  const std::vector<Request> warm = {{kQ1, TwoPointQuestion()},
                                     {kQ1, SinglePointQuestion()}};
  const std::vector<Request> cold = {{kQ1, swapped},
                                     {kGames, TwoPointQuestion()},
                                     {kGames, SinglePointQuestion()},
                                     {kGames, swapped}};
  std::vector<Request> all = warm;
  all.insert(all.end(), cold.begin(), cold.end());
  Explainer reference(&db_, &schema_graph_);
  std::vector<ExplainResult> expected;
  for (const Request& r : all) {
    expected.push_back(reference.Explain(r.sql, r.question).ValueOrDie());
  }

  ExplainServer::Options options;
  options.num_explainers = 4;
  options.pool_threads = 4;
  options.config.num_threads = 2;
  ExplainServer server(&db_, &schema_graph_, options);
  for (const Request& r : warm) {
    ASSERT_TRUE(server.Explain(r.sql, r.question).ok());
  }

  constexpr size_t kClients = 8;
  constexpr size_t kIters = 3;
  // served[c]: (index into `all`, answer) of client c's requests.
  std::vector<std::vector<std::pair<size_t,
                                    std::shared_ptr<const ExplainResult>>>>
      served(kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = 0; i < kIters; ++i) {
        for (size_t pick : {(c + i) % warm.size(),
                            warm.size() + (c + i) % cold.size()}) {
          auto result = server.Explain(all[pick].sql, all[pick].question);
          served[c].emplace_back(pick, result.ok() ? result.ValueOrDie()
                                                   : nullptr);
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  std::vector<std::shared_ptr<const ExplainResult>> object(all.size());
  for (size_t c = 0; c < kClients; ++c) {
    for (const auto& [pick, result] : served[c]) {
      ASSERT_NE(result, nullptr) << "client " << c << " request " << pick;
      if (object[pick] == nullptr) object[pick] = result;
      EXPECT_EQ(result, object[pick]) << "request " << pick;
    }
  }
  for (size_t k = 0; k < all.size(); ++k) {
    SCOPED_TRACE(k);
    ASSERT_NE(object[k], nullptr);
    ExpectSameExplanations(expected[k], *object[k]);
  }
  const size_t requests = warm.size() + kClients * kIters * 2;
  const ExplainServer::Counters counters = server.counters();
  EXPECT_EQ(counters.requests, requests);
  EXPECT_EQ(counters.result_misses, all.size());
  EXPECT_EQ(counters.result_hits, requests - all.size());
  EXPECT_EQ(counters.result_invalidations, 0u);
  EXPECT_GE(counters.version_hits, kClients * kIters);
  EXPECT_LE(counters.version_hits, counters.result_hits);
}

// Pins the request slots' FIFO grant order. With the one slot held and
// each waiter provably queued (WaiterCount) before the next thread starts,
// the enqueue order is exact — so the grant order must match it, every run.
TEST_F(ServeTest, RequestSlotsGrantFifoUnderContention) {
  auto options = BaseOptions();
  options.num_explainers = 1;
  ExplainServer server(&db_, &schema_graph_, options);

  ExplainServerTestPeer::Acquire(server);
  ASSERT_EQ(ExplainServerTestPeer::IdleSlots(server), 0u);

  Mutex order_mu;
  std::vector<int> grant_order;
  std::vector<std::thread> threads;
  constexpr int kWaiters = 3;
  for (int i = 0; i < kWaiters; ++i) {
    threads.emplace_back([&server, &order_mu, &grant_order, i] {
      ExplainServerTestPeer::Acquire(server);
      {
        MutexLock lock(order_mu);
        grant_order.push_back(i);
      }
      ExplainServerTestPeer::Release(server);
    });
    // Don't start waiter i+1 until waiter i is in the queue.
    while (ExplainServerTestPeer::WaiterCount(server) !=
           static_cast<size_t>(i + 1)) {
      std::this_thread::yield();
    }
  }

  ExplainServerTestPeer::Release(server);
  for (auto& t : threads) t.join();

  ASSERT_EQ(grant_order.size(), static_cast<size_t>(kWaiters));
  for (int i = 0; i < kWaiters; ++i) {
    EXPECT_EQ(grant_order[i], i) << "slot granted out of FIFO order";
  }
}

// Pins the direct-handoff half of the protocol: releasing with a queued
// waiter must hand the slot to that waiter, not return it to the idle
// count where a later acquirer could barge in front. If Release ever went
// through idle_, the re-acquiring thread here could overtake the queued
// waiter and the recorded order would invert (and TSan would get a shot at
// the use-after-free of the waiter's stack node).
TEST_F(ServeTest, ReleaseHandsOffDirectlyToQueuedWaiter) {
  auto options = BaseOptions();
  options.num_explainers = 1;
  ExplainServer server(&db_, &schema_graph_, options);

  ExplainServerTestPeer::Acquire(server);
  ASSERT_EQ(ExplainServerTestPeer::IdleSlots(server), 0u);

  Mutex order_mu;
  std::vector<std::string> order;
  std::thread waiter([&server, &order_mu, &order] {
    ExplainServerTestPeer::Acquire(server);
    {
      MutexLock lock(order_mu);
      order.push_back("waiter");
    }
    ExplainServerTestPeer::Release(server);
  });
  while (ExplainServerTestPeer::WaiterCount(server) != 1) {
    std::this_thread::yield();
  }

  // The release below must grant to `waiter`; this thread's immediate
  // re-acquire has to go to the back of the line.
  ExplainServerTestPeer::Release(server);
  ExplainServerTestPeer::Acquire(server);
  {
    MutexLock lock(order_mu);
    order.push_back("main");
  }
  ExplainServerTestPeer::Release(server);
  waiter.join();

  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "waiter");
  EXPECT_EQ(order[1], "main");
}

TEST(ResultCacheTest, WaiterOnAFailedComputeCountsAsMiss) {
  // hits + misses = requests must hold when a compute fails under waiters.
  ResultCache cache;
  LookUpWhileBuildFails<ExplainResult>(
      [&](const std::function<Result<ExplainResult>()>& compute) {
        EXPECT_FALSE(cache.GetOrCompute("k", "fingerprint", {}, compute).ok());
      },
      [] { return Result<ExplainResult>(Status::ExecutionError("failed")); });
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 2u);
}

}  // namespace
}  // namespace cajade
