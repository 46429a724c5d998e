// Concurrency tests: WorkerPool scheduling, the threads-vs-serial
// differential guarantee of the parallel explainer (bit-identical ranked
// explanations at every thread count), and AptIndexCache contention.
// The TSan CI job runs this binary so data races fail the pipeline.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <new>
#include <thread>
#include <vector>

#include "src/common/thread_annotations.h"
#include "src/common/thread_pool.h"
#include "src/core/explainer.h"
#include "src/datasets/example_nba.h"
#include "src/datasets/nba.h"
#include "src/exec/join.h"
#include "src/mining/apt.h"
#include "tests/cache_test_util.h"

namespace cajade {
namespace {

// ---- WorkerPool -------------------------------------------------------------

TEST(WorkerPoolTest, ParallelForVisitsEveryIndexOnce) {
  WorkerPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(), [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(WorkerPoolTest, ParallelForRunsConcurrently) {
  WorkerPool pool(4);
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
  pool.ParallelFor(64, [&](size_t) {
    int cur = in_flight.fetch_add(1) + 1;
    int prev = max_in_flight.load();
    while (cur > prev && !max_in_flight.compare_exchange_weak(prev, cur)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    in_flight.fetch_sub(1);
  });
  // On a single-core machine the scheduler may still serialize the sleeps,
  // but the pool itself must have dispatched to multiple workers.
  EXPECT_GE(max_in_flight.load(), 2);
}

TEST(WorkerPoolTest, DestructorDrainsOutstandingWork) {
  std::atomic<int> done{0};
  {
    WorkerPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&] { done.fetch_add(1, std::memory_order_relaxed); });
    }
  }
  EXPECT_EQ(done.load(), 50);
}

TEST(WorkerPoolTest, ResolveThreads) {
  EXPECT_EQ(WorkerPool::ResolveThreads(1), 1u);
  EXPECT_EQ(WorkerPool::ResolveThreads(7), 7u);
  EXPECT_GE(WorkerPool::ResolveThreads(0), 1u);  // hardware concurrency
}

// Regression test for the shared-pool serving contract: several logical
// callers issue ParallelFor loops on ONE pool concurrently. Each loop must
// complete exactly its own iterations (task groups never interleave state)
// and every call must return — with a pool this small and loops this large,
// any caller that only waited instead of draining its own loop would make
// this flaky-slow, and the pre-fix deadlock (all workers busy with other
// callers' loops, nested callers waiting forever) hangs it outright.
TEST(WorkerPoolTest, ConcurrentCallersShareOnePool) {
  WorkerPool pool(2);
  constexpr int kCallers = 4;
  constexpr size_t kN = 500;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& h : hits) {
    h = std::vector<std::atomic<int>>(kN);
  }
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      pool.ParallelFor(kN, [&, c](size_t i) {
        hits[c][i].fetch_add(1, std::memory_order_relaxed);
      });
      // The loop's own iterations are all done the moment ParallelFor
      // returns, regardless of the other callers still in flight.
      for (size_t i = 0; i < kN; ++i) {
        EXPECT_EQ(hits[c][i].load(), 1) << "caller " << c << " index " << i;
      }
    });
  }
  for (auto& t : callers) t.join();
}

// A ParallelFor issued from inside a pool task (a nested fan-out) must not
// deadlock even when the outer loop occupies every worker: the nested
// caller drains its own iterations.
TEST(WorkerPoolTest, NestedParallelForDoesNotDeadlock) {
  WorkerPool pool(2);
  std::atomic<int> inner_done{0};
  pool.ParallelFor(4, [&](size_t) {
    pool.ParallelFor(8, [&](size_t) {
      inner_done.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner_done.load(), 32);
}

// ---- Parallel explainer determinism ----------------------------------------

constexpr const char* kQ1 =
    "SELECT winner AS team, season, count(*) AS win "
    "FROM game g WHERE winner = 'GSW' GROUP BY winner, season";

void ExpectIdenticalExplanations(const ExplainResult& serial,
                                 const ExplainResult& parallel,
                                 int num_threads) {
  SCOPED_TRACE("num_threads=" + std::to_string(num_threads));
  ASSERT_EQ(serial.explanations.size(), parallel.explanations.size());
  EXPECT_EQ(serial.apts_mined, parallel.apts_mined);
  EXPECT_EQ(serial.apts_truncated, parallel.apts_truncated);
  EXPECT_EQ(serial.apts_skipped_oversize, parallel.apts_skipped_oversize);
  EXPECT_EQ(serial.patterns_evaluated, parallel.patterns_evaluated);
  EXPECT_EQ(serial.enumeration.valid, parallel.enumeration.valid);
  for (size_t i = 0; i < serial.explanations.size(); ++i) {
    SCOPED_TRACE("rank " + std::to_string(i));
    const Explanation& a = serial.explanations[i];
    const Explanation& b = parallel.explanations[i];
    EXPECT_EQ(a.join_graph, b.join_graph);
    EXPECT_EQ(a.join_conditions, b.join_conditions);
    EXPECT_EQ(a.pattern, b.pattern);
    EXPECT_EQ(a.primary, b.primary);
    EXPECT_EQ(a.primary_tuple, b.primary_tuple);
    // EXPECT_EQ on doubles is exact: the guarantee is bit-identical, not
    // approximately equal.
    EXPECT_EQ(a.precision, b.precision);
    EXPECT_EQ(a.recall, b.recall);
    EXPECT_EQ(a.fscore, b.fscore);
    EXPECT_EQ(a.fscore_sampled, b.fscore_sampled);
    EXPECT_EQ(a.support_primary, b.support_primary);
    EXPECT_EQ(a.total_primary, b.total_primary);
    EXPECT_EQ(a.support_other, b.support_other);
    EXPECT_EQ(a.total_other, b.total_other);
    EXPECT_EQ(a.pattern_size, b.pattern_size);
  }
}

TEST(ParallelExplainerTest, ThreadCountsProduceIdenticalRankings) {
  Database db = MakeExampleNbaDatabase().ValueOrDie();
  SchemaGraph sg = MakeExampleNbaSchemaGraph(db).ValueOrDie();
  UserQuestion q = UserQuestion::TwoPoint(Where({{"season", Value("2015-16")}}),
                                          Where({{"season", Value("2012-13")}}));

  Explainer serial_explainer(&db, &sg);
  serial_explainer.mutable_config()->num_threads = 1;
  ExplainResult serial = serial_explainer.Explain(kQ1, q).ValueOrDie();
  ASSERT_FALSE(serial.explanations.empty());

  for (int threads : {2, 4, 8}) {
    Explainer explainer(&db, &sg);
    explainer.mutable_config()->num_threads = threads;
    ExplainResult parallel = explainer.Explain(kQ1, q).ValueOrDie();
    ExpectIdenticalExplanations(serial, parallel, threads);
  }
}

TEST(ParallelExplainerTest, HardwareConcurrencyKnobMatchesSerial) {
  Database db = MakeExampleNbaDatabase().ValueOrDie();
  SchemaGraph sg = MakeExampleNbaSchemaGraph(db).ValueOrDie();
  UserQuestion q = UserQuestion::SinglePoint(Where({{"season", Value("2015-16")}}));

  Explainer serial_explainer(&db, &sg);
  ExplainResult serial = serial_explainer.Explain(kQ1, q).ValueOrDie();

  Explainer explainer(&db, &sg);
  explainer.mutable_config()->num_threads = 0;  // hardware concurrency
  ExplainResult parallel = explainer.Explain(kQ1, q).ValueOrDie();
  ExpectIdenticalExplanations(serial, parallel, 0);
}

// ---- Sharded pipeline acceptance (scaling NBA) ------------------------------

// The end-to-end acceptance bar for the shard-native APT pipeline: on the
// scaling NBA dataset with `apt_shard_rows` small enough that every
// materialized APT spans >= 4 shards, explanations are bit-identical to
// one full-range shard per graph at every thread count, and the
// resident-state high-water mark (ExplainResult::peak_apt_bytes) is strictly
// below the one-shard peak — the whole point of sharding is bounding that
// number.
TEST(ShardedExplainerAcceptanceTest, ScalingNbaBitIdenticalAndPeakBounded) {
  NbaOptions opt;
  opt.scale_factor = 0.05;
  Database db = MakeNbaDatabase(opt).ValueOrDie();
  SchemaGraph sg = MakeNbaSchemaGraph(db).ValueOrDie();
  // Q2: GSW assists per season. Its provenance rows are team_game_stats
  // rows — one per GSW game in the two question seasons, so the PT has
  // enough rows to split even at this scale (Q4's wins-only PT does not).
  const std::string sql = NbaQuerySql(2);
  UserQuestion q =
      UserQuestion::TwoPoint(Where({{"season_name", Value("2013-14")}}),
                             Where({{"season_name", Value("2014-15")}}));
  // Two-edge enumeration keeps the test in seconds while still covering
  // multi-step (prefix-cached) sharded materializations.
  auto configure = [](Explainer& e) {
    e.mutable_config()->max_join_graph_edges = 2;
  };

  Explainer baseline(&db, &sg);
  configure(baseline);
  baseline.mutable_config()->num_threads = 1;
  // Pin the baseline to one shard per graph even when the CI leg forces
  // sharding through CAJADE_APT_SHARD_ROWS.
  baseline.mutable_config()->apt_shard_rows = 0;
  ExplainResult one_shard = baseline.Explain(sql, q).ValueOrDie();
  ASSERT_FALSE(one_shard.explanations.empty());
  ASSERT_GT(one_shard.peak_apt_bytes, 0u);
  ASSERT_GT(one_shard.apt_shards, 0u);  // one shard per materialized graph

  // One PT row per shard: every graph's materialization splits |PT| >= 4
  // ways.
  constexpr size_t kShardRows = 1;
  for (int threads : {1, 4, 8}) {
    Explainer explainer(&db, &sg);
    configure(explainer);
    explainer.mutable_config()->num_threads = threads;
    explainer.mutable_config()->apt_shard_rows = kShardRows;
    ExplainResult sharded = explainer.Explain(sql, q).ValueOrDie();
    ExpectIdenticalExplanations(one_shard, sharded, threads);
    // Every materialized APT spans >= 4 shards (shard counts are uniform
    // across graphs: all materialize over the same PT-row set).
    EXPECT_GE(sharded.apt_shards, 4 * one_shard.apt_shards);
    // The memory headline, counter-asserted: no single resident shard state
    // ever reached the one-shard peak.
    EXPECT_GT(sharded.peak_apt_bytes, 0u);
    EXPECT_LT(sharded.peak_apt_bytes, one_shard.peak_apt_bytes);
  }
}

// ---- AptIndexCache contention -----------------------------------------------

Table MakeKeyedTable(const std::string& name, size_t rows, int64_t mod) {
  Table t(name, Schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}}));
  t.Reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    (void)t.AppendRow({Value(static_cast<int64_t>(i % mod)),
                       Value(static_cast<int64_t>(i))});
  }
  return t;
}

TEST(AptIndexCacheTest, ConcurrentGetsBuildEachIndexOnce) {
  // 4 tables x 2 column sets = 8 distinct keys, hammered from 8 threads
  // with overlapping request orders.
  std::vector<Table> tables;
  for (int t = 0; t < 4; ++t) {
    tables.push_back(MakeKeyedTable("t" + std::to_string(t), 4096, 64));
  }
  const std::vector<std::vector<int>> col_sets = {{0}, {0, 1}};

  AptIndexCache cache;
  std::atomic<bool> failed{false};
  std::vector<AptIndexCache::IndexPtr> first_seen(
      tables.size() * col_sets.size());
  Mutex first_seen_mu;

  auto worker = [&](int tid) {
    for (int iter = 0; iter < 50; ++iter) {
      for (size_t ti = 0; ti < tables.size(); ++ti) {
        // Stagger request order per thread so builders and waiters overlap
        // on different shards.
        size_t t = (ti + static_cast<size_t>(tid)) % tables.size();
        for (size_t ci = 0; ci < col_sets.size(); ++ci) {
          AptIndexCache::IndexPtr idx = cache.Get(tables[t], col_sets[ci]);
          if (idx->size() != tables[t].num_rows()) failed.store(true);
          MutexLock lock(first_seen_mu);
          AptIndexCache::IndexPtr& slot =
              first_seen[t * col_sets.size() + ci];
          if (slot == nullptr) {
            slot = idx;
          } else if (slot != idx) {
            failed.store(true);  // a second build: entry not shared
          }
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) threads.emplace_back(worker, t);
  for (auto& t : threads) t.join();

  EXPECT_FALSE(failed.load());
  // Every distinct (table, columns) key built exactly once despite 8
  // threads racing to request it.
  EXPECT_EQ(cache.num_builds(), tables.size() * col_sets.size());
}

TEST(AptIndexCacheTest, CachedIndexProbesCorrectly) {
  Table t = MakeKeyedTable("probe", 1000, 10);  // 100 rows per key
  AptIndexCache cache;
  AptIndexCache::IndexPtr idx = cache.Get(t, {0});
  EXPECT_EQ(idx->size(), 1000u);
  // Probe with one tuple whose key is row 7's: all 100 rows of that key, in
  // ascending build-row order.
  std::vector<int64_t> probe_rows = {7};
  std::vector<std::pair<int64_t, int64_t>> matches;
  EXPECT_TRUE(idx->Probe({{&t.column(0), &probe_rows}}, 1, 0, &matches));
  EXPECT_EQ(matches.size(), 100u);
  for (size_t i = 1; i < matches.size(); ++i) {
    EXPECT_LT(matches[i - 1].second, matches[i].second);
  }
  // Second Get returns the same index without rebuilding.
  EXPECT_EQ(cache.Get(t, {0}).get(), idx.get());
  EXPECT_EQ(cache.num_builds(), 1u);
}

// ---- AptPrefixCache contention ----------------------------------------------

AptJoinState MakeState(int64_t tag, size_t rows) {
  AptJoinState state;
  Table t("S", Schema({{"v", DataType::kInt64}}));
  t.Reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    (void)t.AppendRow({Value(tag + static_cast<int64_t>(i))});
  }
  state.table = std::move(t);
  state.pt_row.assign(rows, 0);
  return state;
}

TEST(AptPrefixCacheTest, ConcurrentGetOrBuildBuildsEachKeyOnce) {
  AptPrefixCache cache;
  constexpr int kKeys = 6;
  std::atomic<int> build_calls{0};
  std::atomic<bool> failed{false};
  auto worker = [&](int tid) {
    for (int iter = 0; iter < 40; ++iter) {
      for (int k = 0; k < kKeys; ++k) {
        int key = (k + tid) % kKeys;  // stagger so builders/waiters overlap
        auto state = cache.GetOrBuild("k" + std::to_string(key), [&] {
          build_calls.fetch_add(1, std::memory_order_relaxed);
          return Result<AptJoinState>(MakeState(key * 1000, 64));
        });
        if (!state.ok() ||
            (*state)->table.column(0).GetInt(0) != key * 1000) {
          failed.store(true);
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) threads.emplace_back(worker, t);
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed.load());
  // Every key built exactly once despite 8 threads racing to request it.
  EXPECT_EQ(build_calls.load(), kKeys);
  EXPECT_EQ(cache.builds(), static_cast<size_t>(kKeys));
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GT(cache.bytes_in_use(), 0u);
}

TEST(AptPrefixCacheTest, MemoryBoundEvictsLruAndKeepsLiveStates) {
  AptJoinState probe = MakeState(0, 256);
  const size_t state_bytes = AptPrefixCache::ApproxStateBytes(probe);
  // Room for about two states.
  AptPrefixCache cache(2 * state_bytes + state_bytes / 2);
  auto s0 = cache.GetOrBuild("a", [] { return Result<AptJoinState>(MakeState(0, 256)); });
  auto s1 = cache.GetOrBuild("b", [] { return Result<AptJoinState>(MakeState(1000, 256)); });
  ASSERT_TRUE(s0.ok());
  ASSERT_TRUE(s1.ok());
  EXPECT_EQ(cache.evictions(), 0u);
  // Touch "a" so "b" is the LRU victim.
  (void)cache.GetOrBuild("a", [] { return Result<AptJoinState>(MakeState(9, 1)); });
  auto s2 = cache.GetOrBuild("c", [] { return Result<AptJoinState>(MakeState(2, 256)); });
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_LE(cache.bytes_in_use(), cache.max_bytes());
  // The evicted key rebuilds; the held shared_ptr stayed valid throughout.
  EXPECT_EQ((*s1)->table.column(0).GetInt(0), 1000);
  size_t builds_before = cache.builds();
  auto s1b = cache.GetOrBuild("b", [] { return Result<AptJoinState>(MakeState(1000, 256)); });
  ASSERT_TRUE(s1b.ok());
  EXPECT_EQ(cache.builds(), builds_before + 1);
}

TEST(AptPrefixCacheTest, FailedBuildsPropagateAndAreNotCached) {
  AptPrefixCache cache;
  auto r1 = cache.GetOrBuild("bad", [] {
    return Result<AptJoinState>(Status::OutOfRange("too big"));
  });
  EXPECT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kOutOfRange);
  // The failure was not cached: a later call rebuilds and can succeed.
  auto r2 = cache.GetOrBuild("bad", [] {
    return Result<AptJoinState>(MakeState(5, 8));
  });
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ((*r2)->table.num_rows(), 8u);
}

// ---- Lookup accounting: a lookup that receives a failure is a miss ----------

TEST(AptPrefixCacheTest, WaiterOnAFailedBuildCountsAsMiss) {
  AptPrefixCache cache;
  LookUpWhileBuildFails<AptJoinState>(
      [&](const std::function<Result<AptJoinState>()>& build) {
        EXPECT_FALSE(cache.GetOrBuild("k", build).ok());
      },
      [] { return Result<AptJoinState>(Status::OutOfRange("too big")); });
  // Neither lookup returned a state: two misses, no hit.
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.builds(), 2u);
}

TEST(AptIndexCacheTest, WaiterOnAFailedBuildCountsAsMiss) {
  // An index build fails only by exception (e.g. bad_alloc); Get cannot be
  // made to fail on demand, so drive the cache's GetOrBuild directly.
  AptIndexCache cache;
  LookUpWhileBuildFails<JoinBuildIndex>(
      [&](const std::function<Result<JoinBuildIndex>()>& build) {
        EXPECT_THROW((void)cache.GetOrBuild("k", build), std::bad_alloc);
      },
      []() -> Result<JoinBuildIndex> { throw std::bad_alloc(); });
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.num_builds(), 2u);
}

}  // namespace
}  // namespace cajade
