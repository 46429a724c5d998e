// The serving layer: a thread-safe front end that accepts concurrent
// Explain requests against one shared set of process-wide resources.
//
// One ExplainServer owns
//  - one WorkerPool shared by every request (each request's per-join-graph
//    fan-out is its own ParallelFor task group on that pool — requests
//    interleave at iteration granularity, never a pool per request);
//  - one Explainer built on that pool, which runs every request: one
//    executor and statistics catalog, and one AptIndexCache and one
//    AptPrefixCache, so requests reuse each other's statistics, join
//    indexes and APT prefix states (the caches are byte-bounded and
//    LRU-evicted; index and prefix-state keys carry the content version of
//    every relation they read, so a write re-keys them and the superseded
//    entries age out);
//  - one ResultCache keyed by (query, question) and validated in two
//    steps. A repeated question whose FROM tables are all still at the
//    versions its answer records is served without running any Explainer
//    code; one whose tables changed costs one provenance computation,
//    whose fingerprint either re-validates the answer or — the moment a
//    base-table change altered the provenance it was mined from —
//    invalidates it and mines again. Neither step sees a write to a
//    context relation (one only a join graph reads), so the answer cached
//    for a question outlives such a write. The config needs no place in
//    the key: the cache is private to this server, and the server's config
//    is fixed at construction;
//  - `num_explainers` request slots, which bound how many requests run the
//    Explainer at once; a version-validated hit takes none.
//
// bench/bench_load.cc drives this class with closed-loop clients and a
// zipfian question mix; docs/SERVING.md walks through the knobs.
//
// Ownership: the server borrows the database and owns its pool, its
// Explainer and the result cache; a request that runs the Explainer holds
// one slot for its duration via RAII. Locking is annotated in-line (Mutex /
// GUARDED_BY below) and checked by the thread-safety CI leg.

#ifndef CAJADE_SERVE_EXPLAIN_SERVER_H_
#define CAJADE_SERVE_EXPLAIN_SERVER_H_

#include <atomic>
#include <cstddef>
#include <deque>
#include <memory>
#include <string>

#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/common/thread_pool.h"
#include "src/core/config.h"
#include "src/core/explainer.h"
#include "src/core/question.h"
#include "src/graph/schema_graph.h"
#include "src/serve/result_cache.h"
#include "src/storage/database.h"

namespace cajade {

/// \brief Thread-safe concurrent Explain front end over one database.
///
/// Explain() may be called from any number of client threads at once; at
/// most Options::num_explainers requests run the Explainer concurrently,
/// and excess callers block for a slot, granted in arrival order. A
/// result-cache hit validated by input versions takes no slot.
///
/// The database and schema graph must outlive the server and must not be
/// mutated while a request is in flight. Mutating them *between* requests
/// is supported and is exactly what the caches are keyed for: a request
/// whose FROM tables changed version recomputes provenance, and a changed
/// fingerprint invalidates its cached result, while stale join indexes age
/// out of the LRU by content version. A cell edited through
/// Table::column() needs Table::MarkMutated() afterwards, or the
/// version-keyed caches, this result cache among them, keep serving the
/// old state.
class ExplainServer {
 public:
  struct Options {
    /// Engine configuration of the server's Explainer. `num_threads` != 1
    /// fans each request out on the shared pool (1 keeps requests serial
    /// internally — usually right when num_explainers already saturates
    /// the cores); apt_index_cache_bytes and apt_prefix_cache_bytes bound
    /// the Explainer's APT caches, which every request shares.
    CajadeConfig config;
    /// Maximum concurrent requests that run the Explainer (request slots;
    /// all of them run on the one Explainer). Version-validated hits take
    /// no slot.
    size_t num_explainers = 4;
    /// Shared WorkerPool width; 0 = hardware concurrency.
    int pool_threads = 0;
    /// Byte bound of the result cache.
    size_t result_cache_bytes = ResultCache::kDefaultMaxBytes;
    /// Serve repeated (query, question) pairs from the result cache
    /// (validated by input versions, then by fingerprint). Off = every
    /// request mines.
    bool enable_result_cache = true;
  };

  /// Aggregated serving counters (monotonic since construction).
  struct Counters {
    size_t requests = 0;
    /// Includes version_hits.
    size_t result_hits = 0;
    /// Hits served by input versions, without Explainer::Prepare.
    size_t version_hits = 0;
    size_t result_misses = 0;
    size_t result_invalidations = 0;
    size_t result_evictions = 0;
    size_t index_hits = 0;
    size_t index_builds = 0;
    size_t index_evictions = 0;
    size_t prefix_hits = 0;
    size_t prefix_builds = 0;
    size_t prefix_evictions = 0;
    /// High-water mark of any single resident APT join state's bytes across
    /// all computed (non-cache-hit) requests; with apt_shard_rows > 0 this
    /// is what the shard bound caps (see docs/SERVING.md, memory bounds).
    size_t peak_apt_bytes = 0;
    /// Total APT shards materialized across computed requests.
    size_t apt_shards = 0;
    /// High-water marks of the shared caches' resident bytes (the LRU
    /// bounds cap these; shard-sized states keep them low).
    size_t index_peak_bytes = 0;
    size_t prefix_peak_bytes = 0;
    size_t result_peak_bytes = 0;
  };

  ExplainServer(const Database* db, const SchemaGraph* schema_graph,
                Options options);
  /// Default options. (A separate overload, not a default argument: a
  /// nested class's member initializers are not usable as a default
  /// argument inside its enclosing class.)
  ExplainServer(const Database* db, const SchemaGraph* schema_graph)
      : ExplainServer(db, schema_graph, Options()) {}

  /// Explains `sql` for `question`. Thread-safe. Unless the result cache
  /// holds an answer whose input versions are current, blocks while every
  /// request slot is taken. The result is shared with the cache (and with
  /// concurrent identical requests) — hence const.
  Result<std::shared_ptr<const ExplainResult>> Explain(
      const std::string& sql, const UserQuestion& question);

  Counters counters() const;
  const Options& options() const { return options_; }

  ResultCache& result_cache() { return result_cache_; }

  /// The result-cache key of one request, an injective encoding of (sql,
  /// t1, t2): values keep their type and exact bits, and swapping t1 and t2
  /// changes it. Exposed for tests asserting hit/miss behavior against
  /// specific keys.
  std::string CacheKey(const std::string& sql,
                       const UserQuestion& question) const;

 private:
  class RequestSlot;
  /// Drives Acquire/Release directly and inspects the waiter queue, so the
  /// FIFO direct-handoff protocol is pinned by deterministic tests instead
  /// of timing-dependent full Explain calls.
  friend struct ExplainServerTestPeer;

  /// Blocks until a request slot is free, FIFO behind earlier blocked
  /// callers; the slot must be returned through Release.
  void Acquire() EXCLUDES(slot_mu_);
  /// Returns a slot: direct handoff to the front waiter if any, else back
  /// to the idle count.
  void Release() EXCLUDES(slot_mu_);

  Options options_;
  /// Read by the version check, which runs no Explainer code.
  const Database* const db_;

  WorkerPool pool_;
  /// Runs every request; declared after pool_, which it borrows.
  Explainer explainer_;
  ResultCache result_cache_;

  /// One blocked Acquire call: a stack node queued FIFO in waiters_.
  ///
  /// The direct-handoff protocol is compiler-enforced: `granted` is only
  /// touched through Grant/AwaitGrant, and both REQUIRES the slot mutex
  /// the caller passes in — granting without the lock, or waking a waiter
  /// whose node could already be destroyed, fails thread-safety analysis
  /// instead of corrupting a stack frame. (The waiter owns this node on
  /// its stack and frees it as soon as AwaitGrant returns, which can only
  /// happen after the granter's MutexLock scope releases the mutex.)
  struct SlotWaiter {
    CondVar cv;
    bool granted = false;

    /// Records the grant and wakes exactly this waiter, under the lock.
    void Grant([[maybe_unused]] Mutex& mu) REQUIRES(mu) {
      granted = true;
      cv.NotifyOne();
    }
    /// Blocks until granted.
    void AwaitGrant(Mutex& mu) REQUIRES(mu) {
      while (!granted) cv.Wait(mu);
    }
  };
  Mutex slot_mu_;
  /// Free request slots, out of options_.num_explainers. Blocked acquirers
  /// queue in waiters_ (stack-allocated nodes, FIFO) and a released slot
  /// is handed directly to the front waiter with one targeted wakeup — see
  /// RequestSlot for why both the fairness and the single wakeup matter
  /// for tail latency.
  size_t idle_ GUARDED_BY(slot_mu_) = 0;
  std::deque<SlotWaiter*> waiters_ GUARDED_BY(slot_mu_);

  std::atomic<size_t> requests_{0};
  /// CAS-max of ExplainResult::peak_apt_bytes over computed requests.
  std::atomic<size_t> peak_apt_bytes_{0};
  std::atomic<size_t> apt_shards_{0};
};

}  // namespace cajade

#endif  // CAJADE_SERVE_EXPLAIN_SERVER_H_
