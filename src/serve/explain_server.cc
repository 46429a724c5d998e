#include "src/serve/explain_server.h"

#include <cstdint>
#include <cstring>
#include <utility>

namespace cajade {

/// RAII hold of one request slot; blocks in the constructor until one is
/// free.
///
/// Granting is FIFO *and* a direct handoff: a released slot goes straight
/// to the front waiter, and only that waiter's private condition variable
/// is signaled. Both halves matter for tail latency under closed-loop load
/// on few cores:
///  - FIFO, because with a bare shared condition variable a client that
///    just released a slot is still on-CPU and re-acquires it before the
///    woken waiter is even scheduled — waiters starve for a scheduler
///    quantum at a time (multi-millisecond p99 on sub-millisecond
///    requests).
///  - One targeted wakeup, because a broadcast wakes every waiter per
///    handoff just so all but one can fail the predicate and sleep again;
///    on a single core each of those futile wakeups preempts the thread
///    doing the actual work, adding jittery context-switch overhead to
///    every request in the queue.
class ExplainServer::RequestSlot {
 public:
  explicit RequestSlot(ExplainServer* server) : server_(server) {
    server_->Acquire();
  }

  ~RequestSlot() { server_->Release(); }

  RequestSlot(const RequestSlot&) = delete;
  RequestSlot& operator=(const RequestSlot&) = delete;

 private:
  ExplainServer* server_;
};

void ExplainServer::Acquire() {
  MutexLock lock(slot_mu_);
  // Invariant: idle_ is non-zero only while waiters_ is empty (a release
  // with queued waiters hands off directly and never adds to idle_), so
  // taking an idle slot here cannot barge in front of an earlier waiter.
  if (idle_ > 0) {
    --idle_;
    return;
  }
  SlotWaiter self;
  waiters_.push_back(&self);
  self.AwaitGrant(slot_mu_);
}

void ExplainServer::Release() {
  MutexLock lock(slot_mu_);
  if (!waiters_.empty()) {
    SlotWaiter* next = waiters_.front();
    waiters_.pop_front();
    // Grant happens inside this MutexLock scope — SlotWaiter::Grant
    // REQUIRES the mutex, so notifying a waiter whose stack node could
    // already be gone cannot compile.
    next->Grant(slot_mu_);
  } else {
    ++idle_;
  }
}

ExplainServer::ExplainServer(const Database* db,
                             const SchemaGraph* schema_graph, Options options)
    : options_(options),
      db_(db),
      pool_(WorkerPool::ResolveThreads(options.pool_threads)),
      explainer_(db, schema_graph, options.config, &pool_),
      result_cache_(options.result_cache_bytes) {
  if (options_.num_explainers < 1) options_.num_explainers = 1;
  // No concurrency yet (the server is being constructed), but idle_ is
  // GUARDED_BY(slot_mu_) and the analysis — rightly — has no notion of
  // "no other threads exist"; an uncontended lock is free.
  MutexLock lock(slot_mu_);
  idle_ = options_.num_explainers;
}

namespace {

void AppendU64(uint64_t v, std::string* out) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void AppendBytes(const std::string& s, std::string* out) {
  AppendU64(s.size(), out);
  out->append(s);
}

/// Appends `selector` injectively: a count, then per equality a
/// length-prefixed name, a type tag and the value (integers and doubles
/// as their 64 bits, strings length-prefixed). TupleSelector::ToString
/// cannot key: it prints doubles to 6 digits and neither types nor
/// escapes values.
void AppendSelector(const TupleSelector& selector, std::string* out) {
  AppendU64(selector.equals.size(), out);
  for (const auto& [name, value] : selector.equals) {
    AppendBytes(name, out);
    out->push_back(static_cast<char>(value.type()));
    switch (value.type()) {
      case DataType::kInt64:
        AppendU64(static_cast<uint64_t>(value.AsInt()), out);
        break;
      case DataType::kDouble: {
        uint64_t bits;
        const double d = value.AsDouble();
        std::memcpy(&bits, &d, sizeof(bits));
        AppendU64(bits, out);
        break;
      }
      case DataType::kString:
        AppendBytes(value.AsString(), out);
        break;
      case DataType::kNull:
        break;
    }
  }
}

}  // namespace

std::string ExplainServer::CacheKey(const std::string& sql,
                                    const UserQuestion& question) const {
  // Distinct (sql, question) pairs get distinct keys: every part is
  // length-prefixed or fixed-width. The config is not part of it: the
  // cache is private to this server, whose config is fixed at
  // construction.
  std::string key;
  AppendBytes(sql, &key);
  AppendSelector(question.t1, &key);
  AppendSelector(question.t2, &key);
  return key;
}

Result<std::shared_ptr<const ExplainResult>> ExplainServer::Explain(
    const std::string& sql, const UserQuestion& question) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  std::string key;
  if (options_.enable_result_cache) {
    key = CacheKey(sql, question);
    // Validation, step one: a cached answer whose FROM tables are all still
    // at the versions it records is what Prepare's fingerprint would
    // confirm, so it is served without a slot or any Explainer code.
    ResultCache::ResultPtr hit = result_cache_.GetIfInputsCurrent(key, *db_);
    if (hit != nullptr) return hit;
  }
  RequestSlot slot(this);

  // Step two, validation by recompute: provenance + question resolution
  // produce the fingerprint that decides whether a cached result is still
  // valid — one provenance computation, never a stale answer.
  ASSIGN_OR_RETURN(PreparedExplain prepared, explainer_.Prepare(sql, question));

  // Materialization metrics are folded into the server counters on every
  // *computed* request (cache hits materialize nothing): shard counts add
  // up, the byte high-water CAS-maxes.
  auto record_apt_metrics = [this](const ExplainResult& result) {
    apt_shards_.fetch_add(result.apt_shards, std::memory_order_relaxed);
    size_t cur = peak_apt_bytes_.load(std::memory_order_relaxed);
    while (result.peak_apt_bytes > cur &&
           !peak_apt_bytes_.compare_exchange_weak(cur, result.peak_apt_bytes,
                                                  std::memory_order_relaxed)) {
    }
  };

  if (!options_.enable_result_cache) {
    ASSIGN_OR_RETURN(ExplainResult result,
                     explainer_.ExplainPrepared(std::move(prepared)));
    record_apt_metrics(result);
    return std::make_shared<const ExplainResult>(std::move(result));
  }

  std::string fingerprint = prepared.pt_fingerprint;
  return result_cache_.GetOrCompute(
      key, fingerprint, std::move(prepared.input_versions),
      [&]() -> Result<ExplainResult> {
        ASSIGN_OR_RETURN(ExplainResult result,
                         explainer_.ExplainPrepared(std::move(prepared)));
        record_apt_metrics(result);
        return result;
      });
}

ExplainServer::Counters ExplainServer::counters() const {
  const ResultCache::Stats result = result_cache_.stats();
  const AptIndexCache::Stats index = explainer_.index_cache().stats();
  const AptPrefixCache::Stats prefix = explainer_.prefix_cache().stats();
  Counters c;
  c.requests = requests_.load(std::memory_order_relaxed);
  c.result_hits = result.hits;
  c.version_hits = result.stamp_hits;
  c.result_misses = result.misses;
  c.result_invalidations = result.invalidations;
  c.result_evictions = result.evictions;
  c.index_hits = index.hits;
  c.index_builds = index.misses;
  c.index_evictions = index.evictions;
  c.prefix_hits = prefix.hits;
  c.prefix_builds = prefix.misses;
  c.prefix_evictions = prefix.evictions;
  c.peak_apt_bytes = peak_apt_bytes_.load(std::memory_order_relaxed);
  c.apt_shards = apt_shards_.load(std::memory_order_relaxed);
  c.index_peak_bytes = index.peak_bytes;
  c.prefix_peak_bytes = prefix.peak_bytes;
  c.result_peak_bytes = result.peak_bytes;
  return c;
}

}  // namespace cajade
