// Pattern mining over one APT (paper Algorithm 1, MineAPT):
//   1. attribute relevance filtering (random forest) + correlation
//      clustering with representatives (Section 3.1),
//   2. LCA candidate generation over categorical attributes (Section 3.2),
//   3. recall filtering of candidates (Section 3.3), scored from one
//      in-view mask per (categorical attribute, dictionary code),
//   4. numeric refinement over domain fragments with recall-monotonicity
//      pruning (Section 3.4, Proposition 3.1),
//   5. diversity-aware top-k selection (Section 3.5).
//
// Ownership and thread-safety: mining borrows the APT read-only, owns its
// scratch state, and returns fresh caller-owned patterns; deterministic in
// the supplied Rng. Distinct calls run safely on distinct threads (the
// explainer fans out one call per APT), each with its own Rng.

#ifndef CAJADE_MINING_MINER_H_
#define CAJADE_MINING_MINER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/rng.h"
#include "src/common/timer.h"
#include "src/core/config.h"
#include "src/mining/apt.h"
#include "src/mining/pattern.h"
#include "src/mining/quality.h"

namespace cajade {

/// A scored pattern produced by the miner.
struct MinedPattern {
  Pattern pattern;
  /// 0: t1 is the primary tuple, 1: t2.
  int primary = 0;
  /// Scores on the (possibly sampled) metrics view used during mining;
  /// these drive ranking inside the miner (the sampling experiments compare
  /// them against a no-sampling run).
  PatternScores scores;
  /// Exact scores on the full APT, computed for the returned top-k.
  PatternScores exact;
  /// Exact relative supports on the full APT (Definition 6): pattern covers
  /// support_primary of total_primary provenance rows of the primary tuple,
  /// and support_other of total_other rows of the other tuple.
  int64_t support_primary = 0;
  int64_t total_primary = 0;
  int64_t support_other = 0;
  int64_t total_other = 0;
};

/// Result of mining one APT.
struct MineResult {
  std::vector<MinedPattern> top_k;
  size_t apt_rows = 0;
  size_t num_attributes = 0;       ///< pattern-eligible attributes
  size_t selected_attributes = 0;  ///< after relevance filtering + clustering
  size_t lca_candidates = 0;
  size_t patterns_evaluated = 0;
  bool budget_exhausted = false;
};

/// \brief The patterns refinement pools for ranking (SelectTopKDiverse).
///
/// Compact, so pooling a pattern allocates nothing once the buffers have
/// grown: each predicate is interned once (with its KeyToken()), a pattern
/// is a run of predicate ids sorted by column, and its Pattern::Key() is
/// assembled from the tokens into one shared byte arena. A pattern is
/// stored once however many primaries it qualifies for; entries() holds
/// one row per qualifying (pattern, primary), in insertion order.
class CandidatePool {
 public:
  struct Entry {
    uint32_t pattern = 0;  ///< AddPattern's return value
    int primary = 0;
    PatternScores scores;
  };

  /// Interns `pred`; returns its id for AddPattern.
  uint32_t AddPredicate(PatternPredicate pred);

  /// Adds the pattern whose predicates are `ids[0, n)` (interned ids, in
  /// any order, at most one per column); returns its index.
  uint32_t AddPattern(const uint32_t* ids, size_t n);

  void AddEntry(uint32_t pattern, int primary, const PatternScores& scores) {
    entries_.push_back(Entry{pattern, primary, scores});
  }

  const std::vector<Entry>& entries() const { return entries_; }
  size_t num_patterns() const { return key_end_.size(); }

  /// Pattern::Key() of pattern `i`, byte for byte.
  std::string_view Key(uint32_t i) const {
    const size_t begin = i == 0 ? 0 : key_end_[i - 1];
    return std::string_view(keys_).substr(begin, key_end_[i] - begin);
  }

  /// Materializes pattern `i` (predicates sorted by column).
  Pattern MakePattern(uint32_t i) const;

  /// Diversity score D(phi_a, phi_b) of patterns `a` and `b` (Section 3.5):
  /// per predicate of phi_a, +1 when phi_b leaves its attribute free, -0.3
  /// when phi_b binds it to a different constant, -2 to the same constant;
  /// averaged over |phi_a| (1 for the empty pattern).
  double Diversity(uint32_t a, uint32_t b) const;

 private:
  std::vector<PatternPredicate> preds_;
  std::vector<std::string> tokens_;    ///< KeyToken() per interned predicate
  std::vector<uint32_t> pattern_ids_;  ///< every pattern's sorted id run
  std::vector<size_t> ids_end_;        ///< end of pattern i's run
  std::string keys_;                   ///< every pattern's Key()
  std::vector<size_t> key_end_;        ///< end of pattern i's key
  std::vector<Entry> entries_;
};

/// \brief Mines top-k explanation patterns from an APT.
///
/// Step timings are charged to the profiler under the paper's breakdown-row
/// names, each as exclusive self time (no step contains another, so the
/// steps sum to at most the Mine() wall time): "Feature Selection",
/// "Sampling for F1", "Gen. Pat. Cand.", "F-score Calc." (the per-code
/// masks and recall-filtering the LCA candidates, then scoring every
/// refinement and pooling the qualifiers), "Refine Patterns" (fragment
/// boundaries, the per-predicate masks, and the mask ANDs that generate
/// refinements), and "Rank Top-k" (SelectTopKDiverse and the exact
/// re-scoring of the winners). Refinement keeps its two self times in
/// locals and charges them once per call.
///
/// Mine() is const and keeps all scratch state (RefineContext, masks, the
/// candidate pool) on its own stack, so distinct
/// miners — or one miner with distinct profilers/RNGs — may run
/// concurrently on different APTs. The parallel explainer constructs one
/// PatternMiner + StepProfiler per join-graph task and relies on this.
class PatternMiner {
 public:
  PatternMiner(const CajadeConfig* config, StepProfiler* profiler)
      : config_(config), profiler_(profiler) {}

  /// Mines an APT shard by shard, never concatenating its shard tables:
  /// predicate masks are evaluated per shard and coverage/F-score popcounts
  /// merged. Bit-identical at any shard size (every stage consumes rows in
  /// global row order and every RNG draw is sharding-independent).
  Result<MineResult> Mine(const ShardedApt& apt, const PtClasses& classes,
                          Rng* rng) const;

  /// filterAttrs (Algorithm 1): relevance filtering + clustering; returns
  /// selected pattern-eligible column indexes. Mine()'s first step, public
  /// so that its cost can be measured alone; it expects the knobs Mine()
  /// validates to be valid.
  std::vector<int> SelectAttributes(const ShardedApt& apt,
                                    const PtClasses& classes, Rng* rng) const;

 private:
  const CajadeConfig* config_;
  StepProfiler* profiler_;
};

/// Greedy diversity-aware selection (Section 3.5): sorts the entries by
/// F-score (ties by Key()), then over the best 2000 repeatedly picks the
/// candidate with the highest wscore = F-score + min over selected
/// CandidatePool::Diversity. Returns indexes into pool.entries(). With
/// `use_diversity` false, returns the top-k by F-score.
std::vector<size_t> SelectTopKDiverse(const CandidatePool& pool, size_t k,
                                      bool use_diversity);

}  // namespace cajade

#endif  // CAJADE_MINING_MINER_H_
