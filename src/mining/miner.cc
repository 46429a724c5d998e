#include "src/mining/miner.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "src/common/string_util.h"
#include "src/mining/coverage.h"
#include "src/mining/lca.h"
#include "src/mining/pattern_kernel.h"
#include "src/ml/feature_matrix.h"
#include "src/ml/random_forest.h"
#include "src/ml/varclus.h"

namespace cajade {

namespace {

/// One APT column at the located sample rows, in sample order, given that
/// column of every shard: NaN for NULL, numbers and dictionary codes as
/// doubles. The type dispatch is once per column, not per cell. Codes
/// compare across shards (the ShardedApt dictionary invariant), so
/// categorical features do not depend on the sharding.
std::vector<double> SampledFeature(const std::vector<const Column*>& shard_col,
                                   const std::vector<size_t>& shard,
                                   const std::vector<size_t>& local) {
  std::vector<double> out(shard.size(), std::nan(""));
  auto read = [&](auto values_of) {
    for (size_t i = 0; i < shard.size(); ++i) {
      const Column& col = *shard_col[shard[i]];
      if (col.nulls()[local[i]] == 0) {
        out[i] = static_cast<double>(values_of(col)[local[i]]);
      }
    }
  };
  switch (shard_col.front()->type()) {
    case DataType::kInt64:
      read([](const Column& col) -> const auto& { return col.ints(); });
      break;
    case DataType::kDouble:
      read([](const Column& col) -> const auto& { return col.doubles(); });
      break;
    case DataType::kString:
      read([](const Column& col) -> const auto& { return col.codes(); });
      break;
    default:  // a kNull column holds only NULLs
      break;
  }
  return out;
}

/// Builds an ML feature matrix from (a row sample of) the APT. The sample
/// is drawn over global row ids, so the matrix — and everything the forest
/// learns from it — is independent of the sharding.
FeatureMatrix BuildFeatureMatrix(const ShardedApt& apt,
                                 const std::vector<int>& cols,
                                 const PtClasses& classes, size_t row_cap,
                                 Rng* rng) {
  FeatureMatrix m;
  std::vector<size_t> rows = rng->SampleIndices(apt.num_rows(), row_cap);
  std::vector<size_t> r_shard, r_local;
  LocateAptRows(apt, rows, &r_shard, &r_local);
  m.labels.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    m.labels.push_back(classes[apt.shards[r_shard[i]].pt_row[r_local[i]]]);
  }
  m.columns.reserve(cols.size());
  std::vector<const Column*> shard_col(apt.shards.size());
  for (int c : cols) {
    m.names.push_back(apt.schema_table().schema().column(c).name);
    m.is_categorical.push_back(apt.schema_table().column(c).type() ==
                               DataType::kString);
    for (size_t s = 0; s < apt.shards.size(); ++s) {
      shard_col[s] = &apt.shards[s].table.column(c);
    }
    m.columns.push_back(SampledFeature(shard_col, r_shard, r_local));
  }
  return m;
}

/// Distinct fragment boundaries of a numeric column: lambda_#frag quantiles
/// over the view's non-NULL values (Section 3.4), in the column's own type.
/// INT64 quantiles are taken on the int64 values themselves, so every
/// boundary is a column value (a round trip through double collapses values
/// beyond 2^53 and overflows at INT64_MAX). NaN satisfies neither <= nor >=
/// and would break the sort's strict weak ordering, so it is dropped.
/// Values are collected shard by shard and sorted, so the quantiles do not
/// depend on the sharding.
template <typename T>
std::vector<T> FragmentBoundaries(const ShardedApt& apt,
                                  const MetricsView& view, int col,
                                  int num_fragments) {
  std::vector<T> values;
  values.reserve(view.sampled_rows);
  auto collect = [&](const Column& column, size_t r) {
    if (column.IsNull(r)) return;
    if constexpr (std::is_same_v<T, int64_t>) {
      values.push_back(column.GetInt(r));
    } else {
      const double v = column.GetDouble(r);
      if (!std::isnan(v)) values.push_back(v);
    }
  };
  for (size_t si = 0; si < apt.shards.size(); ++si) {
    const Column& column = apt.shards[si].table.column(col);
    if (view.all_rows) {
      for (size_t r = 0; r < apt.shards[si].num_rows(); ++r) collect(column, r);
    } else {
      for (int32_t r : view.rows[si]) collect(column, static_cast<size_t>(r));
    }
  }
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());
  std::vector<T> bounds;
  int q = std::max(2, num_fragments);
  for (int i = 0; i < q; ++i) {
    size_t idx = static_cast<size_t>(
        std::llround(static_cast<double>(i) / (q - 1) * (values.size() - 1)));
    bounds.push_back(values[idx]);
  }
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  return bounds;
}

/// Writes the match mask of `pred` over every APT row to `out` in the flat
/// layout: shard si's rows occupy words [shard_word[si], shard_word[si + 1]),
/// bit r = shard row r, NULL rows and tail bits 0. Refinement candidates and
/// the winners' exact re-scoring both build their masks with it.
void FlatPredicateMask(const ShardedApt& apt,
                       const std::vector<size_t>& shard_word,
                       const PatternPredicate& pred, uint64_t* out) {
  for (size_t si = 0; si < apt.shards.size(); ++si) {
    CompiledPredicate::Compile(pred, apt.shards[si].table)
        .EvalMask(apt.shards[si].num_rows(), out + shard_word[si]);
  }
}

/// The coverage set (Definition 7a) of the flat match mask `mask`, in which
/// shard si's rows occupy words [shard_word[si], shard_word[si + 1]): with
/// a single identity shard the mask itself, else its rows projected onto
/// PT positions in `*covered`. Per-shard masks project (global pt_row
/// values) into ONE PT-wide coverage bitmap, so scores are independent of
/// the sharding.
const uint64_t* FlatCoverage(const ShardedApt& apt,
                             const std::vector<size_t>& shard_word,
                             bool pt_identity, size_t num_positions,
                             const uint64_t* mask, CoverageBitmap* covered) {
  if (pt_identity) return mask;
  covered->Reset(num_positions);
  for (size_t si = 0; si < apt.shards.size(); ++si) {
    CoverageScorer::CoverageFromMask(mask + shard_word[si],
                                     shard_word[si + 1] - shard_word[si],
                                     apt.shards[si].pt_row, covered);
  }
  return covered->words().data();
}

/// \brief In-view equality masks of the (categorical attribute, dictionary
/// code) pairs that LCA candidates bind, flat like RefineContext's masks,
/// NULL and out-of-view rows 0.
///
/// An LCA candidate is a conjunction of equalities on categorical
/// attributes, so its in-view match mask is the AND of its predicates'
/// masks: one pass over each referenced column replaces a predicate
/// compile and a scan of every row per candidate.
class CodeMasks {
 public:
  /// Builds the masks of every (attribute, code) that the predicates of
  /// `candidates[0, num_scored)` bind.
  CodeMasks(const ShardedApt& apt, const MetricsView& view,
            const std::vector<size_t>& shard_word,
            const std::vector<LcaCandidate>& candidates, size_t num_scored)
      : num_words_(shard_word.back()),
        slot_(apt.schema_table().num_columns()) {
    size_t num_masks = 0;
    for (size_t i = 0; i < num_scored; ++i) {
      for (const PatternPredicate& pred : candidates[i].pattern.preds) {
        // LCA predicates quote dictionary entries of categorical columns.
        assert(pred.op == PredOp::kEq && pred.code >= 0);
        std::vector<int32_t>& slots = slot_[pred.col];
        const size_t code = static_cast<size_t>(pred.code);
        if (code >= slots.size()) slots.resize(code + 1, -1);
        if (slots[code] < 0) slots[code] = static_cast<int32_t>(num_masks++);
      }
    }
    masks_.assign(num_masks * num_words_, 0);
    for (size_t col = 0; col < slot_.size(); ++col) {
      const std::vector<int32_t>& slots = slot_[col];
      if (slots.empty()) continue;
      for (size_t si = 0; si < apt.shards.size(); ++si) {
        const Column& column = apt.shards[si].table.column(col);
        const int32_t* codes = column.codes().data();
        const uint8_t* nulls = column.nulls().data();
        uint64_t* shard_masks = masks_.data() + shard_word[si];
        auto visit = [&](size_t r) {
          if (nulls[r] != 0) return;
          const size_t code = static_cast<size_t>(codes[r]);
          if (code >= slots.size() || slots[code] < 0) return;
          shard_masks[static_cast<size_t>(slots[code]) * num_words_ +
                      (r >> 6)] |= uint64_t{1} << (r & 63);
        };
        if (view.all_rows) {
          for (size_t r = 0; r < apt.shards[si].num_rows(); ++r) visit(r);
        } else {
          for (int32_t r : view.rows[si]) visit(static_cast<size_t>(r));
        }
      }
    }
  }

  /// Writes the in-view match mask of `pattern`, one of the candidates the
  /// masks were built for, to `out` (num_words words); returns its
  /// popcount.
  size_t Match(const Pattern& pattern, uint64_t* out) const {
    // A one-predicate pattern ANDs its mask with itself: a copy.
    size_t count = AndPopcountInto(Mask(pattern.preds[0]),
                                   Mask(pattern.preds[pattern.size() > 1]),
                                   num_words_, out);
    for (size_t p = 2; p < pattern.size(); ++p) {
      count = AndPopcountInto(out, Mask(pattern.preds[p]), num_words_, out);
    }
    return count;
  }

 private:
  const uint64_t* Mask(const PatternPredicate& pred) const {
    return masks_.data() +
           static_cast<size_t>(slot_[pred.col][pred.code]) * num_words_;
  }

  size_t num_words_;
  /// slot_[col][code]: the mask index of (col, code), -1 when unused.
  std::vector<std::vector<int32_t>> slot_;
  std::vector<uint64_t> masks_;
};

/// Exclusive self times of refinement's two phases — scoring a pattern
/// ("F-score Calc.") and generating its refinements ("Refine Patterns") —
/// kept in locals and charged to the profiler once per Mine() call. The
/// clock is read once per phase switch, and never without a profiler.
class RefineTimer {
 public:
  enum Phase { kScore = 0, kRefine = 1 };

  /// Starts timing in kRefine.
  explicit RefineTimer(bool enabled) : enabled_(enabled) {
    if (enabled_) mark_ = Clock::now();
  }

  void Enter(Phase phase) {
    if (!enabled_ || phase == phase_) return;
    const Clock::time_point now = Clock::now();
    seconds_[phase_] += std::chrono::duration<double>(now - mark_).count();
    mark_ = now;
    phase_ = phase;
  }

  /// Closes the current phase and adds both totals to `profiler`.
  void Charge(StepProfiler* profiler) {
    if (!enabled_) return;
    Enter(phase_ == kScore ? kRefine : kScore);
    profiler->Add("F-score Calc.", seconds_[kScore]);
    profiler->Add("Refine Patterns", seconds_[kRefine]);
  }

 private:
  using Clock = std::chrono::steady_clock;
  bool enabled_;
  Phase phase_ = kRefine;
  Clock::time_point mark_;
  double seconds_[2] = {0.0, 0.0};
};

/// State of the recursive refinement (step iv). Masks are flat: shard si's
/// rows occupy words [shard_word[si], shard_word[si + 1]) of every mask,
/// bit r = shard row r, tail bits zero, so one word-AND over `num_words`
/// refines all shards at once. Every buffer is sized before the recursion
/// starts, so evaluating a pattern allocates nothing beyond the pool's
/// amortized growth.
struct RefineContext {
  const ShardedApt* apt = nullptr;
  const CajadeConfig* config = nullptr;
  std::vector<size_t> shard_word;
  size_t num_words = 0;
  /// Refinement candidates: every non-trivial (numeric attribute, op,
  /// fragment boundary) predicate, as its pool predicate id and its rows
  /// (NULL rows 0) in cand_masks words [c * num_words, (c + 1) * num_words).
  /// Attribute a's candidates are [attr_begin[a], attr_begin[a + 1]), in
  /// evaluation order.
  std::vector<uint32_t> cand_pred;
  std::vector<uint64_t> cand_masks;
  std::vector<size_t> attr_begin;
  /// Child masks: one num_words block per recursion depth, so a parent's
  /// mask stays untouched while its children recurse.
  std::vector<uint64_t> arena;
  /// Pool predicate ids of the pattern being expanded: its seed's, then one
  /// per refinement.
  std::vector<uint32_t> pattern;
  CandidatePool* pool = nullptr;
  CoverageScorer scorer;  // built once per Mine()
  CoverageBitmap covered;  // reused coverage buffer
  bool pt_identity = false;  // single identity shard: mask == coverage
  size_t evaluated = 0;
  size_t row_work = 0;
  bool budget_exhausted = false;
  RefineTimer timer{false};
};

/// Adds attribute `col`'s refinement candidates to `ctx`: each
/// (op, boundary) predicate with its pool id and its flat mask. "<= max" and
/// ">= min" match every non-NULL row and are skipped.
template <typename T>
void AddRefinementCandidates(const ShardedApt& apt, int col,
                             const std::vector<T>& bounds,
                             RefineContext* ctx) {
  for (int op_i = 0; op_i < 2; ++op_i) {
    const PredOp op = op_i == 0 ? PredOp::kLe : PredOp::kGe;
    for (size_t b = 0; b < bounds.size(); ++b) {
      if (op == PredOp::kLe && b + 1 == bounds.size()) continue;
      if (op == PredOp::kGe && b == 0) continue;
      PatternPredicate pred = PatternPredicate::Make(apt.schema_table(), col,
                                                     op, Value(bounds[b]));
      const size_t c = ctx->cand_pred.size();
      ctx->cand_masks.resize((c + 1) * ctx->num_words);
      FlatPredicateMask(apt, ctx->shard_word, pred,
                        ctx->cand_masks.data() + c * ctx->num_words);
      ctx->cand_pred.push_back(ctx->pool->AddPredicate(std::move(pred)));
    }
  }
}

constexpr uint32_t kNotPooled = UINT32_MAX;

/// Scores ctx.pattern from its flat match mask (`count` set bits), pools it
/// for each primary whose recall passes the threshold, and recursively
/// refines it with the candidates of attributes from `next_attr` on (the
/// ordering removes duplicate generation). A child's mask is `mask` AND the
/// candidate's mask, written to the arena block of `depth`.
void ExpandPattern(RefineContext& ctx, const uint64_t* mask, size_t count,
                   size_t next_attr, size_t depth) {
  if (ctx.evaluated >= ctx.config->refinement_budget ||
      ctx.row_work >= ctx.config->refinement_row_budget) {
    ctx.budget_exhausted = true;
    return;
  }
  ++ctx.evaluated;
  ctx.timer.Enter(RefineTimer::kScore);

  const uint64_t* cov =
      FlatCoverage(*ctx.apt, ctx.shard_word, ctx.pt_identity,
                   ctx.scorer.num_positions(), mask, &ctx.covered);
  double recall[2];
  uint32_t pooled = kNotPooled;
  for (int primary = 0; primary < 2; ++primary) {
    PatternScores s = ctx.scorer.Score(cov, primary);
    recall[primary] = s.recall;
    if (!ctx.pattern.empty() && s.recall > ctx.config->recall_threshold) {
      if (pooled == kNotPooled) {
        pooled = ctx.pool->AddPattern(ctx.pattern.data(), ctx.pattern.size());
      }
      ctx.pool->AddEntry(pooled, primary, s);
    }
  }

  // Proposition 3.1: refinements cannot beat the parent's recall.
  if (ctx.config->enable_recall_pruning &&
      std::max(recall[0], recall[1]) <= ctx.config->recall_threshold) {
    return;
  }
  // Seeds bind categorical attributes only, so `depth` is the pattern's
  // number of numeric predicates.
  if (static_cast<int64_t>(depth) >= ctx.config->max_numeric_attrs) return;

  ctx.timer.Enter(RefineTimer::kRefine);
  uint64_t* child = ctx.arena.data() + depth * ctx.num_words;
  for (size_t a = next_attr; a + 1 < ctx.attr_begin.size(); ++a) {
    for (size_t c = ctx.attr_begin[a]; c < ctx.attr_begin[a + 1]; ++c) {
      // Charged once per candidate by the parent's in-view rows (summed
      // over shards) so the row budget trips at the same evaluation count
      // at any shard size.
      ctx.row_work += count;
      const size_t child_count = AndPopcountInto(
          mask, ctx.cand_masks.data() + c * ctx.num_words, ctx.num_words,
          child);
      if (child_count == 0) continue;
      ctx.pattern.push_back(ctx.cand_pred[c]);
      ExpandPattern(ctx, child, child_count, a + 1, depth + 1);
      ctx.pattern.pop_back();
      ctx.timer.Enter(RefineTimer::kRefine);
      if (ctx.budget_exhausted) return;
    }
  }
}

}  // namespace

uint32_t CandidatePool::AddPredicate(PatternPredicate pred) {
  tokens_.push_back(pred.KeyToken());
  preds_.push_back(std::move(pred));
  return static_cast<uint32_t>(preds_.size() - 1);
}

uint32_t CandidatePool::AddPattern(const uint32_t* ids, size_t n) {
  const size_t begin = pattern_ids_.size();
  pattern_ids_.insert(pattern_ids_.end(), ids, ids + n);
  // Pattern's predicate order (see Pattern::Refine).
  std::sort(pattern_ids_.begin() + static_cast<std::ptrdiff_t>(begin),
            pattern_ids_.end(), [&](uint32_t a, uint32_t b) {
              if (preds_[a].col != preds_[b].col) {
                return preds_[a].col < preds_[b].col;
              }
              return static_cast<int>(preds_[a].op) <
                     static_cast<int>(preds_[b].op);
            });
  ids_end_.push_back(pattern_ids_.size());
  for (size_t i = begin; i < pattern_ids_.size(); ++i) {
    if (i != begin) keys_ += '&';
    keys_ += tokens_[pattern_ids_[i]];
  }
  key_end_.push_back(keys_.size());
  return static_cast<uint32_t>(key_end_.size() - 1);
}

Pattern CandidatePool::MakePattern(uint32_t i) const {
  const size_t begin = i == 0 ? 0 : ids_end_[i - 1];
  Pattern p;
  p.preds.reserve(ids_end_[i] - begin);
  for (size_t j = begin; j < ids_end_[i]; ++j) {
    p.preds.push_back(preds_[pattern_ids_[j]]);
  }
  return p;
}

double CandidatePool::Diversity(uint32_t a, uint32_t b) const {
  const uint32_t* pa = pattern_ids_.data() + (a == 0 ? 0 : ids_end_[a - 1]);
  const uint32_t* pa_end = pattern_ids_.data() + ids_end_[a];
  const uint32_t* pb = pattern_ids_.data() + (b == 0 ? 0 : ids_end_[b - 1]);
  const uint32_t* pb_end = pattern_ids_.data() + ids_end_[b];
  if (pa == pa_end) return 1.0;
  double sum = 0.0;
  // Both runs are sorted by column, one predicate per column, so a single
  // merge pass finds b's predicate on each of a's columns.
  for (const uint32_t* i = pa; i != pa_end; ++i) {
    const PatternPredicate& pred = preds_[*i];
    while (pb != pb_end && preds_[*pb].col < pred.col) ++pb;
    if (pb == pb_end || preds_[*pb].col != pred.col) {
      sum += 1.0;
    } else if (pred.value == preds_[*pb].value) {
      sum += -2.0;
    } else {
      sum += -0.3;
    }
  }
  return sum / static_cast<double>(pa_end - pa);
}

std::vector<size_t> SelectTopKDiverse(const CandidatePool& pool, size_t k,
                                      bool use_diversity) {
  const std::vector<CandidatePool::Entry>& entries = pool.entries();
  // Each record carries its comparison inputs inline (the F-score and the
  // Key() tie-break), so the sort never chases an entry or pattern index.
  struct SortRecord {
    double fscore;
    std::string_view key;
    size_t entry;
  };
  std::vector<SortRecord> records(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    records[i] = {entries[i].scores.fscore, pool.Key(entries[i].pattern), i};
  }
  std::sort(records.begin(), records.end(),
            [](const SortRecord& a, const SortRecord& b) {
              if (a.fscore != b.fscore) return a.fscore > b.fscore;
              return a.key < b.key;
            });
  std::vector<size_t> order(records.size());
  for (size_t i = 0; i < records.size(); ++i) order[i] = records[i].entry;
  if (!use_diversity) {
    if (order.size() > k) order.resize(k);
    return order;
  }
  // Bound the candidate set examined by the greedy diversity pass.
  const size_t kDiversityWindow = 2000;
  if (order.size() > kDiversityWindow) order.resize(kDiversityWindow);

  // min_d[pos]: min over the picks so far of D(candidate, pick). min is
  // exact, so folding in only the newest pick after each round gives the
  // value a rescan of every pick would: O(k * window) diversity scores.
  std::vector<double> min_d(order.size(), 1e18);
  std::vector<bool> used(order.size(), false);
  std::vector<size_t> selected;
  while (selected.size() < k) {
    double best_score = -1e18;
    size_t best_pos = SIZE_MAX;
    for (size_t pos = 0; pos < order.size(); ++pos) {
      if (used[pos]) continue;
      double wscore = entries[order[pos]].scores.fscore;
      if (!selected.empty()) wscore += min_d[pos];
      if (wscore > best_score) {
        best_score = wscore;
        best_pos = pos;
      }
    }
    if (best_pos == SIZE_MAX) break;
    used[best_pos] = true;
    selected.push_back(order[best_pos]);
    if (selected.size() == k) break;
    for (size_t pos = 0; pos < order.size(); ++pos) {
      if (used[pos]) continue;
      min_d[pos] = std::min(
          min_d[pos], pool.Diversity(entries[order[pos]].pattern,
                                     entries[order[best_pos]].pattern));
    }
  }
  return selected;
}

std::vector<int> PatternMiner::SelectAttributes(const ShardedApt& apt,
                                                const PtClasses& classes,
                                                Rng* rng) const {
  const std::vector<int>& eligible = apt.pattern_cols;
  if (!config_->enable_feature_selection || eligible.size() <= 2) {
    return eligible;
  }
  ScopedStep step(profiler_, "Feature Selection");

  FeatureMatrix matrix = BuildFeatureMatrix(
      apt, eligible, classes,
      std::max(config_->forest_row_cap * 2, size_t{256}), rng);
  // Degenerate labels: nothing to learn, keep everything.
  bool has0 = false, has1 = false;
  for (int l : matrix.labels) (l == 0 ? has0 : has1) = true;
  if (!has0 || !has1) return eligible;

  RandomForest forest;
  ForestOptions options;
  options.num_trees = config_->forest_trees;
  options.tree.max_depth = config_->forest_max_depth;
  options.row_cap = config_->forest_row_cap;
  forest.Train(matrix, options, rng);
  const std::vector<double>& importance = forest.importances();

  double total = 0;
  for (double v : importance) total += v;
  if (total <= 0) return eligible;  // forest never split

  // Rank by importance, keep the lambda_#sel-attr count/fraction.
  std::vector<int> ranked(eligible.size());
  for (size_t i = 0; i < ranked.size(); ++i) ranked[i] = static_cast<int>(i);
  std::sort(ranked.begin(), ranked.end(), [&](int a, int b) {
    if (importance[a] != importance[b]) return importance[a] > importance[b];
    return a < b;
  });
  // Mine() rejects NaN, infinite and negative values; clamping keeps a
  // large count castable.
  size_t keep = config_->sel_attr <= 1.0
                    ? static_cast<size_t>(
                          std::ceil(config_->sel_attr * eligible.size()))
                    : static_cast<size_t>(std::min(
                          config_->sel_attr,
                          static_cast<double>(eligible.size())));
  keep = std::min(std::max<size_t>(keep, 1), eligible.size());
  ranked.resize(keep);
  // Drop zero-importance attributes outright: they are constant or useless
  // for separating the two outputs, and patterns quoting them mislead users
  // (the failure mode Section 3.1 calls out).
  while (ranked.size() > 1 && importance[ranked.back()] <= 0.0) {
    ranked.pop_back();
  }

  // Cluster the kept attributes; one representative per cluster.
  FeatureMatrix kept;
  std::vector<double> kept_importance;
  for (int fi : ranked) {
    kept.names.push_back(matrix.names[fi]);
    kept.is_categorical.push_back(matrix.is_categorical[fi]);
    kept.columns.push_back(matrix.columns[fi]);
    kept_importance.push_back(importance[fi]);
  }
  kept.labels = matrix.labels;
  AttributeClustering clustering =
      ClusterAttributes(kept, kept_importance, config_->cluster_threshold);

  std::vector<int> out;
  for (int rep : clustering.representatives) {
    out.push_back(eligible[ranked[rep]]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<MineResult> PatternMiner::Mine(const ShardedApt& apt,
                                      const PtClasses& classes,
                                      Rng* rng) const {
  // The sampling knobs size row and attribute counts; casting a NaN,
  // infinite or negative product to a count is undefined.
  for (const auto& [name, value] :
       {std::pair{"pat_sample_rate", config_->pat_sample_rate},
        std::pair{"sel_attr", config_->sel_attr}}) {
    if (!(value >= 0.0) || std::isinf(value)) {
      return Status::InvalidArgument(
          Format("%s must be finite and non-negative, got %g", name, value));
    }
  }
  // The forest sizes its tree list and its depth by these, and top_k and
  // k_cat cap the winners and the seeds; each is cast to a count.
  for (const auto& [name, value] :
       {std::pair{"forest_trees", config_->forest_trees},
        std::pair{"forest_max_depth", config_->forest_max_depth},
        std::pair{"top_k", config_->top_k},
        std::pair{"k_cat", config_->k_cat}}) {
    if (value < 0) {
      return Status::InvalidArgument(
          Format("%s must be non-negative, got %d", name, value));
    }
  }
  MineResult result;
  result.apt_rows = apt.num_rows();
  result.num_attributes = apt.pattern_cols.size();
  if (apt.pt_rows_used.empty()) {
    return Status::InvalidArgument("APT covers no provenance rows");
  }
  const std::vector<AptShard>& shards = apt.shards;
  const size_t num_shards = shards.size();

  // (i) Attribute filtering + clustering.
  std::vector<int> attrs = SelectAttributes(apt, classes, rng);
  result.selected_attributes = attrs.size();
  std::vector<int> cat_attrs, num_attrs;
  for (int c : attrs) {
    if (apt.schema_table().column(c).type() == DataType::kString) {
      cat_attrs.push_back(c);
    } else {
      num_attrs.push_back(c);
    }
  }

  // Sampling for F-score calculation.
  MetricsView view;
  {
    ScopedStep step(profiler_, "Sampling for F1");
    view = config_->f1_sample_rate >= 1.0
               ? FullView(apt, classes)
               : SampledView(apt, classes, config_->f1_sample_rate, rng);
  }

  // (ii) LCA candidates over categorical attributes.
  std::vector<LcaCandidate> candidates;
  {
    ScopedStep step(profiler_, "Gen. Pat. Cand.");
    // Rates beyond 2^64 rows exceed any cap; casting them is undefined.
    const double want =
        config_->pat_sample_rate * static_cast<double>(apt.num_rows());
    size_t sample = want < 0x1p64 ? static_cast<size_t>(want) : SIZE_MAX;
    sample = std::min(std::max<size_t>(sample, 16), config_->pat_sample_cap);
    candidates = GenerateLcaCandidates(apt, cat_attrs, sample, rng);
  }
  result.lca_candidates = candidates.size();

  // Flat mask layout shared by the seeds, refinement and the winners'
  // re-scoring: shard si's rows occupy words [shard_word[si],
  // shard_word[si + 1]).
  std::vector<size_t> shard_word(num_shards + 1, 0);
  for (size_t si = 0; si < num_shards; ++si) {
    shard_word[si + 1] =
        shard_word[si] + CoverageBitmap::NumWords(shards[si].num_rows());
  }
  const size_t num_words = shard_word.back();

  // (iii) Recall-filter candidates; keep top k_cat by recall as seeds. A
  // candidate's in-view match mask is the AND of its predicates' code
  // masks; its rows project into one PT-wide coverage bitmap, so scores
  // merge across shards by coverage, never by concatenating rows.
  struct Seed {
    const Pattern* pattern = nullptr;  // null: the empty pattern
    std::vector<uint64_t> mask;        // flat, in-view matching rows
    size_t count = 0;
  };
  const bool pt_identity = apt.PtRowIsIdentity();
  std::vector<Seed> seeds;
  CoverageScorer scorer(classes, view);
  {
    ScopedStep step(profiler_, "F-score Calc.");
    // Bound the number of candidates scored (they are ordered by pair
    // frequency, the LCA heuristic's own ranking).
    const size_t kMaxScored = 500;
    const size_t num_scored = std::min(candidates.size(), kMaxScored);
    const CodeMasks code_masks(apt, view, shard_word, candidates, num_scored);
    std::vector<uint64_t> match(num_words);
    CoverageBitmap covered;
    // Two passes so only the <= k_cat winners ever hold mask copies: first
    // score every candidate in the reused buffers, then AND the masks of
    // just the kept seeds again (the sort sees the same recall sequence the
    // one-pass variant would, so ties resolve identically).
    struct ScoredCandidate {
      const Pattern* pattern;
      double recall;
    };
    std::vector<ScoredCandidate> kept;
    for (size_t i = 0; i < num_scored; ++i) {
      const Pattern& pattern = candidates[i].pattern;
      code_masks.Match(pattern, match.data());
      const uint64_t* cov =
          FlatCoverage(apt, shard_word, pt_identity, scorer.num_positions(),
                       match.data(), &covered);
      double best_recall = 0;
      for (int primary = 0; primary < 2; ++primary) {
        best_recall = std::max(best_recall, scorer.Score(cov, primary).recall);
      }
      if (best_recall > config_->recall_threshold) {
        kept.push_back({&pattern, best_recall});
      }
    }
    std::sort(kept.begin(), kept.end(),
              [](const ScoredCandidate& a, const ScoredCandidate& b) {
                return a.recall > b.recall;
              });
    if (kept.size() > static_cast<size_t>(config_->k_cat)) {
      kept.resize(config_->k_cat);
    }
    seeds.reserve(kept.size() + 1);
    for (const ScoredCandidate& sc : kept) {
      Seed seed;
      seed.pattern = sc.pattern;
      seed.mask.resize(num_words);
      seed.count = code_masks.Match(*seed.pattern, seed.mask.data());
      seeds.push_back(std::move(seed));
    }
  }
  // The empty pattern seeds numeric-only refinements: it matches every
  // in-view row.
  {
    Seed empty;
    empty.mask.assign(num_words, 0);
    empty.count = view.sampled_rows;
    for (size_t si = 0; si < num_shards; ++si) {
      uint64_t* words = empty.mask.data() + shard_word[si];
      auto set = [words](size_t r) {
        words[r >> 6] |= uint64_t{1} << (r & 63);
      };
      if (view.all_rows) {
        for (size_t r = 0; r < shards[si].num_rows(); ++r) set(r);
      } else {
        for (int32_t r : view.rows[si]) set(static_cast<size_t>(r));
      }
    }
    seeds.push_back(std::move(empty));
  }

  // (iv) Numeric refinement: the candidate predicates and their masks are
  // built once, so a refinement costs a word-AND + popcount.
  CandidatePool pool;
  RefineContext ctx;
  ctx.timer = RefineTimer(profiler_ != nullptr);
  ctx.apt = &apt;
  ctx.config = config_;
  ctx.shard_word = std::move(shard_word);
  ctx.num_words = num_words;
  ctx.pool = &pool;
  ctx.scorer = std::move(scorer);
  ctx.pt_identity = pt_identity;
  for (int col : num_attrs) {
    ctx.attr_begin.push_back(ctx.cand_pred.size());
    const DataType type = apt.schema_table().column(col).type();
    if (type == DataType::kInt64) {
      AddRefinementCandidates(
          apt, col,
          FragmentBoundaries<int64_t>(apt, view, col, config_->num_fragments),
          &ctx);
    } else if (type == DataType::kDouble) {
      AddRefinementCandidates(
          apt, col,
          FragmentBoundaries<double>(apt, view, col, config_->num_fragments),
          &ctx);
    }
  }
  ctx.attr_begin.push_back(ctx.cand_pred.size());
  // Each recursion level adds one numeric predicate, so numeric_attrs + 1
  // blocks cover the deepest chain.
  ctx.arena.resize((num_attrs.size() + 1) * num_words);
  ctx.pattern.reserve(num_attrs.size() + cat_attrs.size());
  for (const Seed& seed : seeds) {
    ctx.pattern.clear();
    if (seed.pattern != nullptr) {
      for (const PatternPredicate& pred : seed.pattern->preds) {
        ctx.pattern.push_back(pool.AddPredicate(pred));
      }
    }
    ExpandPattern(ctx, seed.mask.data(), seed.count, 0, 0);
    if (ctx.budget_exhausted) break;
  }
  ctx.timer.Charge(profiler_);
  result.patterns_evaluated = ctx.evaluated;
  result.budget_exhausted = ctx.budget_exhausted;

  // (v) Diversity-aware top-k, then the winners' exact scores.
  ScopedStep rank_step(profiler_, "Rank Top-k");
  std::vector<size_t> picked = SelectTopKDiverse(
      pool, static_cast<size_t>(config_->top_k), config_->enable_diversity);

  // Exact relative supports (Definition 6) on the full APT for the winners:
  // a winner's match mask is the AND of its predicates' masks over every APT
  // row, in refinement's flat layout.
  MetricsView full = FullView(apt, classes);
  CoverageScorer full_scorer(classes, full);
  std::vector<uint64_t> match(num_words), pred_mask(num_words);
  CoverageBitmap covered;
  for (size_t idx : picked) {
    const CandidatePool::Entry& entry = pool.entries()[idx];
    MinedPattern mp;
    mp.pattern = pool.MakePattern(entry.pattern);
    mp.primary = entry.primary;
    mp.scores = entry.scores;
    // Only refinement pools patterns, and never the empty one.
    const std::vector<PatternPredicate>& preds = mp.pattern.preds;
    FlatPredicateMask(apt, ctx.shard_word, preds[0], match.data());
    for (size_t p = 1; p < preds.size(); ++p) {
      FlatPredicateMask(apt, ctx.shard_word, preds[p], pred_mask.data());
      AndPopcountInto(match.data(), pred_mask.data(), num_words, match.data());
    }
    const uint64_t* cov =
        FlatCoverage(apt, ctx.shard_word, pt_identity,
                     full_scorer.num_positions(), match.data(), &covered);
    PatternScores sp = full_scorer.Score(cov, mp.primary);
    PatternScores so = full_scorer.Score(cov, 1 - mp.primary);
    mp.exact = sp;
    mp.support_primary = sp.tp;
    mp.total_primary = sp.tp + sp.fn;
    mp.support_other = so.tp;
    mp.total_other = so.tp + so.fn;
    result.top_k.push_back(std::move(mp));
  }
  return result;
}

}  // namespace cajade
