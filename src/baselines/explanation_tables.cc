#include "src/baselines/explanation_tables.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "src/common/string_util.h"
#include "src/mining/lca.h"

namespace cajade {

namespace {

double Kl(double p, double q) {
  auto term = [](double a, double b) {
    if (a <= 0) return 0.0;
    b = std::min(std::max(b, 1e-9), 1.0 - 1e-9);
    return a * std::log(a / b);
  };
  return term(p, q) + term(1.0 - p, 1.0 - q);
}

}  // namespace

ShardedApt BinNumericColumns(const ShardedApt& apt, int num_bins) {
  const Table& schema_table = apt.schema_table();
  const size_t num_shards = apt.shards.size();
  Schema schema;
  std::vector<std::vector<Column>> columns(num_shards);  // per shard
  for (size_t c = 0; c < schema_table.num_columns(); ++c) {
    const ColumnDef& def = schema_table.schema().column(c);
    if (!IsNumeric(def.type)) {
      (void)schema.AddColumn(def.name, def.type, def.mining_excluded);
      for (size_t s = 0; s < num_shards; ++s) {
        columns[s].push_back(apt.shards[s].table.column(c));
      }
      continue;
    }
    // Equi-width bins over the range observed across all shards.
    double lo = 0, hi = 0;
    bool first = true;
    for (const AptShard& shard : apt.shards) {
      const Column& src = shard.table.column(c);
      for (size_t r = 0; r < src.size(); ++r) {
        if (src.IsNull(r)) continue;
        double v = src.GetNumeric(r);
        if (first || v < lo) lo = v;
        if (first || v > hi) hi = v;
        first = false;
      }
    }
    double width = (hi - lo) / std::max(1, num_bins);
    if (width <= 0) width = 1;
    // Labels are interned in global row order into one dictionary that
    // every shard's column adopts, so codes compare across shards.
    Column labels(DataType::kString);
    std::vector<std::vector<int32_t>> codes(num_shards);  // -1 = NULL
    for (size_t s = 0; s < num_shards; ++s) {
      const Column& src = apt.shards[s].table.column(c);
      codes[s].reserve(src.size());
      for (size_t r = 0; r < src.size(); ++r) {
        if (src.IsNull(r)) {
          codes[s].push_back(-1);
          continue;
        }
        int b = std::min(num_bins - 1,
                         static_cast<int>((src.GetNumeric(r) - lo) / width));
        codes[s].push_back(labels.InternString(
            Format("[%.4g,%.4g]", lo + b * width, lo + (b + 1) * width)));
      }
    }
    for (size_t s = 0; s < num_shards; ++s) {
      Column binned(DataType::kString);
      binned.AdoptDictionary(labels);
      binned.Reserve(codes[s].size());
      for (int32_t code : codes[s]) {
        if (code < 0) {
          binned.AppendNull();
        } else {
          binned.AppendCode(code);
        }
      }
      columns[s].push_back(std::move(binned));
    }
    (void)schema.AddColumn(def.name, DataType::kString, def.mining_excluded);
  }

  ShardedApt out;
  out.pt_rows_used = apt.pt_rows_used;
  out.num_pt_columns = apt.num_pt_columns;
  out.pattern_cols = apt.pattern_cols;
  out.total_rows = apt.total_rows;
  for (size_t s = 0; s < num_shards; ++s) {
    const AptShard& in = apt.shards[s];
    AptShard shard;
    shard.table = Table("APT-binned", schema, std::move(columns[s]),
                        in.table.num_rows());
    shard.pt_row = in.pt_row;
    shard.pt_begin = in.pt_begin;
    shard.pt_end = in.pt_end;
    out.shards.push_back(std::move(shard));
  }
  return out;
}

std::vector<EtPattern> ExplanationTables::Build(
    const ShardedApt& apt, const std::vector<int8_t>& outcome,
    Rng* rng) const {
  std::vector<EtPattern> table;
  const size_t n = apt.num_rows();
  if (n == 0) return table;

  // Categorical pattern-eligible columns.
  std::vector<int> cat_cols;
  for (int c : apt.pattern_cols) {
    if (apt.schema_table().column(c).type() == DataType::kString) {
      cat_cols.push_back(c);
    }
  }
  if (cat_cols.empty()) return table;

  // Candidate patterns via the LCA meet of a sample with itself (the same
  // generation step the published algorithm uses). The all-free pattern acts
  // as the root (overall rate).
  std::vector<LcaCandidate> candidates =
      GenerateLcaCandidates(apt, cat_cols, options_.sample_size, rng);
  if (options_.max_candidates > 0 && candidates.size() > options_.max_candidates) {
    candidates.resize(options_.max_candidates);
  }

  // Calls fn(r) for every global row r that `p` matches, in row order.
  auto for_each_match = [&apt](const Pattern& p, auto&& fn) {
    size_t r = 0;
    for (const AptShard& shard : apt.shards) {
      for (size_t local = 0; local < shard.num_rows(); ++local, ++r) {
        if (p.Matches(shard.table, local)) fn(r);
      }
    }
  };

  // Precompute per-candidate match bitmap lazily during gain scans; the
  // estimate vector carries the current model.
  double overall = 0;
  for (size_t r = 0; r < n; ++r) overall += outcome[r];
  overall /= static_cast<double>(n);
  std::vector<double> estimate(n, overall);

  std::vector<bool> used(candidates.size(), false);
  for (size_t round = 0; round < options_.table_size; ++round) {
    double best_gain = 1e-12;
    int best = -1;
    double best_rate = 0;
    int64_t best_count = 0;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (used[i]) continue;
      const Pattern& p = candidates[i].pattern;
      // Gain: sum over matching rows of KL(actual rate || current estimate)
      // minus the residual after updating to the pattern's rate.
      int64_t count = 0;
      double sum_outcome = 0;
      double kl_before = 0;
      for_each_match(p, [&](size_t r) {
        ++count;
        sum_outcome += outcome[r];
        kl_before += Kl(outcome[r], estimate[r]);
      });
      if (count == 0) continue;
      double rate = sum_outcome / static_cast<double>(count);
      double kl_after = 0;
      for_each_match(p, [&](size_t r) { kl_after += Kl(outcome[r], rate); });
      double gain = kl_before - kl_after;
      if (gain > best_gain) {
        best_gain = gain;
        best = static_cast<int>(i);
        best_rate = rate;
        best_count = count;
      }
    }
    if (best < 0) break;
    used[best] = true;
    const Pattern& p = candidates[best].pattern;
    for_each_match(p, [&](size_t r) { estimate[r] = best_rate; });
    table.push_back({p, best_rate, best_count, best_gain});
  }
  return table;
}

}  // namespace cajade
