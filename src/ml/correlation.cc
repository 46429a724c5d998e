#include "src/ml/correlation.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <unordered_map>

#include "src/ml/dense_ids.h"

namespace cajade {

double PearsonAbs(const std::vector<double>& x, const std::vector<double>& y) {
  double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
  size_t n = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    if (std::isnan(x[i]) || std::isnan(y[i])) continue;
    ++n;
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    syy += y[i] * y[i];
    sxy += x[i] * y[i];
  }
  if (n < 2) return 0.0;
  double dn = static_cast<double>(n);
  double cov = sxy - sx * sy / dn;
  double vx = sxx - sx * sx / dn;
  double vy = syy - sy * sy / dn;
  if (vx <= 1e-12 || vy <= 1e-12) return 0.0;
  return std::min(1.0, std::fabs(cov) / std::sqrt(vx * vy));
}

CodeRanks RankCodes(const std::vector<double>& codes) {
  DenseIds ids(codes.size());
  CodeRanks out;
  out.rank.resize(codes.size());
  for (size_t i = 0; i < codes.size(); ++i) {
    out.rank[i] = std::isnan(codes[i])
                      ? CodeRanks::kNull
                      : ids.Id(static_cast<uint64_t>(
                            static_cast<int64_t>(codes[i])));
  }
  // Renumber first-appearance ids by ascending code.
  std::vector<uint32_t> by_code(ids.size());
  std::iota(by_code.begin(), by_code.end(), 0u);
  std::sort(by_code.begin(), by_code.end(), [&](uint32_t a, uint32_t b) {
    return static_cast<int64_t>(ids.keys()[a]) <
           static_cast<int64_t>(ids.keys()[b]);
  });
  std::vector<uint32_t> rank_of(ids.size());
  for (size_t r = 0; r < by_code.size(); ++r) {
    rank_of[by_code[r]] = static_cast<uint32_t>(r);
  }
  for (uint32_t& r : out.rank) {
    if (r != CodeRanks::kNull) r = rank_of[r];
  }
  out.distinct = static_cast<uint32_t>(ids.size());
  return out;
}

double CramersV(const std::vector<double>& x, const std::vector<double>& y) {
  return CramersV(RankCodes(x), RankCodes(y));
}

double CramersV(const CodeRanks& x, const CodeRanks& y) {
  // Contingency counts over the rows where both codes are present.
  auto both = [&](size_t i) {
    return x.rank[i] != CodeRanks::kNull && y.rank[i] != CodeRanks::kNull;
  };
  std::vector<uint32_t> count_x(x.distinct, 0), count_y(y.distinct, 0);
  size_t rows = 0;
  for (size_t i = 0; i < x.rank.size(); ++i) {
    if (!both(i)) continue;
    ++count_x[x.rank[i]];
    ++count_y[y.rank[i]];
    ++rows;
  }
  // The codes those rows hold, ascending; y's numbered densely.
  std::vector<uint32_t> codes_x, codes_y, column_of(y.distinct);
  for (uint32_t a = 0; a < x.distinct; ++a) {
    if (count_x[a] > 0) codes_x.push_back(a);
  }
  for (uint32_t b = 0; b < y.distinct; ++b) {
    if (count_y[b] == 0) continue;
    column_of[b] = static_cast<uint32_t>(codes_y.size());
    codes_y.push_back(b);
  }
  const size_t dx = codes_x.size(), dy = codes_y.size();
  const double n = static_cast<double>(rows);
  if (n < 2 || dx < 2 || dy < 2) {
    // A constant attribute is perfectly "explained": treat as no association
    // unless both are constant (then they are trivially redundant).
    return (dx <= 1 && dy <= 1) ? 1.0 : 0.0;
  }
  // Rows grouped by x code (a counting sort), so each x code's row of the
  // table is filled, summed and cleared in one dense buffer.
  std::vector<uint32_t> start(x.distinct + 1, 0), grouped(rows);
  for (uint32_t a = 0; a < x.distinct; ++a) {
    start[a + 1] = start[a] + count_x[a];
  }
  {
    std::vector<uint32_t> at(start.begin(), start.end() - 1);
    for (size_t i = 0; i < x.rank.size(); ++i) {
      if (both(i)) grouped[at[x.rank[i]]++] = column_of[y.rank[i]];
    }
  }
  // Chi-squared over the full grid in ascending (a, b) order: zero-observed
  // cells still contribute their expected counts.
  std::vector<uint32_t> joint(dy, 0);
  double chi2 = 0.0;
  for (uint32_t a : codes_x) {
    for (uint32_t i = start[a]; i < start[a + 1]; ++i) ++joint[grouped[i]];
    const double count_a = count_x[a];
    for (size_t b = 0; b < dy; ++b) {
      double expected = count_a * static_cast<double>(count_y[codes_y[b]]) / n;
      double d = static_cast<double>(joint[b]) - expected;
      chi2 += d * d / expected;
    }
    for (uint32_t i = start[a]; i < start[a + 1]; ++i) joint[grouped[i]] = 0;
  }
  double k = static_cast<double>(std::min(dx, dy));
  double v = std::sqrt(chi2 / (n * (k - 1.0)));
  return std::min(1.0, v);
}

double CorrelationRatio(const std::vector<double>& categories,
                        const std::vector<double>& values) {
  std::unordered_map<int64_t, std::pair<double, double>> groups;  // sum, count
  double total_sum = 0;
  double n = 0;
  for (size_t i = 0; i < categories.size(); ++i) {
    if (std::isnan(categories[i]) || std::isnan(values[i])) continue;
    auto& g = groups[static_cast<int64_t>(categories[i])];
    g.first += values[i];
    g.second += 1;
    total_sum += values[i];
    n += 1;
  }
  if (n < 2 || groups.size() < 2) return 0.0;
  double mean = total_sum / n;
  double between = 0;
  for (const auto& [_, g] : groups) {
    double gm = g.first / g.second;
    between += g.second * (gm - mean) * (gm - mean);
  }
  double total_var = 0;
  for (size_t i = 0; i < categories.size(); ++i) {
    if (std::isnan(categories[i]) || std::isnan(values[i])) continue;
    total_var += (values[i] - mean) * (values[i] - mean);
  }
  if (total_var <= 1e-12) return 0.0;
  return std::min(1.0, std::sqrt(between / total_var));
}

Association::Association(const FeatureMatrix& data)
    : data_(&data), ranks_(data.num_features()) {
  for (size_t f = 0; f < ranks_.size(); ++f) {
    if (data.is_categorical[f]) ranks_[f] = RankCodes(data.columns[f]);
  }
}

double Association::operator()(int f1, int f2) const {
  const FeatureMatrix& data = *data_;
  bool c1 = data.is_categorical[f1];
  bool c2 = data.is_categorical[f2];
  if (!c1 && !c2) return PearsonAbs(data.columns[f1], data.columns[f2]);
  if (c1 && c2) return CramersV(ranks_[f1], ranks_[f2]);
  return c1 ? CorrelationRatio(data.columns[f1], data.columns[f2])
            : CorrelationRatio(data.columns[f2], data.columns[f1]);
}

}  // namespace cajade
