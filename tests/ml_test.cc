// Tests for src/ml: decision trees, random forests (importances), the
// association measures, and VARCLUS-style attribute clustering. The forest's
// encoded split search and Cramer's V are held bit for bit to test-local
// oracles: the per-candidate row scan and ordered-map contingency tables.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <string>

#include "src/common/rng.h"
#include "src/ml/correlation.h"
#include "src/ml/decision_tree.h"
#include "src/ml/random_forest.h"
#include "src/ml/varclus.h"

namespace cajade {
namespace {

/// label = 1 iff x0 > 0.5; x1 is noise; x2 (categorical) weakly informative.
FeatureMatrix MakeSyntheticData(size_t n, Rng* rng) {
  FeatureMatrix m;
  m.names = {"signal", "noise", "category"};
  m.is_categorical = {false, false, true};
  m.columns.resize(3);
  for (size_t i = 0; i < n; ++i) {
    double x0 = rng->UniformDouble();
    double x1 = rng->UniformDouble();
    double cat = static_cast<double>(rng->NextBounded(4));
    int label = x0 > 0.5 ? 1 : 0;
    if (rng->Bernoulli(0.05)) label = 1 - label;  // 5% noise
    m.columns[0].push_back(x0);
    m.columns[1].push_back(x1);
    m.columns[2].push_back(cat);
    m.labels.push_back(label);
  }
  return m;
}

TEST(DecisionTreeTest, LearnsThresholdSplit) {
  Rng rng(1);
  FeatureMatrix data = MakeSyntheticData(600, &rng);
  std::vector<int> rows(data.num_rows());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<int>(i);
  DecisionTree tree;
  TreeOptions options;
  tree.Train(data, rows, options, &rng);
  EXPECT_GT(tree.num_nodes(), 1u);
  int correct = 0;
  Rng test_rng(77);
  for (int i = 0; i < 200; ++i) {
    double x0 = test_rng.UniformDouble();
    double p = tree.PredictProba({x0, test_rng.UniformDouble(), 0.0});
    if ((p > 0.5) == (x0 > 0.5)) ++correct;
  }
  EXPECT_GT(correct, 170);  // > 85% accuracy
}

TEST(DecisionTreeTest, PureNodeStops) {
  FeatureMatrix data;
  data.names = {"x"};
  data.is_categorical = {false};
  data.columns = {{1, 2, 3, 4, 5, 6, 7, 8}};
  data.labels = {1, 1, 1, 1, 1, 1, 1, 1};
  std::vector<int> rows = {0, 1, 2, 3, 4, 5, 6, 7};
  DecisionTree tree;
  Rng rng(1);
  tree.Train(data, rows, TreeOptions{}, &rng);
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_DOUBLE_EQ(tree.PredictProba({3.0}), 1.0);
}

TEST(DecisionTreeTest, CategoricalEqualitySplit) {
  // label = 1 iff category == 2.
  FeatureMatrix data;
  data.names = {"cat"};
  data.is_categorical = {true};
  Rng rng(5);
  for (int i = 0; i < 400; ++i) {
    double c = static_cast<double>(rng.NextBounded(5));
    data.columns.resize(1);
    data.columns[0].push_back(c);
    data.labels.push_back(c == 2.0 ? 1 : 0);
  }
  std::vector<int> rows(data.num_rows());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<int>(i);
  DecisionTree tree;
  tree.Train(data, rows, TreeOptions{}, &rng);
  EXPECT_GT(tree.PredictProba({2.0}), 0.9);
  EXPECT_LT(tree.PredictProba({3.0}), 0.1);
}

TEST(RandomForestTest, ImportanceRanksSignalFirst) {
  Rng rng(2);
  FeatureMatrix data = MakeSyntheticData(800, &rng);
  RandomForest forest;
  ForestOptions options;
  options.num_trees = 15;
  forest.Train(data, options, &rng);
  const auto& imp = forest.importances();
  ASSERT_EQ(imp.size(), 3u);
  EXPECT_GT(imp[0], imp[1]);
  EXPECT_GT(imp[0], imp[2]);
  EXPECT_GT(imp[0], 0.5);  // normalized, signal dominates
  double total = imp[0] + imp[1] + imp[2];
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(RandomForestTest, PredictionBetterThanChance) {
  Rng rng(3);
  FeatureMatrix data = MakeSyntheticData(800, &rng);
  RandomForest forest;
  forest.Train(data, ForestOptions{}, &rng);
  int correct = 0;
  Rng test_rng(99);
  for (int i = 0; i < 300; ++i) {
    double x0 = test_rng.UniformDouble();
    double p = forest.PredictProba({x0, test_rng.UniformDouble(), 1.0});
    if ((p > 0.5) == (x0 > 0.5)) ++correct;
  }
  EXPECT_GT(correct, 255);
}

TEST(DecisionTreeTest, ZeroCandidatesActsAsOne) {
  Rng rng(4);
  FeatureMatrix data = MakeSyntheticData(300, &rng);
  std::vector<int> rows(data.num_rows());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<int>(i);
  TreeOptions zero, one;
  zero.max_candidates = 0;
  one.max_candidates = 1;
  DecisionTree tree_zero, tree_one;
  Rng rng_zero(9), rng_one(9);
  tree_zero.Train(data, rows, zero, &rng_zero);
  tree_one.Train(data, rows, one, &rng_one);
  EXPECT_EQ(tree_zero.num_nodes(), tree_one.num_nodes());
  EXPECT_GT(tree_one.num_nodes(), 1u);
  EXPECT_EQ(rng_zero.Next(), rng_one.Next());
}

TEST(RandomForestTest, EmptyDataSafe) {
  FeatureMatrix data;
  data.names = {"x"};
  data.is_categorical = {false};
  data.columns.resize(1);
  RandomForest forest;
  Rng rng(1);
  forest.Train(data, ForestOptions{}, &rng);
  EXPECT_DOUBLE_EQ(forest.PredictProba({0.0}), 0.5);
}

TEST(CorrelationTest, PearsonPerfectAndNone) {
  std::vector<double> x = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<double> y = {2, 4, 6, 8, 10, 12, 14, 16};
  EXPECT_NEAR(PearsonAbs(x, y), 1.0, 1e-9);
  std::vector<double> neg = {8, 7, 6, 5, 4, 3, 2, 1};
  EXPECT_NEAR(PearsonAbs(x, neg), 1.0, 1e-9);  // absolute value
  std::vector<double> konst(8, 3.0);
  EXPECT_DOUBLE_EQ(PearsonAbs(x, konst), 0.0);
}

TEST(CorrelationTest, PearsonSkipsNans) {
  std::vector<double> x = {1, 2, std::nan(""), 4};
  std::vector<double> y = {2, 4, 5, 8};
  EXPECT_NEAR(PearsonAbs(x, y), 1.0, 1e-9);
}

TEST(CorrelationTest, CramersVIdenticalAndIndependent) {
  Rng rng(4);
  std::vector<double> x, same, indep;
  for (int i = 0; i < 600; ++i) {
    double v = static_cast<double>(rng.NextBounded(3));
    x.push_back(v);
    same.push_back(v);
    indep.push_back(static_cast<double>(rng.NextBounded(3)));
  }
  EXPECT_GT(CramersV(x, same), 0.95);
  EXPECT_LT(CramersV(x, indep), 0.15);
}

TEST(CorrelationTest, CorrelationRatioDetectsGroupedMeans) {
  Rng rng(6);
  std::vector<double> cat, val, noise_val;
  for (int i = 0; i < 600; ++i) {
    double c = static_cast<double>(rng.NextBounded(3));
    cat.push_back(c);
    val.push_back(c * 10 + rng.Normal(0, 0.5));
    noise_val.push_back(rng.Normal(0, 1.0));
  }
  EXPECT_GT(CorrelationRatio(cat, val), 0.95);
  EXPECT_LT(CorrelationRatio(cat, noise_val), 0.2);
}

// ---- Oracles: the per-candidate split scan and the std::map Cramer's V ----

uint64_t BitsOf(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double ReferenceGini(size_t n1, size_t n) {
  if (n == 0) return 0.0;
  double p = static_cast<double>(n1) / static_cast<double>(n);
  return 2.0 * p * (1.0 - p);
}

/// The decision tree as it was before split search moved onto encoded
/// pools: per node and feature, candidates deduplicated by a linear scan of
/// their bit patterns, and every row visiting every candidate's counters.
class ReferenceTree {
 public:
  void Train(const FeatureMatrix& data, const std::vector<int>& rows,
             const TreeOptions& options, Rng* rng,
             std::vector<double>* importance) {
    nodes_.clear();
    std::vector<int> working = rows;
    Build(data, working, 0, options, rng, importance, rows.size());
  }

  double PredictProba(const std::vector<double>& features) const {
    if (nodes_.empty()) return 0.5;
    int id = 0;
    while (!nodes_[id].leaf) {
      const Node& node = nodes_[id];
      double v = features[node.feature];
      bool left = node.categorical ? (v == node.threshold)
                                   : (!std::isnan(v) && v <= node.threshold);
      id = left ? node.left : node.right;
    }
    return nodes_[id].p1;
  }

  size_t num_nodes() const { return nodes_.size(); }

 private:
  struct Node {
    bool leaf = true;
    double p1 = 0.0;
    int feature = -1;
    bool categorical = false;
    double threshold = 0.0;
    int left = -1;
    int right = -1;
  };

  int Build(const FeatureMatrix& data, std::vector<int>& rows, int depth,
            const TreeOptions& options, Rng* rng,
            std::vector<double>* importance, size_t total_rows) {
    int node_id = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    size_t n = rows.size();
    size_t n1 = 0;
    for (int r : rows) n1 += data.labels[r];
    nodes_[node_id].p1 =
        n == 0 ? 0.0 : static_cast<double>(n1) / static_cast<double>(n);
    bool pure = (n1 == 0 || n1 == n);
    if (depth >= options.max_depth || n < options.min_samples_split || pure) {
      return node_id;
    }
    size_t p = data.num_features();
    std::vector<int> feats;
    if (options.features_per_split == 0 || options.features_per_split >= p) {
      for (size_t f = 0; f < p; ++f) feats.push_back(static_cast<int>(f));
    } else {
      for (size_t i : rng->SampleIndices(p, options.features_per_split)) {
        feats.push_back(static_cast<int>(i));
      }
    }
    double parent_gini = ReferenceGini(n1, n);
    double best_gain = 1e-9;
    int best_feature = -1;
    double best_threshold = 0.0;
    bool best_categorical = false;
    for (int f : feats) {
      const std::vector<double>& col = data.columns[f];
      bool cat = data.is_categorical[f];
      std::vector<double> candidates;
      std::vector<uint64_t> candidate_bits;
      size_t step = std::max<size_t>(1, n / (options.max_candidates * 4));
      for (size_t i = 0; i < n; i += step) {
        double v = col[rows[i]];
        if (std::isnan(v)) continue;
        uint64_t bits = BitsOf(v);
        if (std::find(candidate_bits.begin(), candidate_bits.end(), bits) ==
            candidate_bits.end()) {
          candidate_bits.push_back(bits);
          candidates.push_back(v);
        }
        if (candidates.size() >= options.max_candidates) break;
      }
      for (double c : candidates) {
        size_t ln = 0, ln1 = 0;
        for (int r : rows) {
          double v = col[r];
          if (cat ? v == c : v <= c) {  // NaN rows fall right
            ++ln;
            ln1 += data.labels[r];
          }
        }
        size_t rn = n - ln;
        if (ln < options.min_samples_leaf || rn < options.min_samples_leaf) {
          continue;
        }
        size_t rn1 = n1 - ln1;
        double child = (static_cast<double>(ln) * ReferenceGini(ln1, ln) +
                        static_cast<double>(rn) * ReferenceGini(rn1, rn)) /
                       static_cast<double>(n);
        double gain = parent_gini - child;
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = f;
          best_threshold = c;
          best_categorical = cat;
        }
      }
    }
    if (best_feature < 0) return node_id;
    if (importance != nullptr) {
      (*importance)[best_feature] +=
          best_gain * static_cast<double>(n) / static_cast<double>(total_rows);
    }
    std::vector<int> left_rows, right_rows;
    const std::vector<double>& col = data.columns[best_feature];
    for (int r : rows) {
      double v = col[r];
      bool left = best_categorical ? (v == best_threshold)
                                   : (!std::isnan(v) && v <= best_threshold);
      (left ? left_rows : right_rows).push_back(r);
    }
    int left_id = Build(data, left_rows, depth + 1, options, rng, importance,
                        total_rows);
    int right_id = Build(data, right_rows, depth + 1, options, rng,
                         importance, total_rows);
    nodes_[node_id].leaf = false;
    nodes_[node_id].feature = best_feature;
    nodes_[node_id].categorical = best_categorical;
    nodes_[node_id].threshold = best_threshold;
    nodes_[node_id].left = left_id;
    nodes_[node_id].right = right_id;
    return node_id;
  }

  std::vector<Node> nodes_;
};

/// RandomForest::Train over ReferenceTree: the same pool, bootstrap draws
/// and normalization.
struct ReferenceForest {
  std::vector<ReferenceTree> trees;
  std::vector<double> importances;

  void Train(const FeatureMatrix& data, const ForestOptions& options,
             Rng* rng) {
    importances.assign(data.num_features(), 0.0);
    TreeOptions tree_options = options.tree;
    if (tree_options.features_per_split == 0) {
      tree_options.features_per_split = static_cast<size_t>(
          std::ceil(std::sqrt(static_cast<double>(data.num_features()))));
    }
    std::vector<int> pool;
    if (data.num_rows() <= options.row_cap) {
      for (size_t i = 0; i < data.num_rows(); ++i) {
        pool.push_back(static_cast<int>(i));
      }
    } else {
      for (size_t i : rng->SampleIndices(data.num_rows(), options.row_cap)) {
        pool.push_back(static_cast<int>(i));
      }
    }
    if (pool.empty()) return;
    trees.resize(options.num_trees);
    for (auto& tree : trees) {
      std::vector<int> bootstrap(pool.size());
      for (size_t i = 0; i < pool.size(); ++i) {
        bootstrap[i] = pool[rng->NextBounded(pool.size())];
      }
      tree.Train(data, bootstrap, tree_options, rng, &importances);
    }
    double total = 0.0;
    for (double v : importances) total += v;
    if (total > 0) {
      for (double& v : importances) v /= total;
    }
  }

  double PredictProba(const std::vector<double>& features) const {
    if (trees.empty()) return 0.5;
    double sum = 0.0;
    for (const auto& tree : trees) sum += tree.PredictProba(features);
    return sum / static_cast<double>(trees.size());
  }
};

/// Cramer's V from three ordered maps, summed over the full sorted grid.
double ReferenceCramersV(const std::vector<double>& x,
                         const std::vector<double>& y) {
  std::map<std::pair<int64_t, int64_t>, double> joint;
  std::map<int64_t, double> mx, my;
  double n = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    if (std::isnan(x[i]) || std::isnan(y[i])) continue;
    auto a = static_cast<int64_t>(x[i]);
    auto b = static_cast<int64_t>(y[i]);
    joint[{a, b}] += 1;
    mx[a] += 1;
    my[b] += 1;
    n += 1;
  }
  if (n < 2 || mx.size() < 2 || my.size() < 2) {
    return (mx.size() <= 1 && my.size() <= 1) ? 1.0 : 0.0;
  }
  double chi2 = 0.0;
  for (const auto& [a, count_a] : mx) {
    for (const auto& [b, count_b] : my) {
      double expected = count_a * count_b / n;
      if (expected <= 0) continue;
      auto it = joint.find({a, b});
      double observed = it == joint.end() ? 0.0 : it->second;
      double d = observed - expected;
      chi2 += d * d / expected;
    }
  }
  double k = static_cast<double>(std::min(mx.size(), my.size()));
  return std::min(1.0, std::sqrt(chi2 / (n * (k - 1.0))));
}

/// The kinds of feature the oracle matrices mix.
enum class Kind {
  kUniform,       // numeric, continuous, 10% NaN
  kSpecial,       // numeric: -0.0, 0.0, +-inf and a few others, 10% NaN
  kSmallInts,     // numeric: 0..5, few distinct values
  kAllNaN,        // numeric, every value NaN
  kConstant,      // numeric, one value
  kFewCodes,      // categorical, 5 codes, 10% NaN
  kManyCodes,     // categorical, 40 codes (more than max_candidates)
  kWideCodes,     // categorical, 30 codes at and above 65,536
  kCatAllNaN,     // categorical, every value NaN
  kCatConstant,   // categorical, one code
  kNumKinds,
};

double DrawValue(Kind kind, Rng* rng) {
  static const double kSpecials[] = {
      -0.0, 0.0, std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(), -1.5, 2.25, 7.0};
  const double nan = std::nan("");
  const bool null = rng->Bernoulli(0.1);
  switch (kind) {
    case Kind::kUniform:
      return null ? nan : rng->Uniform(-3, 3);
    case Kind::kSpecial:
      return null ? nan : kSpecials[rng->NextBounded(7)];
    case Kind::kSmallInts:
      return static_cast<double>(rng->NextBounded(6));
    case Kind::kAllNaN:
    case Kind::kCatAllNaN:
      return nan;
    case Kind::kConstant:
      return 4.5;
    case Kind::kFewCodes:
      return null ? nan : static_cast<double>(rng->NextBounded(5));
    case Kind::kManyCodes:
      return static_cast<double>(rng->NextBounded(40));
    case Kind::kWideCodes:
      return null ? nan : 65536.0 + 4099.0 * static_cast<double>(
                                              rng->NextBounded(30));
    case Kind::kCatConstant:
      return 3.0;
    case Kind::kNumKinds:
      break;
  }
  return nan;
}

bool IsCategorical(Kind kind) { return kind >= Kind::kFewCodes; }

/// A random matrix of `rows` rows mixing every feature kind (each at least
/// once, then `extra` more at random), with labels that depend on two of
/// its features plus 10% noise, so the trees grow several levels deep.
FeatureMatrix OracleMatrix(size_t rows, size_t extra, Rng* rng) {
  std::vector<Kind> kinds;
  for (int k = 0; k < static_cast<int>(Kind::kNumKinds); ++k) {
    kinds.push_back(static_cast<Kind>(k));
  }
  for (size_t i = 0; i < extra; ++i) {
    kinds.push_back(static_cast<Kind>(
        rng->NextBounded(static_cast<uint64_t>(Kind::kNumKinds))));
  }
  rng->Shuffle(&kinds);
  FeatureMatrix m;
  m.columns.resize(kinds.size());
  for (size_t f = 0; f < kinds.size(); ++f) {
    m.names.push_back("f" + std::to_string(f));
    m.is_categorical.push_back(IsCategorical(kinds[f]));
    for (size_t r = 0; r < rows; ++r) {
      m.columns[f].push_back(DrawValue(kinds[f], rng));
    }
  }
  const auto signal = [&](Kind kind) {
    return static_cast<size_t>(std::find(kinds.begin(), kinds.end(), kind) -
                               kinds.begin());
  };
  const size_t a = signal(Kind::kUniform), b = signal(Kind::kFewCodes),
               c = signal(Kind::kSpecial);
  const double minus_inf = -std::numeric_limits<double>::infinity();
  for (size_t r = 0; r < rows; ++r) {
    const bool label = (m.columns[a][r] > 0.5) != (m.columns[b][r] == 2.0) ||
                       m.columns[c][r] == minus_inf;
    m.labels.push_back((label != rng->Bernoulli(0.1)) ? 1 : 0);
  }
  return m;
}

/// Every row of `data`, bit for bit, predicted alike by both models.
template <typename A, typename B>
void ExpectSamePredictions(const A& a, const B& b, const FeatureMatrix& data) {
  std::vector<double> row(data.num_features());
  for (size_t r = 0; r < data.num_rows(); ++r) {
    for (size_t f = 0; f < row.size(); ++f) row[f] = data.columns[f][r];
    ASSERT_EQ(BitsOf(a.PredictProba(row)), BitsOf(b.PredictProba(row)))
        << "row " << r;
  }
}

TEST(ForestOracleTest, ImportancesAndDrawsMatchPerCandidateScan) {
  // Pools above and below row_cap, shallow and unbounded depth, leaf sizes
  // 0..5 and candidate caps below and above the categorical cardinalities.
  Rng rng(2024);
  size_t splits = 0;
  for (int trial = 0; trial < 48; ++trial) {
    const size_t rows = 30 + rng.NextBounded(900);
    FeatureMatrix data = OracleMatrix(rows, rng.NextBounded(6), &rng);
    ForestOptions options;
    options.num_trees = 1 + static_cast<int>(rng.NextBounded(6));
    options.row_cap = rng.Bernoulli(0.5) ? 200 : 2000;
    TreeOptions& tree = options.tree;
    tree.max_depth = rng.Bernoulli(0.25) ? 1000 : 1 + rng.NextBounded(9);
    tree.min_samples_leaf = rng.NextBounded(6);
    tree.min_samples_split = 2 + rng.NextBounded(10);
    tree.max_candidates = rng.Bernoulli(0.5) ? 16 : 1 + rng.NextBounded(48);
    if (rng.Bernoulli(0.25)) tree.features_per_split = data.num_features();
    SCOPED_TRACE("trial " + std::to_string(trial) + ", " +
                 std::to_string(rows) + " rows");
    const uint64_t seed = rng.Next();
    Rng rng_new(seed), rng_ref(seed);
    RandomForest forest;
    forest.Train(data, options, &rng_new);
    ReferenceForest reference;
    reference.Train(data, options, &rng_ref);
    ASSERT_EQ(forest.importances().size(), reference.importances.size());
    for (size_t f = 0; f < reference.importances.size(); ++f) {
      EXPECT_EQ(BitsOf(forest.importances()[f]),
                BitsOf(reference.importances[f]))
          << "feature " << f;
      splits += reference.importances[f] > 0 ? 1 : 0;
    }
    EXPECT_EQ(rng_new.Next(), rng_ref.Next()) << "RNG draw sequences differ";
    ExpectSamePredictions(forest, reference, data);
  }
  EXPECT_GT(splits, 100u);  // the trees did split, on many features
}

TEST(ForestOracleTest, SingleTreeOnRepeatedRowsMatchesPerCandidateScan) {
  Rng rng(77);
  for (int trial = 0; trial < 24; ++trial) {
    FeatureMatrix data = OracleMatrix(60 + rng.NextBounded(400), 2, &rng);
    std::vector<int> rows;
    const size_t n = rng.NextBounded(500);
    for (size_t i = 0; i < n; ++i) {
      rows.push_back(static_cast<int>(rng.NextBounded(data.num_rows())));
    }
    TreeOptions options;
    options.max_depth = 1 + static_cast<int>(rng.NextBounded(12));
    options.min_samples_leaf = rng.NextBounded(4);
    options.features_per_split = rng.NextBounded(data.num_features() + 1);
    SCOPED_TRACE("trial " + std::to_string(trial));
    const uint64_t seed = rng.Next();
    Rng rng_new(seed), rng_ref(seed);
    std::vector<double> imp_new(data.num_features());
    std::vector<double> imp_ref(data.num_features());
    DecisionTree tree;
    tree.Train(data, rows, options, &rng_new, &imp_new);
    ReferenceTree reference;
    reference.Train(data, rows, options, &rng_ref, &imp_ref);
    EXPECT_EQ(tree.num_nodes(), reference.num_nodes());
    for (size_t f = 0; f < imp_ref.size(); ++f) {
      EXPECT_EQ(BitsOf(imp_new[f]), BitsOf(imp_ref[f])) << "feature " << f;
    }
    EXPECT_EQ(rng_new.Next(), rng_ref.Next());
    ExpectSamePredictions(tree, reference, data);
  }
}

TEST(CorrelationTest, CramersVMatchesOrderedMapsBitForBit) {
  Rng rng(31);
  const Kind kinds[] = {Kind::kFewCodes, Kind::kManyCodes, Kind::kWideCodes,
                        Kind::kCatAllNaN, Kind::kCatConstant, Kind::kSmallInts};
  size_t nonzero = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const size_t rows = rng.NextBounded(400);
    const Kind kx = kinds[rng.NextBounded(6)], ky = kinds[rng.NextBounded(6)];
    std::vector<double> x, y;
    for (size_t r = 0; r < rows; ++r) {
      x.push_back(DrawValue(kx, &rng));
      // Half the pairs are associated: y copies x's code most of the time.
      y.push_back(trial % 2 == 0 && rng.Bernoulli(0.7) ? x.back()
                                                       : DrawValue(ky, &rng));
    }
    const double want = ReferenceCramersV(x, y);
    EXPECT_EQ(BitsOf(CramersV(x, y)), BitsOf(want)) << "trial " << trial;
    nonzero += want > 0 && want < 1 ? 1 : 0;
  }
  EXPECT_GT(nonzero, 100u);
}

TEST(VarclusTest, ClustersCorrelatedAttributesWithRepresentative) {
  // f0 and f1 are near-duplicates (birth date vs. age); f2 independent.
  Rng rng(8);
  FeatureMatrix data;
  data.names = {"age", "birth", "other"};
  data.is_categorical = {false, false, false};
  data.columns.resize(3);
  for (int i = 0; i < 400; ++i) {
    double a = rng.Uniform(20, 80);
    data.columns[0].push_back(a);
    data.columns[1].push_back(2020 - a);
    data.columns[2].push_back(rng.Normal(0, 1));
    data.labels.push_back(0);
  }
  std::vector<double> relevance = {0.2, 0.7, 0.1};
  auto clustering = ClusterAttributes(data, relevance, 0.9);
  ASSERT_EQ(clustering.clusters.size(), 2u);
  // The age/birth cluster picks the higher-relevance member (birth = 1).
  bool found_pair = false;
  for (size_t c = 0; c < clustering.clusters.size(); ++c) {
    if (clustering.clusters[c].size() == 2) {
      found_pair = true;
      EXPECT_EQ(clustering.representatives[c], 1);
    }
  }
  EXPECT_TRUE(found_pair);
}

TEST(VarclusTest, NoCorrelationNoMerging) {
  Rng rng(9);
  FeatureMatrix data;
  data.names = {"a", "b", "c"};
  data.is_categorical = {false, false, false};
  data.columns.resize(3);
  for (int i = 0; i < 300; ++i) {
    for (int f = 0; f < 3; ++f) data.columns[f].push_back(rng.Normal(0, 1));
    data.labels.push_back(0);
  }
  auto clustering = ClusterAttributes(data, {1, 1, 1}, 0.9);
  EXPECT_EQ(clustering.clusters.size(), 3u);
}

}  // namespace
}  // namespace cajade
