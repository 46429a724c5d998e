// CART binary-classification decision tree with Gini impurity, supporting
// numeric threshold splits (x <= t) and categorical equality splits (x == v).
// Substrate for the random forest used in attribute relevance filtering
// (paper Section 3.1).
//
// Training runs on a TreeTrainer, which encodes its row pool once: labels
// as bytes, every feature's values as dense ids (distinct bit patterns
// numbered per feature), and numeric values also as doubles, all in pool
// order. A forest encodes its pool once and trains every tree on it. At
// each node, split search then costs, per feature:
//   - Candidates: the ids at a fixed stride through the node's rows, at most
//     max_candidates of them, deduplicated through an id -> slot table.
//     Collection stops once every id the feature holds has been found. Ids
//     are bit patterns, so -0.0 and 0.0 are two candidates.
//   - Counts: for a categorical feature, one pass sends each row through the
//     id -> slot table into its candidate's counter. For a numeric feature,
//     the candidates are sorted once, each row is bucketed by a branch-free
//     binary search, and prefix sums over the buckets give every
//     candidate's left-side counts. NaN lands past the last bucket, so it
//     falls right of every threshold.
// Children take their class-1 counts from the parent's winning split, and
// rows are partitioned with branch-free writes into one depth-major buffer
// sized once per trainer. The chosen splits, importances, and RNG draw
// sequence are those of the per-candidate row scan (tests/ml_test.cc keeps
// it as the oracle): the same candidates in the same order, the same exact
// integer counts, and the same strict-improvement tie-breaking.
//
// Ownership and thread-safety: a TreeTrainer copies what it needs of the
// feature matrix and owns its buffers; one trainer serves one thread.
// Training is deterministic in the supplied Rng; concurrent training runs
// need distinct trainers and Rng instances. Trained trees are immutable, so
// concurrent prediction is safe.

#ifndef CAJADE_ML_DECISION_TREE_H_
#define CAJADE_ML_DECISION_TREE_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/ml/feature_matrix.h"

namespace cajade {

/// Tree growth parameters.
struct TreeOptions {
  int max_depth = 8;
  size_t min_samples_split = 8;
  size_t min_samples_leaf = 3;
  /// Features considered per split; 0 = all, otherwise a random subset of
  /// this size (random forests pass ~sqrt(p)).
  size_t features_per_split = 0;
  /// Candidate thresholds/values examined per feature per split (0 acts
  /// as 1).
  size_t max_candidates = 16;
};

/// \brief A trained CART tree.
class DecisionTree {
 public:
  /// Trains on `rows` (indexes into `data`, repeats allowed). Importance
  /// (total weighted Gini decrease per feature) is accumulated into
  /// `importance` when non-null.
  void Train(const FeatureMatrix& data, const std::vector<int>& rows,
             const TreeOptions& options, Rng* rng,
             std::vector<double>* importance = nullptr);

  /// P(label=1) for a feature row vector.
  double PredictProba(const std::vector<double>& features) const;

  size_t num_nodes() const { return nodes_.size(); }

 private:
  friend class TreeTrainer;

  struct Node {
    bool leaf = true;
    double p1 = 0.0;          // leaf: probability of class 1
    int feature = -1;
    bool categorical = false;
    double threshold = 0.0;   // numeric: x <= threshold; categorical: x == threshold
    int left = -1;
    int right = -1;
  };

  std::vector<Node> nodes_;
};

/// \brief Trains trees on one row pool, encoded once.
class TreeTrainer {
 public:
  /// Encodes rows `pool` of `data` (repeats allowed; fewer than 2^32):
  /// pool position i holds data row pool[i]. Categorical features hold
  /// codes, NaN for null: two values may compare equal only when their bit
  /// patterns match (no -0.0 beside 0.0).
  TreeTrainer(const FeatureMatrix& data, const std::vector<int>& pool,
              const TreeOptions& options);

  /// Trains `tree` on pool positions `rows` (at most as many as the pool
  /// holds, repeats allowed), accumulating importance as DecisionTree::Train
  /// does.
  void Train(const std::vector<uint32_t>& rows, Rng* rng,
             std::vector<double>* importance, DecisionTree* tree);

 private:
  struct Feature {
    bool categorical = false;
    /// Id per pool position: distinct bit patterns numbered in order of
    /// first appearance, NaN numbered `distinct`.
    std::vector<uint32_t> ids;
    std::vector<double> id_value;  // the value of each id
    uint32_t distinct = 0;         // number of non-NaN ids
    std::vector<double> values;    // numeric: value per pool position
  };

  /// Grows the node whose rows sit at [begin, begin + n) of depth `depth`'s
  /// slice of the row buffer and whose class-1 count is n1; returns its id.
  int Build(int depth, size_t begin, size_t n, size_t n1);

  /// Collects the node's candidate splits on `feature`: the ids at stride
  /// `step` through `rows`, deduplicated through slot_ (each candidate's
  /// slot_ entry becomes its index), at most max_candidates and never more
  /// than the feature's distinct ids. Fills cand_id_ and value_; returns
  /// how many.
  size_t Collect(const Feature& feature, const uint32_t* rows, size_t n,
                 size_t step);
  /// Fill left_ and left1_ for the k collected candidates.
  void CountCategorical(const Feature& feature, const uint32_t* rows,
                        size_t n, size_t k);
  void CountNumeric(const Feature& feature, const uint32_t* rows, size_t n,
                    size_t k);

  uint32_t* Level(int depth) {
    return rows_.data() + static_cast<size_t>(depth) * width_;
  }

  TreeOptions options_;
  std::vector<uint8_t> labels_;   // per pool position
  std::vector<Feature> features_;
  size_t width_ = 0;              // rows per depth of the row buffer
  size_t levels_ = 0;             // depths the row buffer holds
  std::vector<uint32_t> rows_;    // depth d at [d * width_, (d + 1) * width_)

  // Per-node scratch, sized once.
  std::vector<size_t> sample_idx_;
  std::vector<int> feats_;
  std::vector<uint32_t> slot_;      // id -> candidate index, else none
  std::vector<uint32_t> cand_id_;   // per candidate: id
  std::vector<uint32_t> order_;     // numeric candidates, ascending
  std::vector<double> sorted_;      // their values, ascending
  std::vector<uint64_t> hist_;      // per slot/bucket: rows | class-1 << 32
  std::vector<double> value_;       // per candidate: threshold
  std::vector<uint32_t> left_;      // per candidate: rows on the left
  std::vector<uint32_t> left1_;     // per candidate: class-1 rows left

  // The tree being trained.
  DecisionTree* tree_ = nullptr;
  Rng* rng_ = nullptr;
  std::vector<double>* importance_ = nullptr;
  size_t total_rows_ = 0;
};

}  // namespace cajade

#endif  // CAJADE_ML_DECISION_TREE_H_
