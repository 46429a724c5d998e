#include "src/ml/decision_tree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <numeric>

#include "src/ml/dense_ids.h"

namespace cajade {

namespace {

double Gini(size_t n1, size_t n) {
  if (n == 0) return 0.0;
  double p = static_cast<double>(n1) / static_cast<double>(n);
  return 2.0 * p * (1.0 - p);
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Index of the first of the ascending `sorted[0, k)` that `v` is <= to, or
/// k when there is none (NaN included): a branch-free lower bound.
size_t Bucket(const double* sorted, size_t k, double v) {
  const double* base = sorted;
  while (k > 1) {
    const size_t half = k / 2;
    base += (v <= base[half]) ? 0 : half;
    k -= half;
  }
  return static_cast<size_t>(base - sorted) + (v <= *base ? 0 : 1);
}

/// Adds a row of class `label` to a packed counter: rows in the low 32
/// bits, class-1 rows in the high 32.
uint64_t CountOf(uint8_t label) {
  return 1 + (static_cast<uint64_t>(label) << 32);
}

}  // namespace

void DecisionTree::Train(const FeatureMatrix& data, const std::vector<int>& rows,
                         const TreeOptions& options, Rng* rng,
                         std::vector<double>* importance) {
  TreeTrainer trainer(data, rows, options);
  std::vector<uint32_t> positions(rows.size());
  std::iota(positions.begin(), positions.end(), 0u);
  trainer.Train(positions, rng, importance, this);
}

double DecisionTree::PredictProba(const std::vector<double>& features) const {
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

TreeTrainer::TreeTrainer(const FeatureMatrix& data,
                         const std::vector<int>& pool,
                         const TreeOptions& options)
    : options_(options), width_(pool.size()) {
  // The candidate stride divides by max_candidates.
  options_.max_candidates = std::max<size_t>(options_.max_candidates, 1);
  labels_.resize(width_);
  for (size_t i = 0; i < width_; ++i) {
    labels_[i] = static_cast<uint8_t>(data.labels[pool[i]]);
  }
  size_t max_ids = 0;
  features_.resize(data.num_features());
  for (size_t f = 0; f < features_.size(); ++f) {
    Feature& feature = features_[f];
    const std::vector<double>& column = data.columns[f];
    feature.categorical = data.is_categorical[f];
    // Ids by bit pattern in order of first appearance; NaN takes the id
    // after the last.
    DenseIds ids(width_);
    feature.ids.resize(width_);
    for (size_t i = 0; i < width_; ++i) {
      const double v = column[pool[i]];
      feature.ids[i] = std::isnan(v) ? UINT32_MAX : ids.Id(Bits(v));
    }
    feature.distinct = static_cast<uint32_t>(ids.size());
    for (uint32_t& id : feature.ids) id = std::min(id, feature.distinct);
    feature.id_value.resize(ids.size());
    for (size_t id = 0; id < ids.size(); ++id) {
      std::memcpy(&feature.id_value[id], &ids.keys()[id], sizeof(double));
    }
    max_ids = std::max<size_t>(max_ids, feature.distinct + 1);
    if (!feature.categorical) {
      feature.values.resize(width_);
      for (size_t i = 0; i < width_; ++i) feature.values[i] = column[pool[i]];
    }
  }

  // A chosen split leaves at least max(min_samples_leaf, 1) rows on each
  // side (an empty side gains nothing, short of the 1e-9 threshold), so a
  // node at depth d holds at most width - d * leaf rows: depths past
  // width / leaf are never reached, however large max_depth is.
  const size_t leaf = std::max<size_t>(options_.min_samples_leaf, 1);
  const size_t max_depth = static_cast<size_t>(std::max(options_.max_depth, 0));
  levels_ = std::min(max_depth, width_ / leaf) + 1;
  rows_.resize(levels_ * width_);

  // Slot max_candidates collects every row whose id is not a candidate.
  const size_t k = options_.max_candidates;
  slot_.assign(max_ids, static_cast<uint32_t>(k));
  cand_id_.resize(k);
  order_.resize(k);
  sorted_.resize(k);
  hist_.resize(k + 1);
  value_.resize(k);
  left_.resize(k);
  left1_.resize(k);
}

void TreeTrainer::Train(const std::vector<uint32_t>& rows, Rng* rng,
                        std::vector<double>* importance, DecisionTree* tree) {
  assert(rows.size() <= width_);
  tree->nodes_.clear();
  tree_ = tree;
  rng_ = rng;
  importance_ = importance;
  total_rows_ = rows.size();
  std::copy(rows.begin(), rows.end(), Level(0));
  size_t n1 = 0;
  for (uint32_t r : rows) n1 += labels_[r];
  Build(0, 0, rows.size(), n1);
}

size_t TreeTrainer::Collect(const Feature& feature, const uint32_t* rows,
                            size_t n, size_t step) {
  const uint32_t* ids = feature.ids.data();
  uint32_t* slot = slot_.data();
  const uint32_t none = static_cast<uint32_t>(options_.max_candidates);
  size_t k = 0;
  for (size_t i = 0; i < n && k < feature.distinct; i += step) {
    const uint32_t id = ids[rows[i]];
    if (id == feature.distinct || slot[id] != none) continue;  // NaN or seen
    slot[id] = static_cast<uint32_t>(k);
    cand_id_[k] = id;
    value_[k] = feature.id_value[id];
    if (++k == options_.max_candidates) break;
  }
  return k;
}

void TreeTrainer::CountCategorical(const Feature& feature,
                                   const uint32_t* rows, size_t n, size_t k) {
  const uint32_t* ids = feature.ids.data();
  uint32_t* slot = slot_.data();
  const uint32_t none = static_cast<uint32_t>(options_.max_candidates);
  uint64_t* hist = hist_.data();
  std::fill(hist, hist + none + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = rows[i];
    hist[slot[ids[r]]] += CountOf(labels_[r]);
  }
  for (size_t j = 0; j < k; ++j) {
    left_[j] = static_cast<uint32_t>(hist[j]);
    left1_[j] = static_cast<uint32_t>(hist[j] >> 32);
  }
}

void TreeTrainer::CountNumeric(const Feature& feature, const uint32_t* rows,
                               size_t n, size_t k) {
  // Ascending by value (an insertion sort: k is small). -0.0 and 0.0 tie
  // in either order; neither order changes a prefix sum.
  for (size_t j = 0; j < k; ++j) {
    size_t at = j;
    for (; at > 0 && value_[order_[at - 1]] > value_[j]; --at) {
      order_[at] = order_[at - 1];
    }
    order_[at] = static_cast<uint32_t>(j);
  }
  for (size_t j = 0; j < k; ++j) sorted_[j] = value_[order_[j]];
  const double* values = feature.values.data();
  uint64_t* hist = hist_.data();
  std::fill(hist, hist + k + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = rows[i];
    hist[Bucket(sorted_.data(), k, values[r])] += CountOf(labels_[r]);
  }
  // Rows of bucket b are <= every candidate from sorted position b on.
  uint64_t sum = 0;
  for (size_t j = 0; j < k; ++j) {
    sum += hist[j];
    left_[order_[j]] = static_cast<uint32_t>(sum);
    left1_[order_[j]] = static_cast<uint32_t>(sum >> 32);
  }
}

int TreeTrainer::Build(int depth, size_t begin, size_t n, size_t n1) {
  std::vector<DecisionTree::Node>& nodes = tree_->nodes_;
  const int node_id = static_cast<int>(nodes.size());
  nodes.emplace_back();
  nodes[node_id].p1 =
      n == 0 ? 0.0 : static_cast<double>(n1) / static_cast<double>(n);

  const bool pure = (n1 == 0 || n1 == n);
  if (depth >= options_.max_depth || n < options_.min_samples_split || pure) {
    return node_id;
  }

  // Select feature subset (scratch-backed SampleIndicesInto: same draw
  // sequence as SampleIndices, no per-node allocation).
  const size_t p = features_.size();
  feats_.clear();
  if (options_.features_per_split == 0 || options_.features_per_split >= p) {
    for (size_t f = 0; f < p; ++f) feats_.push_back(static_cast<int>(f));
  } else {
    rng_->SampleIndicesInto(p, options_.features_per_split, &sample_idx_);
    for (size_t i : sample_idx_) feats_.push_back(static_cast<int>(i));
  }

  const uint32_t* rows = Level(depth) + begin;
  const size_t step = std::max<size_t>(1, n / (options_.max_candidates * 4));
  const uint32_t none = static_cast<uint32_t>(options_.max_candidates);
  const double parent_gini = Gini(n1, n);
  double best_gain = 1e-9;
  int best_feature = -1;
  double best_threshold = 0.0;
  uint32_t best_id = 0;  // the threshold's id
  size_t best_left = 0, best_left1 = 0;
  for (int f : feats_) {
    const Feature& feature = features_[f];
    const size_t k = Collect(feature, rows, n, step);
    if (feature.categorical) {
      CountCategorical(feature, rows, n, k);
    } else {
      CountNumeric(feature, rows, n, k);
    }
    for (size_t j = 0; j < k; ++j) slot_[cand_id_[j]] = none;
    for (size_t j = 0; j < k; ++j) {
      const size_t ln = left_[j];
      const size_t ln1 = left1_[j];
      const size_t rn = n - ln;
      if (ln < options_.min_samples_leaf || rn < options_.min_samples_leaf) {
        continue;
      }
      const size_t rn1 = n1 - ln1;
      const double child = (static_cast<double>(ln) * Gini(ln1, ln) +
                            static_cast<double>(rn) * Gini(rn1, rn)) /
                           static_cast<double>(n);
      const double gain = parent_gini - child;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = f;
        best_threshold = value_[j];
        best_id = cand_id_[j];
        best_left = ln;
        best_left1 = ln1;
      }
    }
  }

  if (best_feature < 0) return node_id;

  if (importance_ != nullptr) {
    (*importance_)[best_feature] += best_gain * static_cast<double>(n) /
                                    static_cast<double>(total_rows_);
  }

  // Stable partition into the next depth's slice at the same offsets: left
  // rows at [begin, begin + best_left), right rows after them. Each row is
  // written once, to a position picked without a branch.
  assert(static_cast<size_t>(depth) + 1 < levels_);
  uint32_t* out = Level(depth + 1) + begin;
  const Feature& feature = features_[best_feature];
  size_t li = 0;
  auto place = [&](size_t t, bool go_left) {
    out[go_left ? li : best_left + t - li] = rows[t];
    li += go_left ? 1 : 0;
  };
  if (feature.categorical) {
    const uint32_t* ids = feature.ids.data();
    for (size_t t = 0; t < n; ++t) place(t, ids[rows[t]] == best_id);
  } else {
    const double* values = feature.values.data();
    for (size_t t = 0; t < n; ++t) place(t, values[rows[t]] <= best_threshold);
  }

  const int left_id = Build(depth + 1, begin, best_left, best_left1);
  const int right_id =
      Build(depth + 1, begin + best_left, n - best_left, n1 - best_left1);
  DecisionTree::Node& node = nodes[node_id];
  node.leaf = false;
  node.feature = best_feature;
  node.categorical = feature.categorical;
  node.threshold = best_threshold;
  node.left = left_id;
  node.right = right_id;
  return node_id;
}

}  // namespace cajade
