#include "src/ml/random_forest.h"

#include <algorithm>
#include <cmath>

namespace cajade {

void RandomForest::Train(const FeatureMatrix& data, const ForestOptions& options,
                         Rng* rng) {
  trees_.clear();
  importances_.assign(data.num_features(), 0.0);

  TreeOptions tree_options = options.tree;
  if (tree_options.features_per_split == 0) {
    tree_options.features_per_split = static_cast<size_t>(
        std::ceil(std::sqrt(static_cast<double>(data.num_features()))));
  }

  // Bounded row pool; bootstrap samples are drawn from it.
  std::vector<int> pool;
  if (data.num_rows() <= options.row_cap) {
    pool.resize(data.num_rows());
    for (size_t i = 0; i < pool.size(); ++i) pool[i] = static_cast<int>(i);
  } else {
    for (size_t i : rng->SampleIndices(data.num_rows(), options.row_cap)) {
      pool.push_back(static_cast<int>(i));
    }
  }
  if (pool.empty()) return;

  // Encoded once; each tree trains on pool positions.
  TreeTrainer trainer(data, pool, tree_options);
  trees_.resize(static_cast<size_t>(std::max(options.num_trees, 0)));
  std::vector<uint32_t> bootstrap(pool.size());
  for (auto& tree : trees_) {
    for (uint32_t& position : bootstrap) {
      position = static_cast<uint32_t>(rng->NextBounded(pool.size()));
    }
    trainer.Train(bootstrap, rng, &importances_, &tree);
  }

  double total = 0.0;
  for (double v : importances_) total += v;
  if (total > 0) {
    for (double& v : importances_) v /= total;
  }
}

double RandomForest::PredictProba(const std::vector<double>& features) const {
  if (trees_.empty()) return 0.5;
  double sum = 0.0;
  for (const auto& tree : trees_) sum += tree.PredictProba(features);
  return sum / static_cast<double>(trees_.size());
}

}  // namespace cajade
