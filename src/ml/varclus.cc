#include "src/ml/varclus.h"

#include <numeric>

#include "src/ml/correlation.h"

namespace cajade {

namespace {

int Find(std::vector<int>& parent, int x) {
  while (parent[x] != x) {
    parent[x] = parent[parent[x]];
    x = parent[x];
  }
  return x;
}

void Union(std::vector<int>& parent, int a, int b) {
  parent[Find(parent, a)] = Find(parent, b);
}

}  // namespace

AttributeClustering ClusterAttributes(const FeatureMatrix& data,
                                      const std::vector<double>& relevance,
                                      double threshold) {
  const int p = static_cast<int>(data.num_features());
  std::vector<int> parent(p);
  std::iota(parent.begin(), parent.end(), 0);

  const Association association(data);
  for (int i = 0; i < p; ++i) {
    for (int j = i + 1; j < p; ++j) {
      if (Find(parent, i) == Find(parent, j)) continue;
      if (association(i, j) >= threshold) Union(parent, i, j);
    }
  }

  AttributeClustering out;
  std::vector<int> cluster_of(p, -1);
  for (int i = 0; i < p; ++i) {
    int root = Find(parent, i);
    if (cluster_of[root] < 0) {
      cluster_of[root] = static_cast<int>(out.clusters.size());
      out.clusters.emplace_back();
    }
    out.clusters[cluster_of[root]].push_back(i);
  }
  for (const auto& cluster : out.clusters) {
    int best = cluster.front();
    for (int f : cluster) {
      double rf = f < static_cast<int>(relevance.size()) ? relevance[f] : 0.0;
      double rb = best < static_cast<int>(relevance.size()) ? relevance[best] : 0.0;
      if (rf > rb) best = f;
    }
    out.representatives.push_back(best);
  }
  return out;
}

}  // namespace cajade
