#include "src/serve/result_cache.h"

#include <algorithm>

namespace cajade {

ResultCache::ResultPtr ResultCache::GetIfInputsCurrent(const std::string& key,
                                                       const Database& db) {
  return GetIfCurrent(key, [&db](const InputVersions& inputs) {
    return !inputs.empty() &&
           std::all_of(inputs.begin(), inputs.end(), [&db](const auto& in) {
             const Table* table = db.FindTable(in.first);
             return table != nullptr && table->content_version() == in.second;
           });
  });
}

size_t ResultCache::ApproxResultBytes(const ExplainResult& result) {
  size_t bytes = sizeof(ExplainResult) + result.query_result.ApproxBytes();
  for (const Explanation& e : result.explanations) {
    bytes += sizeof(Explanation) + e.join_graph.size() +
             e.join_conditions.size() + e.pattern.size() +
             e.primary_tuple.size();
  }
  bytes += result.t1_description.size() + result.t2_description.size();
  return bytes;
}

}  // namespace cajade
