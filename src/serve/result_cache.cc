#include "src/serve/result_cache.h"

namespace cajade {

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
