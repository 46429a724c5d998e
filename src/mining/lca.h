// LCA pattern-candidate generation (paper Section 3.2, adapted from Gebaly
// et al.): meet every pair of tuples in a sample of the APT over the
// categorical attributes — attributes where the pair agrees keep an equality
// predicate, the rest become don't-cares. Frequently co-occurring constant
// combinations surface as high-count candidates.
//
// The pair meet runs over distinct sampled rows: the sample is grouped into
// distinct tuples of dictionary codes with their multiplicities, and each
// pair of distinct tuples (and each repeated tuple with itself) is met once
// for all the sample pairs it stands for. Meets are counted in one flat
// table keyed by signature, in the order the all-pairs loop would first
// meet them, so the candidates, their counts and their order equal those
// of meeting every sample pair; the work shrinks with the square of the
// share of repeated rows.
//
// Ownership and thread-safety: stateless free functions; inputs are borrowed
// read-only and results are fresh caller-owned values, so concurrent calls
// are safe.

#ifndef CAJADE_MINING_LCA_H_
#define CAJADE_MINING_LCA_H_

#include <vector>

#include "src/common/rng.h"
#include "src/mining/apt.h"
#include "src/mining/pattern.h"

namespace cajade {

/// A candidate with its pair-frequency in the sample.
struct LcaCandidate {
  Pattern pattern;
  int64_t pair_count = 0;
};

/// Generates distinct candidate patterns over `cat_cols` from a sample of
/// `sample_size` APT rows (pairs of identical rows yield the full-equality
/// meet; pairs agreeing nowhere are skipped). Candidates are returned in
/// descending pair_count order. Sampling is over global row ids and
/// dictionary codes compare across shards, so results are bit-identical at
/// any shard size.
std::vector<LcaCandidate> GenerateLcaCandidates(const ShardedApt& apt,
                                                const std::vector<int>& cat_cols,
                                                size_t sample_size, Rng* rng);

}  // namespace cajade

#endif  // CAJADE_MINING_LCA_H_
