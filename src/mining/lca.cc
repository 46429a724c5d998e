#include "src/mining/lca.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>

namespace cajade {

namespace {

/// Candidate key hash over the (col, code) signature; shared by both pair
/// loops so the map's insertion sequence — and therefore the pre-sort
/// candidate order — is identical between them.
struct SigHash {
  size_t operator()(const std::vector<int32_t>& v) const {
    size_t h = 0x3456;
    for (int32_t x : v) {
      h ^= static_cast<size_t>(x) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  }
};

using SigCounts = std::unordered_map<std::vector<int32_t>, int64_t, SigHash>;

/// Mask-native pair meet for k <= 64 categorical columns: per sampled row a
/// word whose bit c = column c is non-null. A pair's candidate columns are
/// one AND; the meet visits only those via ctz instead of scanning all k.
/// Produces the exact ++counts[sig] sequence of the scalar loop (same pair
/// order, same signatures), so the map iterates identically.
void CountPairMeetsMasked(const std::vector<std::vector<int32_t>>& codes,
                          size_t s, size_t k, SigCounts* counts) {
  std::vector<uint64_t> nonnull(s, 0);
  for (size_t c = 0; c < k; ++c) {
    for (size_t i = 0; i < s; ++i) {
      if (codes[c][i] >= 0) nonnull[i] |= uint64_t{1} << c;
    }
  }
  std::vector<int32_t> sig(k);
  for (size_t i = 0; i < s; ++i) {
    for (size_t j = i + 1; j < s; ++j) {
      uint64_t nn = nonnull[i] & nonnull[j];
      if (nn == 0) continue;
      std::fill(sig.begin(), sig.end(), -1);
      bool any = false;
      uint64_t w = nn;
      do {
        const unsigned c = static_cast<unsigned>(__builtin_ctzll(w));
        w &= w - 1;
        if (codes[c][i] == codes[c][j]) {
          sig[c] = codes[c][i];
          any = true;
        }
      } while (w != 0);
      if (!any) continue;
      ++(*counts)[sig];
    }
  }
}

/// Scalar fallback for k > 64 (wider than one mask word; in practice
/// lambda_#sel-attr keeps k far below this).
void CountPairMeetsScalar(const std::vector<std::vector<int32_t>>& codes,
                          size_t s, size_t k, SigCounts* counts) {
  std::vector<int32_t> sig(k);
  for (size_t i = 0; i < s; ++i) {
    for (size_t j = i + 1; j < s; ++j) {
      bool any = false;
      for (size_t c = 0; c < k; ++c) {
        int32_t a = codes[c][i];
        if (a >= 0 && a == codes[c][j]) {
          sig[c] = a;
          any = true;
        } else {
          sig[c] = -1;
        }
      }
      if (!any) continue;
      ++(*counts)[sig];
    }
  }
}

}  // namespace

std::vector<LcaCandidate> GenerateLcaCandidates(const ShardedApt& apt,
                                                const std::vector<int>& cat_cols,
                                                size_t sample_size, Rng* rng) {
  std::vector<LcaCandidate> out;
  if (cat_cols.empty() || apt.num_rows() == 0) return out;

  // Global row ids: the same draws, hitting the same logical rows, at any
  // shard size.
  std::vector<size_t> sample = rng->SampleIndices(apt.num_rows(), sample_size);
  std::vector<size_t> s_shard, s_local;
  LocateAptRows(apt, sample, &s_shard, &s_local);

  // Pre-extract the categorical codes of the sampled rows (column-major),
  // -1 for null. Codes compare across shards (the ShardedApt dictionary
  // invariant), so the meet never consults the tables again.
  const size_t s = sample.size();
  const size_t k = cat_cols.size();
  std::vector<std::vector<int32_t>> codes(k, std::vector<int32_t>(s));
  for (size_t c = 0; c < k; ++c) {
    for (size_t i = 0; i < s; ++i) {
      const Column& col = apt.shards[s_shard[i]].table.column(cat_cols[c]);
      codes[c][i] = col.IsNull(s_local[i]) ? -1 : col.GetCode(s_local[i]);
    }
  }

  // Meet of every pair; key candidates by their (col, code) signature.
  SigCounts counts;
  if (k <= 64) {
    CountPairMeetsMasked(codes, s, k, &counts);
  } else {
    CountPairMeetsScalar(codes, s, k, &counts);
  }

  out.reserve(counts.size());
  for (const auto& [signature, count] : counts) {
    LcaCandidate cand;
    cand.pair_count = count;
    for (size_t c = 0; c < k; ++c) {
      if (signature[c] < 0) continue;
      const Column& col = apt.schema_table().column(cat_cols[c]);
      cand.pattern.preds.push_back(PatternPredicate::Make(
          apt.schema_table(), cat_cols[c], PredOp::kEq,
          Value(col.DictEntry(signature[c]))));
    }
    out.push_back(std::move(cand));
  }
  std::sort(out.begin(), out.end(), [](const LcaCandidate& a, const LcaCandidate& b) {
    return a.pair_count > b.pair_count;
  });
  return out;
}

}  // namespace cajade
