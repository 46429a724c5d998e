#include "src/mining/lca.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <unordered_map>

#include "src/exec/flat_hash.h"

namespace cajade {

namespace {

/// Candidate key hash over the (col, code) signature. The output order
/// depends on it: candidates leave the std::unordered_map below in its
/// iteration order, and the pair-count sort does not order ties.
struct SigHash {
  size_t operator()(const std::vector<int32_t>& v) const {
    size_t h = 0x3456;
    for (int32_t x : v) {
      h ^= static_cast<size_t>(x) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  }
};

/// \brief Interns fixed-width tuples of k dictionary codes (-1 = NULL or
/// don't-care). Ids are dense and in first-insertion order; the tuples sit
/// in one arena, so interning allocates only when a buffer grows.
class CodeTupleSet {
 public:
  explicit CodeTupleSet(size_t k) : k_(k) {}

  /// Returns the id of `tuple` (k codes), adding it as id size() when new.
  size_t Intern(const int32_t* tuple, bool* inserted) {
    uint64_t h = 0;
    for (size_t c = 0; c < k_; ++c) {
      h = SplitMix64(h ^ static_cast<uint32_t>(tuple[c]));
    }
    int64_t found = -1;
    index_.ForEach(h, [&](int64_t id) {
      if (found < 0 &&
          std::memcmp(Get(static_cast<size_t>(id)), tuple,
                      k_ * sizeof(int32_t)) == 0) {
        found = id;
      }
    });
    *inserted = found < 0;
    if (found >= 0) return static_cast<size_t>(found);
    const size_t id = size_;
    index_.Insert(h, static_cast<int64_t>(id));
    arena_.insert(arena_.end(), tuple, tuple + k_);
    ++size_;
    return id;
  }

  size_t size() const { return size_; }
  const int32_t* Get(size_t id) const { return arena_.data() + id * k_; }

 private:
  size_t k_;
  size_t size_ = 0;
  std::vector<int32_t> arena_;
  FlatMultiMap index_;  // tuple hash -> id
};

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

  // Group the sampled rows by their categorical codes (-1 for NULL). Codes
  // compare across shards (the ShardedApt dictionary invariant), so the
  // meet never consults the tables again. Tuple ids follow the sample
  // position of their first row. Sample row i's codes are
  // tuple_codes[i * k, (i + 1) * k), read one column at a time from the
  // shards' code and null vectors.
  const size_t k = cat_cols.size();
  std::vector<int32_t> tuple_codes(sample.size() * k);
  std::vector<const Column*> shard_col(apt.shards.size());
  for (size_t c = 0; c < k; ++c) {
    for (size_t s = 0; s < apt.shards.size(); ++s) {
      shard_col[s] = &apt.shards[s].table.column(cat_cols[c]);
    }
    for (size_t i = 0; i < sample.size(); ++i) {
      const Column& col = *shard_col[s_shard[i]];
      const size_t r = s_local[i];
      tuple_codes[i * k + c] = col.nulls()[r] != 0 ? -1 : col.codes()[r];
    }
  }
  CodeTupleSet tuples(k);
  std::vector<int64_t> mult;
  std::vector<size_t> first, second;
  for (size_t i = 0; i < sample.size(); ++i) {
    bool inserted = false;
    const size_t t = tuples.Intern(tuple_codes.data() + i * k, &inserted);
    if (inserted) {
      mult.push_back(1);
      first.push_back(i);
      second.push_back(SIZE_MAX);
    } else if (++mult[t] == 2) {
      second[t] = i;
    }
  }

  // The candidates are the meets of every sample pair (i, j), i < j:
  // attributes where both rows hold the same non-NULL code keep it, the
  // rest become don't-cares (-1), and a meet with no kept attribute is
  // dropped. Distinct tuples a < b stand for their m_a * m_b sample pairs,
  // the first of which is (first[a], first[b]); a repeated tuple stands
  // for its m_a (m_a - 1) / 2 pairs with itself, the first of which is
  // (first[a], second[a]). Meeting a with itself just before the first b
  // with first[b] > second[a] visits tuple pairs in the order of their
  // first sample pairs, so signatures are interned in the order the
  // all-pairs loop first meets them.
  CodeTupleSet sigs(k);
  std::vector<int64_t> count;
  std::vector<int32_t> sig(k);
  auto meet = [&](size_t a, size_t b, int64_t pairs) {
    const int32_t* ta = tuples.Get(a);
    const int32_t* tb = tuples.Get(b);
    bool any = false;
    for (size_t c = 0; c < k; ++c) {
      sig[c] = ta[c] == tb[c] ? ta[c] : -1;
      any |= sig[c] >= 0;
    }
    if (!any) return;
    bool inserted = false;
    const size_t id = sigs.Intern(sig.data(), &inserted);
    if (inserted) {
      count.push_back(pairs);
    } else {
      count[id] += pairs;
    }
  };
  const size_t d = tuples.size();
  for (size_t a = 0; a < d; ++a) {
    bool self_pending = mult[a] >= 2;
    const int64_t self_pairs = mult[a] * (mult[a] - 1) / 2;
    for (size_t b = a + 1; b < d; ++b) {
      if (self_pending && second[a] < first[b]) {
        meet(a, a, self_pairs);
        self_pending = false;
      }
      meet(a, b, mult[a] * mult[b]);
    }
    if (self_pending) meet(a, a, self_pairs);
  }

  // A std::unordered_map's iteration order depends only on the order of
  // its first insertions, so inserting the signatures in first-meet order
  // yields the order a ++counts[sig] per sample pair would; the
  // pair-count sort below resolves ties from it.
  std::unordered_map<std::vector<int32_t>, int64_t, SigHash> counts;
  for (size_t id = 0; id < sigs.size(); ++id) {
    counts[std::vector<int32_t>(sigs.Get(id), sigs.Get(id) + k)] = count[id];
  }

  out.reserve(counts.size());
  for (const auto& [signature, n] : counts) {
    LcaCandidate cand;
    cand.pair_count = n;
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
