// Tests for the flat open-addressing join substrate: FlatMultiMap behavior,
// the typed key fast paths, exact numeric key semantics (the >2^53
// regression), null/empty/duplicate edge cases, and randomized differential
// equivalence against the reference implementation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/exec/flat_hash.h"
#include "src/exec/join.h"
#include "src/stats/table_stats.h"
#include "src/storage/table.h"
#include "tests/oracles/oracles.h"

namespace cajade {
namespace {

using Pairs = std::vector<std::pair<int64_t, int64_t>>;

std::vector<int64_t> AllRows(const Table& t) {
  std::vector<int64_t> rows(t.num_rows());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<int64_t>(i);
  return rows;
}

TEST(FlatMultiMapTest, InsertAndLookup) {
  FlatMultiMap map;
  map.Insert(SplitMix64(1), 10);
  map.Insert(SplitMix64(2), 20);
  map.Insert(SplitMix64(1), 11);
  map.Insert(SplitMix64(1), 12);
  EXPECT_EQ(map.size(), 4u);
  EXPECT_EQ(map.distinct_keys(), 2u);

  std::vector<int64_t> hits;
  map.ForEach(SplitMix64(1), [&](int64_t v) { hits.push_back(v); });
  // Duplicates come back in insertion order.
  EXPECT_EQ(hits, (std::vector<int64_t>{10, 11, 12}));

  hits.clear();
  map.ForEach(SplitMix64(3), [&](int64_t v) { hits.push_back(v); });
  EXPECT_TRUE(hits.empty());
}

TEST(FlatMultiMapTest, RehashPreservesChainsAndOrder) {
  FlatMultiMap map;  // no Reserve: forces several rehashes
  const int kKeys = 1000, kDups = 3;
  for (int d = 0; d < kDups; ++d) {
    for (int k = 0; k < kKeys; ++k) {
      map.Insert(SplitMix64(static_cast<uint64_t>(k)), k * 10 + d);
    }
  }
  EXPECT_EQ(map.size(), static_cast<size_t>(kKeys * kDups));
  EXPECT_EQ(map.distinct_keys(), static_cast<size_t>(kKeys));
  for (int k = 0; k < kKeys; ++k) {
    std::vector<int64_t> hits;
    map.ForEach(SplitMix64(static_cast<uint64_t>(k)),
                [&](int64_t v) { hits.push_back(v); });
    ASSERT_EQ(hits.size(), static_cast<size_t>(kDups)) << "key " << k;
    for (int d = 0; d < kDups; ++d) EXPECT_EQ(hits[d], k * 10 + d);
  }
}

TEST(HashJoinEdgeTest, NullKeysNeverMatch) {
  Table left("l", Schema({{"k", DataType::kInt64}}));
  left.AppendRow({Value(int64_t{1})});
  left.AppendRow({Value::Null()});
  left.AppendRow({Value(int64_t{2})});
  Table right("r", Schema({{"k", DataType::kInt64}}));
  right.AppendRow({Value::Null()});
  right.AppendRow({Value(int64_t{1})});
  right.AppendRow({Value::Null()});

  JoinKeySpec keys{{0}, {0}};
  Pairs pairs = HashEquiJoin(left, AllRows(left), right, AllRows(right), keys);
  EXPECT_EQ(pairs, (Pairs{{0, 1}}));  // null != null, null != 1

  // Same through the string fast path.
  Table ls("ls", Schema({{"s", DataType::kString}}));
  ls.AppendRow({Value("a")});
  ls.AppendRow({Value::Null()});
  Table rs("rs", Schema({{"s", DataType::kString}}));
  rs.AppendRow({Value::Null()});
  rs.AppendRow({Value("a")});
  pairs = HashEquiJoin(ls, AllRows(ls), rs, AllRows(rs), keys);
  EXPECT_EQ(pairs, (Pairs{{0, 1}}));
}

TEST(HashJoinEdgeTest, Int64KeysBeyond2Pow53StayDistinct) {
  // Regression: the seed hashed int64 keys through a double cast, so
  // 2^53 and 2^53 + 1 collided in hash AND compared equal via the widened
  // double equality. They are different keys and must not join.
  const int64_t base = int64_t{1} << 53;
  Table left("l", Schema({{"k", DataType::kInt64}}));
  left.AppendRow({Value(base)});
  left.AppendRow({Value(base + 1)});
  left.AppendRow({Value(base + 2)});
  Table right("r", Schema({{"k", DataType::kInt64}}));
  right.AppendRow({Value(base + 1)});
  right.AppendRow({Value(base)});

  JoinKeySpec keys{{0}, {0}};
  Pairs pairs = HashEquiJoin(left, AllRows(left), right, AllRows(right), keys);
  EXPECT_EQ(pairs, (Pairs{{0, 1}, {1, 0}}));  // exact matches only

  // The generic (multi-column) path must agree with the typed fast path.
  JoinKeySpec two{{0, 0}, {0, 0}};
  Pairs generic = HashEquiJoin(left, AllRows(left), right, AllRows(right), two);
  EXPECT_EQ(generic, pairs);
}

TEST(HashJoinEdgeTest, FullInt64RangeKeysDoNotOverflowDensePath) {
  // INT64_MIN and INT64_MAX on the build side make the key-range width wrap
  // to 0; the join must fall back to the hash path and still be correct.
  const int64_t lo = std::numeric_limits<int64_t>::min();
  const int64_t hi = std::numeric_limits<int64_t>::max();
  Table left("l", Schema({{"k", DataType::kInt64}}));
  left.AppendRow({Value(hi)});
  left.AppendRow({Value(int64_t{0})});
  left.AppendRow({Value(lo)});
  Table right("r", Schema({{"k", DataType::kInt64}}));
  right.AppendRow({Value(lo)});
  right.AppendRow({Value(hi)});

  JoinKeySpec keys{{0}, {0}};
  Pairs pairs = HashEquiJoin(left, AllRows(left), right, AllRows(right), keys);
  EXPECT_EQ(pairs, (Pairs{{0, 1}, {2, 0}}));
}

TEST(HashJoinEdgeTest, CrossTypeIntDoubleKeysCompareExactly) {
  Table left("l", Schema({{"k", DataType::kInt64}}));
  left.AppendRow({Value(int64_t{3})});
  left.AppendRow({Value(int64_t{4})});
  left.AppendRow({Value((int64_t{1} << 53) + 1)});
  Table right("r", Schema({{"k", DataType::kDouble}}));
  right.AppendRow({Value(3.0)});
  right.AppendRow({Value(3.5)});
  right.AppendRow({Value(9007199254740992.0)});  // 2^53

  JoinKeySpec keys{{0}, {0}};
  Pairs pairs = HashEquiJoin(left, AllRows(left), right, AllRows(right), keys);
  // 3 == 3.0; 4 matches nothing; 2^53+1 must NOT match the double 2^53
  // (the seed's widen-to-double compare said they were equal).
  EXPECT_EQ(pairs, (Pairs{{0, 0}}));
}

TEST(HashJoinEdgeTest, DuplicateHeavyBuildSide) {
  Table left("l", Schema({{"k", DataType::kInt64}}));
  left.AppendRow({Value(int64_t{7})});
  left.AppendRow({Value(int64_t{8})});
  Table right("r", Schema({{"k", DataType::kInt64}}));
  const int kDups = 100;
  for (int i = 0; i < kDups; ++i) right.AppendRow({Value(int64_t{7})});

  JoinKeySpec keys{{0}, {0}};
  Pairs pairs = HashEquiJoin(left, AllRows(left), right, AllRows(right), keys);
  ASSERT_EQ(pairs.size(), static_cast<size_t>(kDups));
  for (int i = 0; i < kDups; ++i) {
    EXPECT_EQ(pairs[i].first, 0);
    EXPECT_EQ(pairs[i].second, i);  // build-side order preserved
  }
}

TEST(HashJoinEdgeTest, EmptyInputs) {
  Table left("l", Schema({{"k", DataType::kInt64}}));
  left.AppendRow({Value(int64_t{1})});
  Table right("r", Schema({{"k", DataType::kInt64}}));
  right.AppendRow({Value(int64_t{1})});
  JoinKeySpec keys{{0}, {0}};

  EXPECT_TRUE(HashEquiJoin(left, {}, right, AllRows(right), keys).empty());
  EXPECT_TRUE(HashEquiJoin(left, AllRows(left), right, {}, keys).empty());

  Table empty_l("el", Schema({{"k", DataType::kInt64}}));
  Table empty_r("er", Schema({{"k", DataType::kInt64}}));
  EXPECT_TRUE(HashEquiJoin(empty_l, {}, empty_r, {}, keys).empty());
}

TEST(HashJoinEdgeTest, DictCodeFastPathBothRemapDirections) {
  // Probe (left) codes always remap into the build (right) code space.
  // First with the left dictionary smaller than the right one.
  Table small("small", Schema({{"s", DataType::kString}}));
  small.AppendRow({Value("b")});
  small.AppendRow({Value("z")});  // absent from the other side
  Table big("big", Schema({{"s", DataType::kString}}));
  for (const char* s : {"a", "b", "c", "d", "b"}) big.AppendRow({Value(s)});

  JoinKeySpec keys{{0}, {0}};
  Pairs pairs = HashEquiJoin(small, AllRows(small), big, AllRows(big), keys);
  EXPECT_EQ(pairs, (Pairs{{0, 1}, {0, 4}}));

  // Then with the right dictionary smaller than the left one.
  pairs = HashEquiJoin(big, AllRows(big), small, AllRows(small), keys);
  EXPECT_EQ(pairs, (Pairs{{1, 0}, {4, 0}}));
}

// ---- Randomized differential tests vs. the reference implementation ------

Table RandomIntTable(const char* name, size_t rows, int64_t key_mod, Rng* rng,
                     double null_rate) {
  Table t(name, Schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}}));
  for (size_t i = 0; i < rows; ++i) {
    if (rng->Bernoulli(null_rate)) {
      t.AppendRow({Value::Null(), Value(static_cast<int64_t>(i))});
    } else {
      t.AppendRow({Value(static_cast<int64_t>(rng->NextBounded(key_mod))),
                   Value(static_cast<int64_t>(i))});
    }
  }
  return t;
}

Table RandomStringTable(const char* name, size_t rows, int vocab, Rng* rng,
                        double null_rate) {
  Table t(name, Schema({{"s", DataType::kString}, {"k", DataType::kInt64}}));
  for (size_t i = 0; i < rows; ++i) {
    Value s = rng->Bernoulli(null_rate)
                  ? Value::Null()
                  : Value("w" + std::to_string(rng->NextBounded(vocab)));
    t.AppendRow({s, Value(static_cast<int64_t>(rng->NextBounded(8)))});
  }
  return t;
}

TEST(HashJoinDifferentialTest, Int64KeysMatchReferenceByteForByte) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    size_t n = 20 + rng.NextBounded(300);
    Table left = RandomIntTable("l", n, 1 + rng.NextBounded(40), &rng, 0.1);
    Table right = RandomIntTable("r", n, 1 + rng.NextBounded(40), &rng, 0.1);
    JoinKeySpec keys{{0}, {0}};
    Pairs fast = HashEquiJoin(left, AllRows(left), right, AllRows(right), keys);
    Pairs ref =
        ReferenceHashEquiJoin(left, AllRows(left), right, AllRows(right), keys);
    ASSERT_EQ(fast, ref) << "trial " << trial;
  }
}

TEST(HashJoinDifferentialTest, StringKeysMatchReferenceByteForByte) {
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    size_t n = 20 + rng.NextBounded(300);
    Table left = RandomStringTable("l", n, 1 + rng.NextBounded(30), &rng, 0.1);
    Table right = RandomStringTable("r", n, 1 + rng.NextBounded(30), &rng, 0.1);
    JoinKeySpec keys{{0}, {0}};
    Pairs fast = HashEquiJoin(left, AllRows(left), right, AllRows(right), keys);
    Pairs ref =
        ReferenceHashEquiJoin(left, AllRows(left), right, AllRows(right), keys);
    ASSERT_EQ(fast, ref) << "trial " << trial;
  }
}

TEST(HashJoinDifferentialTest, MultiColumnKeysMatchReference) {
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    size_t n = 20 + rng.NextBounded(200);
    Table left = RandomStringTable("l", n, 6, &rng, 0.05);
    Table right = RandomStringTable("r", n, 6, &rng, 0.05);
    JoinKeySpec keys{{0, 1}, {0, 1}};  // string + int composite key
    Pairs fast = HashEquiJoin(left, AllRows(left), right, AllRows(right), keys);
    Pairs ref =
        ReferenceHashEquiJoin(left, AllRows(left), right, AllRows(right), keys);
    ASSERT_EQ(fast, ref) << "trial " << trial;
  }
}

TEST(HashJoinDifferentialTest, WideRangeKeysUseFlatTableAndMatchReference) {
  // Keys spread over the full int64 range defeat the dense counting layout,
  // exercising the FlatMultiMap fallback.
  Rng rng(15);
  for (int trial = 0; trial < 10; ++trial) {
    size_t n = 50 + rng.NextBounded(200);
    Table left("l", Schema({{"k", DataType::kInt64}}));
    Table right("r", Schema({{"k", DataType::kInt64}}));
    std::vector<int64_t> pool;
    for (int i = 0; i < 40; ++i) {
      pool.push_back(static_cast<int64_t>(rng.Next()));  // arbitrary 64-bit keys
    }
    for (size_t i = 0; i < n; ++i) {
      left.AppendRow({Value(pool[rng.NextBounded(pool.size())])});
      right.AppendRow({Value(pool[rng.NextBounded(pool.size())])});
    }
    JoinKeySpec keys{{0}, {0}};
    Pairs fast = HashEquiJoin(left, AllRows(left), right, AllRows(right), keys);
    Pairs ref =
        ReferenceHashEquiJoin(left, AllRows(left), right, AllRows(right), keys);
    ASSERT_EQ(fast, ref) << "trial " << trial;
    ASSERT_FALSE(fast.empty());  // shared pool guarantees overlaps
  }
}

TEST(HashJoinDifferentialTest, RowSubsetsMatchReference) {
  Rng rng(19);
  Table left = RandomIntTable("l", 200, 25, &rng, 0.1);
  Table right = RandomIntTable("r", 200, 25, &rng, 0.1);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<int64_t> lrows, rrows;
    for (int64_t r = 0; r < 200; ++r) {
      if (rng.Bernoulli(0.5)) lrows.push_back(r);
      if (rng.Bernoulli(0.5)) rrows.push_back(r);
    }
    rng.Shuffle(&lrows);  // probe order need not be sorted
    JoinKeySpec keys{{0}, {0}};
    Pairs fast = HashEquiJoin(left, lrows, right, rrows, keys);
    Pairs ref = ReferenceHashEquiJoin(left, lrows, right, rrows, keys);
    ASSERT_EQ(fast, ref) << "trial " << trial;
  }
}

// ---- JoinBuildIndex over a build-row subset -------------------------------

/// Probes an index over `subset` of `right` with `lrows` of `left` and
/// translates probe indexes to left rows: the shape of
/// ReferenceHashEquiJoin's output.
Pairs ProbeSubsetIndex(const Table& left, const std::vector<int64_t>& lrows,
                       const Table& right, const std::vector<int64_t>& subset,
                       const JoinKeySpec& keys, const TableStats* stats) {
  JoinBuildIndex index(right, keys.right_cols, stats, &subset);
  std::vector<ProbeKeyCol> probe;
  for (int c : keys.left_cols) probe.push_back({&left.column(c), &lrows});
  Pairs out;
  EXPECT_TRUE(index.Probe(probe, lrows.size(), /*max_matches=*/0, &out));
  for (auto& pair : out) pair.first = lrows[static_cast<size_t>(pair.first)];
  return out;
}

/// A cell for one key column of the subset-test tables, null 30% of the
/// time. `kind` picks the key family: small ints, wide 64-bit ints drawn
/// from a shared pool, strings, or doubles (integral half the time).
Value SubsetKeyCell(char kind, Rng* rng) {
  static const std::vector<int64_t> kWidePool = [] {
    Rng pool_rng(23);
    std::vector<int64_t> pool;
    for (int i = 0; i < 12; ++i) pool.push_back(static_cast<int64_t>(pool_rng.Next()));
    return pool;
  }();
  if (rng->Bernoulli(0.3)) return Value::Null();
  switch (kind) {
    case 'i':
      return Value(static_cast<int64_t>(rng->NextBounded(16)));
    case 'w':
      return Value(kWidePool[rng->NextBounded(kWidePool.size())]);
    case 's':
      return Value("w" + std::to_string(rng->NextBounded(10)));
    default:
      return rng->Bernoulli(0.5)
                 ? Value(static_cast<double>(rng->NextBounded(16)))
                 : Value(static_cast<double>(rng->NextBounded(16)) + 0.5);
  }
}

/// A table whose column i holds keys of family kinds[i].
Table SubsetTable(const char* name, const std::string& kinds, size_t rows,
                  Rng* rng) {
  std::vector<ColumnDef> defs;
  for (size_t i = 0; i < kinds.size(); ++i) {
    const DataType type = kinds[i] == 's'   ? DataType::kString
                          : kinds[i] == 'd' ? DataType::kDouble
                                            : DataType::kInt64;
    defs.push_back({"c" + std::to_string(i), type});
  }
  Table t(name, Schema(defs));
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    for (char kind : kinds) row.push_back(SubsetKeyCell(kind, rng));
    t.AppendRow(row);
  }
  return t;
}

/// The build subsets every layout is checked on.
std::vector<std::pair<std::string, std::vector<int64_t>>> BuildSubsets(
    const Table& right, int key_col, Rng* rng) {
  const Column& col = right.column(key_col);
  std::vector<int64_t> sparse, nulls, non_null, scrambled;
  for (size_t i = 0; i < right.num_rows(); ++i) {
    const auto r = static_cast<int64_t>(i);
    if (i % 7 == 3) sparse.push_back(r);
    if (col.IsNull(i)) {
      nulls.push_back(r);
    } else {
      non_null.push_back(r);
    }
    if (rng->Bernoulli(0.4)) scrambled.push_back(r);
  }
  // The middle half of the non-null rows by key value: a key range
  // narrower than the full table's (and its stats').
  std::stable_sort(non_null.begin(), non_null.end(), [&](int64_t a, int64_t b) {
    return col.GetValue(a) < col.GetValue(b);
  });
  std::vector<int64_t> narrow(non_null.begin() + non_null.size() / 4,
                              non_null.end() - non_null.size() / 4);
  std::sort(narrow.begin(), narrow.end());
  rng->Shuffle(&scrambled);
  for (size_t i = 0; i < scrambled.size(); i += 3) scrambled.push_back(scrambled[i]);
  return {{"empty", {}},
          {"sparse ascending", sparse},
          {"all-null keys", nulls},
          {"narrow key range", narrow},
          {"non-ascending with duplicates", scrambled}};
}

TEST(JoinBuildIndexSubsetTest, EveryLayoutMatchesReferenceOnSubsets) {
  // Where the probe table comes from: its own table, the build table
  // itself, a copy of the build table (one shared dictionary object), or a
  // copy that interned a new string afterwards (its own dictionary again).
  enum class Probe { kOwn, kSelf, kCopy, kCopyInterned };
  struct Case {
    const char* layout;
    std::string left_kinds, right_kinds;
    JoinKeySpec keys;
    Probe probe = Probe::kOwn;
  };
  const std::vector<Case> cases = {
      {"dense INT64", "i", "i", {{0}, {0}}},
      {"flat INT64, wide range", "w", "w", {{0}, {0}}},
      {"STRING, probe remapped into build", "s", "s", {{0}, {0}}},
      {"STRING, shared column", "s", "s", {{0}, {0}}, Probe::kSelf},
      {"packed two-column INT64", "ii", "ii", {{0, 1}, {0, 1}}},
      {"generic DOUBLE", "d", "d", {{0}, {0}}},
      {"INT64 build probed by DOUBLE", "d", "i", {{0}, {0}}},
      {"STRING, copy of the build table", "s", "s", {{0}, {0}}, Probe::kCopy},
      {"STRING, copy that interned a new string", "s", "s", {{0}, {0}},
       Probe::kCopyInterned},
  };
  Rng rng(29);
  for (const Case& c : cases) {
    const Table right = SubsetTable("r", c.right_kinds, 150, &rng);
    Table left_own = SubsetTable("l", c.left_kinds, 120, &rng);
    if (c.probe == Probe::kCopy || c.probe == Probe::kCopyInterned) {
      left_own = right;
      ASSERT_TRUE(left_own.column(0).SharesDictionaryWith(right.column(0)));
    }
    if (c.probe == Probe::kCopyInterned) {
      // Rows holding the new string can never match; the rest still must.
      for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(left_own.AppendRow({Value("new")}).ok());
      }
      ASSERT_FALSE(left_own.column(0).SharesDictionaryWith(right.column(0)));
    }
    const Table& left = c.probe == Probe::kSelf ? right : left_own;
    std::vector<int64_t> lrows = AllRows(left);
    rng.Shuffle(&lrows);
    lrows.push_back(lrows.front());  // a repeated probe row
    const TableStats stats = ComputeTableRanges(right);
    for (const auto& [subset_name, subset] :
         BuildSubsets(right, c.keys.right_cols[0], &rng)) {
      const Pairs want =
          ReferenceHashEquiJoin(left, lrows, right, subset, c.keys);
      for (const TableStats* s : {static_cast<const TableStats*>(nullptr), &stats}) {
        EXPECT_EQ(ProbeSubsetIndex(left, lrows, right, subset, c.keys, s), want)
            << c.layout << ", " << subset_name
            << (s != nullptr ? ", with stats" : ", without stats");
      }
      // The degenerate subsets match nothing; the others must match
      // something, or they would not exercise the layout.
      const bool degenerate = subset_name == "all-null keys" || subset_name == "empty";
      EXPECT_EQ(want.empty(), degenerate) << c.layout << ", " << subset_name;
    }
  }
}

}  // namespace
}  // namespace cajade
