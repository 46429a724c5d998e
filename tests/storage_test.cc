// Tests for src/storage: columns (dictionary encoding, copy-on-write
// dictionary sharing, nulls, the Gather row copy), schemas (PK/FK, mining exclusion), tables,
// and the database catalog. The TSan CI job runs this binary, so the
// concurrent dictionary-sharing case doubles as a race detector.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "src/storage/database.h"

namespace cajade {
namespace {

TEST(ColumnTest, IntRoundTrip) {
  Column c(DataType::kInt64);
  c.AppendInt(5);
  c.AppendNull();
  c.AppendInt(-7);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c.GetInt(0), 5);
  EXPECT_TRUE(c.IsNull(1));
  EXPECT_EQ(c.GetValue(2), Value(int64_t{-7}));
  EXPECT_TRUE(c.GetValue(1).is_null());
}

TEST(ColumnTest, DoubleNumericAccess) {
  Column c(DataType::kDouble);
  c.AppendDouble(2.5);
  EXPECT_DOUBLE_EQ(c.GetNumeric(0), 2.5);
  Column i(DataType::kInt64);
  i.AppendInt(4);
  EXPECT_DOUBLE_EQ(i.GetNumeric(0), 4.0);
}

TEST(ColumnTest, StringDictionaryEncoding) {
  Column c(DataType::kString);
  c.AppendString("a");
  c.AppendString("b");
  c.AppendString("a");
  EXPECT_EQ(c.dict_size(), 2u);
  EXPECT_EQ(c.GetCode(0), c.GetCode(2));
  EXPECT_NE(c.GetCode(0), c.GetCode(1));
  EXPECT_EQ(c.GetString(2), "a");
  EXPECT_EQ(c.FindCode("b"), c.GetCode(1));
  EXPECT_EQ(c.FindCode("zzz"), -1);
}

Column StringColumn(const std::vector<std::string>& values) {
  Column c(DataType::kString);
  for (const auto& v : values) c.AppendString(v);
  return c;
}

TEST(ColumnTest, AdoptDictionarySharesCodes) {
  Column src = StringColumn({"x", "y", "z", "y"});
  Column dst(DataType::kString);
  dst.AdoptDictionary(src);
  dst.AppendCode(src.GetCode(1));
  EXPECT_EQ(dst.GetString(0), "y");
  ASSERT_EQ(dst.dict_size(), src.dict_size());
  for (size_t d = 0; d < src.dict_size(); ++d) {
    const auto code = static_cast<int32_t>(d);
    EXPECT_EQ(dst.DictEntry(code), src.DictEntry(code));
    // Shared, not copied: both read the one dictionary object.
    EXPECT_EQ(&dst.DictEntry(code), &src.DictEntry(code));
    EXPECT_EQ(dst.FindCode(src.DictEntry(code)), code);
  }
}

/// Everything a reader can observe of `c`'s dictionary.
std::vector<std::string> DictOf(const Column& c) {
  std::vector<std::string> out;
  for (size_t d = 0; d < c.dict_size(); ++d) {
    out.push_back(c.DictEntry(static_cast<int32_t>(d)));
  }
  return out;
}

/// `c` still reads exactly `dict`, by code and by string, and its cells
/// still render `cells`.
void ExpectReads(const Column& c, const std::vector<std::string>& dict,
                 const std::vector<std::string>& cells) {
  ASSERT_EQ(c.dict_size(), dict.size());
  for (size_t d = 0; d < dict.size(); ++d) {
    EXPECT_EQ(c.DictEntry(static_cast<int32_t>(d)), dict[d]);
    EXPECT_EQ(c.FindCode(dict[d]), static_cast<int32_t>(d));
  }
  EXPECT_EQ(c.FindCode("absent"), -1);
  ASSERT_EQ(c.size(), cells.size());
  for (size_t r = 0; r < cells.size(); ++r) EXPECT_EQ(c.GetString(r), cells[r]);
}

TEST(ColumnTest, InternIntoSourceLeavesAdopterUnchanged) {
  Column src = StringColumn({"x", "y"});
  Column dst(DataType::kString);
  dst.AdoptDictionary(src);
  dst.AppendCode(src.GetCode(1));
  src.AppendString("new");
  EXPECT_EQ(src.dict_size(), 3u);
  EXPECT_EQ(src.GetString(2), "new");
  ExpectReads(dst, {"x", "y"}, {"y"});
}

TEST(ColumnTest, InternIntoAdopterLeavesSourceUnchanged) {
  Column src = StringColumn({"x", "y"});
  Column dst(DataType::kString);
  dst.AdoptDictionary(src);
  EXPECT_EQ(dst.InternString("new"), 2);
  EXPECT_EQ(dst.FindCode("new"), 2);
  ExpectReads(src, {"x", "y"}, {"x", "y"});
  // Interning a string the shared dictionary already holds writes nothing.
  EXPECT_EQ(src.InternString("y"), 1);
  ExpectReads(src, {"x", "y"}, {"x", "y"});
}

TEST(ColumnTest, InternIntoCopyLeavesOriginalUnchanged) {
  Column original = StringColumn({"x", "y"});
  Column copy = original;
  copy.AppendString("new");
  ExpectReads(original, {"x", "y"}, {"x", "y"});
  EXPECT_EQ(DictOf(copy), (std::vector<std::string>{"x", "y", "new"}));

  // And the other way round, through copy assignment.
  Column assigned(DataType::kString);
  assigned = original;
  original.AppendString("new");
  ExpectReads(assigned, {"x", "y"}, {"x", "y"});
  EXPECT_EQ(original.GetString(2), "new");
}

TEST(TableTest, AppendToCopiedTableLeavesOriginalUnchanged) {
  Table original("t", Schema({{"a", DataType::kInt64}, {"s", DataType::kString}}));
  ASSERT_TRUE(original.AppendRow({Value(int64_t{1}), Value("x")}).ok());
  Table copy = original;
  ASSERT_TRUE(copy.AppendRow({Value(int64_t{2}), Value("new")}).ok());
  EXPECT_EQ(original.num_rows(), 1u);
  ExpectReads(original.column(1), {"x"}, {"x"});
  ExpectReads(copy.column(1), {"x", "new"}, {"x", "new"});

  ASSERT_TRUE(original.AppendRow({Value(int64_t{3}), Value("other")}).ok());
  ExpectReads(copy.column(1), {"x", "new"}, {"x", "new"});
  EXPECT_EQ(DictOf(original.column(1)),
            (std::vector<std::string>{"x", "other"}));
}

TEST(TableTest, ApproxBytesChargesSharedDictionaryToEveryHolder) {
  Table t("t", Schema({{"i", DataType::kInt64},
                       {"d", DataType::kDouble},
                       {"s", DataType::kString}}));
  ASSERT_TRUE(t.AppendRow({Value(int64_t{1}), Value(0.5), Value("alpha")}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Null(), Value(1.5), Value("beta")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(int64_t{3}), Value::Null(), Value("alpha")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(int64_t{4}), Value(2.5), Value::Null()}).ok());
  // 4 rows x (8 int + 8 double + 4 code + 3 null bytes) + "alpha" (5 + 48)
  // + "beta" (4 + 48).
  constexpr size_t kBytes = 197;
  EXPECT_EQ(t.ApproxBytes(), kBytes);
  // A copy and a table of adopting columns share the dictionary but are
  // still charged for it, so byte bounds stay upper bounds.
  Table copy = t;
  EXPECT_EQ(copy.ApproxBytes(), kBytes);
  Column adopter(DataType::kString);
  adopter.AdoptDictionary(t.column(2));
  adopter.AppendCode(t.column(2).GetCode(1));
  Table view("v", Schema({{"s", DataType::kString}}), {adopter}, 1);
  EXPECT_EQ(view.ApproxBytes(), 4u + 1u + (5 + 48) + (4 + 48));
}

TEST(ColumnTest, ConcurrentCopiesAndAdoptersWhileACopyInterns) {
  std::vector<std::string> values;
  for (int i = 0; i < 64; ++i) values.push_back("v" + std::to_string(i));
  const Column shared = StringColumn(values);
  Column own = shared;

  constexpr int kReaders = 4;
  constexpr int kIters = 200;
  std::vector<int> mismatches(kReaders, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        Column copy = shared;
        Column adopter(DataType::kString);
        adopter.AdoptDictionary(shared);
        const auto code = static_cast<int32_t>((i + t) % values.size());
        adopter.AppendCode(code);
        if (copy.dict_size() != values.size() ||
            copy.GetString(code) != values[code] ||
            adopter.GetString(0) != values[code] ||
            adopter.FindCode("w0") != -1) {
          ++mismatches[t];
        }
        // Each reader's private copy may intern too; only it sees the
        // new string.
        copy.AppendString("r" + std::to_string(t));
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < kIters; ++i) own.AppendString("w" + std::to_string(i));
  });
  for (auto& th : threads) th.join();

  for (int t = 0; t < kReaders; ++t) EXPECT_EQ(mismatches[t], 0) << t;
  ExpectReads(shared, values, values);
  EXPECT_EQ(own.dict_size(), values.size() + kIters);
  EXPECT_EQ(own.GetString(values.size() + kIters - 1),
            "w" + std::to_string(kIters - 1));
}

/// The per-cell row copy Column::Gather replaced: one type dispatch and
/// one append per cell, a STRING copy adopting the source's dictionary.
Column PerCellCopy(const Column& src, const std::vector<int64_t>& rows) {
  Column dst(src.type());
  if (src.type() == DataType::kString) dst.AdoptDictionary(src);
  for (int64_t r : rows) {
    if (src.IsNull(r)) {
      dst.AppendNull();
      continue;
    }
    switch (src.type()) {
      case DataType::kInt64:
        dst.AppendInt(src.GetInt(r));
        break;
      case DataType::kDouble:
        dst.AppendDouble(src.GetDouble(r));
        break;
      case DataType::kString:
        dst.AppendCode(src.GetCode(r));
        break;
      default:
        dst.AppendNull();
    }
  }
  return dst;
}

/// A 64-cell column of `type` in which every `null_every`-th cell is NULL
/// (0 = none); a kNull column is all NULL.
Column GatherSource(DataType type, int null_every) {
  Column c(type);
  for (int64_t i = 0; i < 64; ++i) {
    if (type == DataType::kNull || (null_every > 0 && i % null_every == 0)) {
      c.AppendNull();
    } else if (type == DataType::kInt64) {
      c.AppendInt(i * 7 - 100);
    } else if (type == DataType::kDouble) {
      c.AppendDouble(i == 5 ? -0.0 : i * 0.5 - 9.75);
    } else {
      c.AppendString("s" + std::to_string(i % 5));
    }
  }
  return c;
}

template <typename T>
bool SameBits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

TEST(ColumnTest, GatherMatchesPerCellCopy) {
  std::vector<int64_t> shuffled;
  for (int64_t i = 0; i < 200; ++i) shuffled.push_back((i * 37 + 11) % 64);
  const std::vector<std::vector<int64_t>> row_lists = {
      {},                        // empty
      {3, 3, 3, 0, 0},           // repeated
      {63, 40, 17, 2, 1, 0},     // descending
      shuffled,                  // non-ascending, with repeats
  };
  for (DataType type : {DataType::kInt64, DataType::kDouble, DataType::kString,
                        DataType::kNull}) {
    // NULL rates 0, 0.5 and 1 (a kNull column is all NULL at every rate).
    for (int null_every : {0, 2, 1}) {
      const Column src = GatherSource(type, null_every);
      for (const std::vector<int64_t>& rows : row_lists) {
        SCOPED_TRACE(testing::Message()
                     << DataTypeToString(type) << " null_every=" << null_every
                     << " rows=" << rows.size());
        const Column want = PerCellCopy(src, rows);
        const Column got = src.Gather(rows);
        EXPECT_EQ(got.type(), want.type());
        EXPECT_EQ(got.size(), rows.size());
        EXPECT_TRUE(SameBits(got.ints(), want.ints()));
        EXPECT_TRUE(SameBits(got.doubles(), want.doubles()));
        EXPECT_TRUE(SameBits(got.codes(), want.codes()));
        EXPECT_EQ(got.nulls(), want.nulls());
        EXPECT_EQ(got.null_count(), want.null_count());
        EXPECT_EQ(got.SharesDictionaryWith(src), want.SharesDictionaryWith(src));
        if (type == DataType::kString) {
          EXPECT_TRUE(got.SharesDictionaryWith(src));
        }
      }
    }
  }
}

TEST(ColumnTest, AppendValueTypeChecks) {
  Column c(DataType::kInt64);
  EXPECT_TRUE(c.AppendValue(Value(int64_t{1})).ok());
  EXPECT_TRUE(c.AppendValue(Value::Null()).ok());
  EXPECT_FALSE(c.AppendValue(Value("nope")).ok());
  Column s(DataType::kString);
  EXPECT_FALSE(s.AppendValue(Value(1.5)).ok());
  // Int accepted into double column (widening).
  Column d(DataType::kDouble);
  EXPECT_TRUE(d.AppendValue(Value(int64_t{3})).ok());
  EXPECT_DOUBLE_EQ(d.GetDouble(0), 3.0);
}

TEST(ColumnTest, AppendValueRejectsDoublesOutsideInt64Range) {
  Column c(DataType::kInt64);
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {std::nan(""), inf, -inf, 1e19, -1e19, 0x1p63}) {
    Status st = c.AppendValue(Value(bad));
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << bad;
  }
  EXPECT_EQ(c.size(), 0u);
  // In-range values keep truncating toward zero; -2^63 is representable.
  ASSERT_TRUE(c.AppendValue(Value(3.0)).ok());
  ASSERT_TRUE(c.AppendValue(Value(-0x1p63)).ok());
  ASSERT_TRUE(c.AppendValue(Value(-2.7)).ok());
  EXPECT_EQ(c.GetInt(0), 3);
  EXPECT_EQ(c.GetInt(1), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(c.GetInt(2), -2);
}

TEST(SchemaTest, DuplicateColumnRejected) {
  Schema s;
  EXPECT_TRUE(s.AddColumn("a", DataType::kInt64).ok());
  EXPECT_FALSE(s.AddColumn("a", DataType::kString).ok());
  EXPECT_EQ(s.FindColumn("a"), 0);
  EXPECT_EQ(s.FindColumn("b"), -1);
}

TEST(SchemaTest, PrimaryKeyAndForeignKeys) {
  Schema s({{"id", DataType::kInt64}, {"ref", DataType::kInt64}});
  s.SetPrimaryKey({"id"});
  s.AddForeignKey({{"ref"}, "other", {"id"}});
  EXPECT_EQ(s.primary_key().size(), 1u);
  ASSERT_EQ(s.foreign_keys().size(), 1u);
  EXPECT_EQ(s.foreign_keys()[0].ref_table, "other");
}

TEST(SchemaTest, MiningExclusionFlag) {
  Schema s({{"date", DataType::kInt64, true}, {"v", DataType::kDouble}});
  EXPECT_TRUE(s.column(0).mining_excluded);
  EXPECT_FALSE(s.column(1).mining_excluded);
  s.SetMiningExcluded({"v", "missing"});
  EXPECT_TRUE(s.column(1).mining_excluded);
}

TEST(TableTest, AppendRowAndAccess) {
  Table t("t", Schema({{"a", DataType::kInt64}, {"b", DataType::kString}}));
  ASSERT_TRUE(t.AppendRow({Value(int64_t{1}), Value("x")}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Null(), Value("y")}).ok());
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.GetValue(0, 1), Value("x"));
  EXPECT_TRUE(t.GetValue(1, 0).is_null());
  // Arity mismatch rejected.
  EXPECT_FALSE(t.AppendRow({Value(int64_t{1})}).ok());
}

TEST(TableTest, FindColumn) {
  Table t("t", Schema({{"a", DataType::kInt64}}));
  EXPECT_NE(t.FindColumn("a"), nullptr);
  EXPECT_EQ(t.FindColumn("zz"), nullptr);
}

TEST(TableTest, ToStringRendersAndTruncates) {
  Table t("t", Schema({{"a", DataType::kInt64}}));
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(int64_t{i})}).ok());
  }
  std::string s = t.ToString(5);
  EXPECT_NE(s.find("a"), std::string::npos);
  EXPECT_NE(s.find("more rows"), std::string::npos);
}

TEST(TableTest, TakeColumnsMovesData) {
  Table t("t", Schema({{"a", DataType::kInt64}}));
  ASSERT_TRUE(t.AppendRow({Value(int64_t{9})}).ok());
  auto cols = t.TakeColumns();
  ASSERT_EQ(cols.size(), 1u);
  EXPECT_EQ(cols[0].GetInt(0), 9);
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST(DatabaseTest, CreateGetAndDuplicates) {
  Database db;
  auto t = db.CreateTable("t", Schema({{"a", DataType::kInt64}}));
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(db.HasTable("t"));
  EXPECT_FALSE(db.CreateTable("t", Schema()).ok());
  EXPECT_TRUE(db.GetTable("t").ok());
  EXPECT_FALSE(db.GetTable("missing").ok());
  EXPECT_EQ(db.num_tables(), 1u);
}

TEST(DatabaseTest, TableNamesSortedAndTotalRows) {
  Database db;
  auto b = db.CreateTable("b", Schema({{"x", DataType::kInt64}})).ValueOrDie();
  auto a = db.CreateTable("a", Schema({{"x", DataType::kInt64}})).ValueOrDie();
  ASSERT_TRUE(a->AppendRow({Value(int64_t{1})}).ok());
  ASSERT_TRUE(b->AppendRow({Value(int64_t{1})}).ok());
  ASSERT_TRUE(b->AppendRow({Value(int64_t{2})}).ok());
  auto names = db.table_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");
  EXPECT_EQ(db.TotalRows(), 3u);
}

}  // namespace
}  // namespace cajade
