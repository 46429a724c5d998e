// Tests for src/common: Status/Result, Value, Rng, string utilities, timers.

#include <gtest/gtest.h>

#include <set>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/string_util.h"
#include "src/common/timer.h"
#include "src/common/value.h"

namespace cajade {
namespace {

// Sink defeating optimization of timing loops.
double benchmark_sink_ = 0.0;

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad thing");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad thing");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::ParseError("x").code(), StatusCode::kParseError);
  EXPECT_EQ(Status::BindError("x").code(), StatusCode::kBindError);
  EXPECT_EQ(Status::ExecutionError("x").code(), StatusCode::kExecutionError);
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

Result<int> ReturnsValue() { return 42; }
Result<int> ReturnsError() { return Status::NotFound("nope"); }

Result<int> UsesAssignOrReturn(bool fail) {
  ASSIGN_OR_RETURN(int v, fail ? ReturnsError() : ReturnsValue());
  return v + 1;
}

TEST(ResultTest, ValuePath) {
  Result<int> r = ReturnsValue();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, ErrorPath) {
  Result<int> r = ReturnsError();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(UsesAssignOrReturn(false).ValueOrDie(), 43);
  EXPECT_FALSE(UsesAssignOrReturn(true).ok());
  EXPECT_EQ(UsesAssignOrReturn(true).status().code(), StatusCode::kNotFound);
}

TEST(ValueTest, NullBehaviour) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), DataType::kNull);
  EXPECT_EQ(v.ToString(), "NULL");
  EXPECT_EQ(v, Value::Null());
  EXPECT_LT(Value::Null(), Value(int64_t{0}));
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_EQ(Value(int64_t{3}), Value(3.0));
  EXPECT_LT(Value(int64_t{3}), Value(3.5));
  EXPECT_GT(Value(4.1), Value(int64_t{4}));
}

TEST(ValueTest, NumericCrossTypeHashConsistent) {
  EXPECT_EQ(Value(int64_t{3}).Hash(), Value(3.0).Hash());
}

TEST(ValueTest, StringCompare) {
  EXPECT_LT(Value("abc"), Value("abd"));
  EXPECT_EQ(Value("x"), Value(std::string("x")));
  // Strings order after numerics (stable arbitrary type ordering).
  EXPECT_LT(Value(int64_t{999}), Value("a"));
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value(int64_t{7}).ToString(), "7");
  EXPECT_EQ(Value(2.5).ToString(), "2.5");
  EXPECT_EQ(Value(2.0).ToString(), "2.0");
  EXPECT_EQ(Value("hi").ToString(), "hi");
}

TEST(RngTest, Deterministic) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformDoubleInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, NormalMoments) {
  Rng rng(11);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal(5.0, 2.0);
    sum += x;
    sq += x * x;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.25);
}

TEST(RngTest, SampleIndicesDistinctAndBounded) {
  Rng rng(3);
  auto idx = rng.SampleIndices(100, 30);
  EXPECT_EQ(idx.size(), 30u);
  std::set<size_t> s(idx.begin(), idx.end());
  EXPECT_EQ(s.size(), 30u);
  for (size_t i : idx) EXPECT_LT(i, 100u);
}

TEST(RngTest, SampleIndicesKLargerThanN) {
  Rng rng(3);
  auto idx = rng.SampleIndices(5, 10);
  EXPECT_EQ(idx.size(), 5u);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(9);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, CaseConversion) {
  EXPECT_EQ(ToLower("AbC1"), "abc1");
  EXPECT_EQ(ToUpper("aBc1"), "ABC1");
}

TEST(StringUtilTest, Format) {
  EXPECT_EQ(Format("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(Format("%.2f", 1.2345), "1.23");
}

TEST(TimerTest, MeasuresElapsed) {
  Timer t;
  double x = 0;
  for (int i = 0; i < 100000; ++i) x += i;
  benchmark_sink_ = x;
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
}

TEST(StepProfilerTest, AccumulatesSteps) {
  StepProfiler p;
  p.Add("a", 1.0);
  p.Add("a", 0.5);
  p.Add("b", 2.0);
  EXPECT_DOUBLE_EQ(p.Get("a"), 1.5);
  EXPECT_DOUBLE_EQ(p.Get("b"), 2.0);
  EXPECT_DOUBLE_EQ(p.Get("missing"), 0.0);
  EXPECT_DOUBLE_EQ(p.Total(), 3.5);
  p.Clear();
  EXPECT_DOUBLE_EQ(p.Total(), 0.0);
}

TEST(StepProfilerTest, ScopedStepCharges) {
  StepProfiler p;
  {
    ScopedStep step(&p, "scope");
    double x = 0;
    for (int i = 0; i < 1000; ++i) x += i;
    benchmark_sink_ = x;
  }
  EXPECT_GT(p.Get("scope"), 0.0);
  // Null profiler is a no-op.
  ScopedStep noop(nullptr, "x");
}

}  // namespace
}  // namespace cajade
