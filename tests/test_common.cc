// Unit tests for src/common: types, dates, hashing, RNG, thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>

#include "common/hash.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/types.h"

namespace recycledb {
namespace {

TEST(TypesTest, TypeNames) {
  EXPECT_STREQ(TypeName(TypeId::kInt32), "INT32");
  EXPECT_STREQ(TypeName(TypeId::kString), "STRING");
  EXPECT_STREQ(TypeName(TypeId::kDate), "DATE");
}

TEST(TypesTest, IsNumeric) {
  EXPECT_TRUE(IsNumeric(TypeId::kInt32));
  EXPECT_TRUE(IsNumeric(TypeId::kInt64));
  EXPECT_TRUE(IsNumeric(TypeId::kDouble));
  EXPECT_TRUE(IsNumeric(TypeId::kDate));
  EXPECT_FALSE(IsNumeric(TypeId::kString));
  EXPECT_FALSE(IsNumeric(TypeId::kBool));
}

TEST(DatumTest, TypeMapping) {
  EXPECT_EQ(DatumType(Datum(true)), TypeId::kBool);
  EXPECT_EQ(DatumType(Datum(int32_t{4})), TypeId::kInt32);
  EXPECT_EQ(DatumType(Datum(int64_t{4})), TypeId::kInt64);
  EXPECT_EQ(DatumType(Datum(3.5)), TypeId::kDouble);
  EXPECT_EQ(DatumType(Datum(std::string("x"))), TypeId::kString);
}

TEST(DatumTest, ToStringStable) {
  EXPECT_EQ(DatumToString(Datum(int64_t{42})), "42");
  EXPECT_EQ(DatumToString(Datum(std::string("abc"))), "'abc'");
  EXPECT_EQ(DatumToString(Datum(true)), "true");
  EXPECT_EQ(DatumToString(Datum()), "NULL");
}

TEST(DatumTest, KeyStringIsBitExact) {
  // %.6g renders these alike; keys must not.
  EXPECT_EQ(DatumToString(Datum(228.241040)), DatumToString(Datum(228.2412)));
  EXPECT_NE(DatumToKeyString(Datum(228.241040)),
            DatumToKeyString(Datum(228.2412)));
  EXPECT_NE(DatumToKeyString(Datum(1.0)),
            DatumToKeyString(Datum(std::nextafter(1.0, 2.0))));
  // -0.0 == +0.0, but v * -0.0 and v * 0.0 differ in sign.
  EXPECT_NE(DatumToKeyString(Datum(-0.0)), DatumToKeyString(Datum(0.0)));
  // Inner quotes are doubled, so the closing quote is unambiguous.
  EXPECT_EQ(DatumToKeyString(Datum(std::string("abc"))), "'abc'");
  EXPECT_EQ(DatumToKeyString(Datum(std::string("a' 'b"))), "'a'' ''b'");
  // Every other alternative renders as for display.
  EXPECT_EQ(DatumToKeyString(Datum(int64_t{42})), "42");
}

TEST(DatumTest, CompareNumericCrossType) {
  EXPECT_EQ(DatumCompare(Datum(int32_t{3}), Datum(3.0)), 0);
  EXPECT_LT(DatumCompare(Datum(int32_t{2}), Datum(int64_t{3})), 0);
  EXPECT_GT(DatumCompare(Datum(4.5), Datum(int32_t{4})), 0);
}

TEST(DatumTest, CompareStrings) {
  EXPECT_LT(DatumCompare(Datum(std::string("apple")),
                         Datum(std::string("banana"))), 0);
  EXPECT_TRUE(DatumEquals(Datum(std::string("x")), Datum(std::string("x"))));
}

TEST(DateTest, EpochAnchors) {
  EXPECT_EQ(MakeDate(1970, 1, 1), 0);
  EXPECT_EQ(MakeDate(1970, 1, 2), 1);
  EXPECT_EQ(MakeDate(1969, 12, 31), -1);
}

TEST(DateTest, RoundTrip) {
  for (int y : {1992, 1995, 1998, 2000, 2024}) {
    for (int m : {1, 2, 6, 12}) {
      for (int d : {1, 15, 28}) {
        int32_t days = MakeDate(y, m, d);
        EXPECT_EQ(DateYear(days), y);
        EXPECT_EQ(DateMonth(days), m);
        char buf[16];
        std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", y, m, d);
        EXPECT_EQ(DateToString(days), buf);
        EXPECT_EQ(ParseDate(buf), days);
      }
    }
  }
}

TEST(DateTest, LeapYears) {
  EXPECT_EQ(MakeDate(1996, 3, 1) - MakeDate(1996, 2, 1), 29);  // leap
  EXPECT_EQ(MakeDate(1995, 3, 1) - MakeDate(1995, 2, 1), 28);
  EXPECT_EQ(MakeDate(2000, 3, 1) - MakeDate(2000, 2, 1), 29);  // 400-rule
  EXPECT_EQ(MakeDate(1900, 3, 1) - MakeDate(1900, 2, 1), 28);  // 100-rule
}

TEST(DateTest, TpchRangeMonotonic) {
  int32_t prev = MakeDate(1992, 1, 1);
  for (int y = 1992; y <= 1998; ++y) {
    for (int m = 1; m <= 12; ++m) {
      int32_t d = MakeDate(y, m, 1);
      EXPECT_GE(d, prev);
      prev = d;
    }
  }
}

TEST(HashTest, StableAcrossCalls) {
  EXPECT_EQ(HashString("lineitem"), HashString("lineitem"));
  EXPECT_NE(HashString("lineitem"), HashString("orders"));
}

TEST(HashTest, CombineOrderSensitive) {
  uint64_t a = HashString("a"), b = HashString("b");
  EXPECT_NE(HashCombine(a, b), HashCombine(b, a));
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformBounds) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Uniform(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::OK().ok());
  Status s = Status::NotFound("missing table");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: missing table");
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, WaitIdleThenReuse) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 1);
  pool.Submit([&count] { count.fetch_add(10); });
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 11);
}

}  // namespace
}  // namespace recycledb
