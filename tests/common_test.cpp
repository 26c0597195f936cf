#include <gtest/gtest.h>

#include "common/bitpack.h"
#include "common/random.h"
#include "common/serializer.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace poly {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kAborted), "Aborted");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnavailable), "Unavailable");
  EXPECT_STREQ(StatusCodeName(StatusCode::kIOError), "IOError");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> r = Status::InvalidArgument("bad");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseHalf(int x, int* out) {
  POLY_ASSIGN_OR_RETURN(*out, Half(x));
  return Status::OK();
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseHalf(10, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_FALSE(UseHalf(7, &out).ok());
}

TEST(RandomTest, Deterministic) {
  Random a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, UniformInRange) {
  Random r(1);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = r.Uniform(10);
    EXPECT_LT(v, 10u);
  }
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RandomTest, GaussianRoughlyCentered) {
  Random r(3);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.NextGaussian();
  EXPECT_NEAR(sum / n, 0.0, 0.05);
}

TEST(ZipfTest, SkewsTowardsSmallKeys) {
  ZipfGenerator zipf(1000, 0.99, 11);
  int head = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Next() < 10) ++head;
  }
  // With theta=0.99 the top-10 of 1000 keys should absorb a large share.
  EXPECT_GT(head, n / 10);
}

TEST(ZipfTest, StaysInRange) {
  ZipfGenerator zipf(50, 0.5, 2);
  for (int i = 0; i < 5000; ++i) EXPECT_LT(zipf.Next(), 50u);
}

TEST(BitPackTest, BitsFor) {
  EXPECT_EQ(BitsFor(0), 1);
  EXPECT_EQ(BitsFor(1), 1);
  EXPECT_EQ(BitsFor(2), 2);
  EXPECT_EQ(BitsFor(255), 8);
  EXPECT_EQ(BitsFor(256), 9);
  EXPECT_EQ(BitsFor(~0ULL), 64);
}

TEST(BitPackTest, AppendGetRoundTrip) {
  for (int bits : {1, 3, 7, 8, 13, 31, 33, 64}) {
    BitPackedVector v(bits);
    Random r(bits);
    std::vector<uint64_t> expect;
    uint64_t mask = bits == 64 ? ~0ULL : (1ULL << bits) - 1;
    for (int i = 0; i < 500; ++i) {
      uint64_t val = r.Next() & mask;
      v.Append(val);
      expect.push_back(val);
    }
    ASSERT_EQ(v.size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(v.Get(i), expect[i]) << "bits=" << bits << " i=" << i;
    }
  }
}

TEST(BitPackTest, SetOverwrites) {
  BitPackedVector v(5);
  for (uint64_t i = 0; i < 40; ++i) v.Append(i % 32);
  v.Set(7, 31);
  v.Set(8, 0);
  EXPECT_EQ(v.Get(7), 31u);
  EXPECT_EQ(v.Get(8), 0u);
  EXPECT_EQ(v.Get(6), 6u);
  EXPECT_EQ(v.Get(9), 9u);
}

TEST(BitPackTest, RepackPreservesValues) {
  BitPackedVector v(4);
  for (uint64_t i = 0; i < 16; ++i) v.Append(i);
  BitPackedVector w = v.Repack(9);
  ASSERT_EQ(w.size(), v.size());
  EXPECT_EQ(w.bits(), 9);
  for (size_t i = 0; i < v.size(); ++i) EXPECT_EQ(w.Get(i), v.Get(i));
}

TEST(BitPackTest, CompressionIsReal) {
  BitPackedVector v(3);
  for (uint64_t i = 0; i < 10000; ++i) v.Append(i % 8);
  // 10000 * 3 bits ~= 3750 bytes, far below 10000 * 8 bytes.
  EXPECT_LT(v.MemoryBytes(), 5000u);
}

TEST(SerializerTest, PrimitivesRoundTrip) {
  Serializer s;
  s.PutU8(7);
  s.PutU32(123456);
  s.PutU64(~0ULL - 3);
  s.PutI64(-9999);
  s.PutDouble(3.25);
  s.PutVarint(300);
  s.PutString("abc");
  Deserializer d(s.data());
  EXPECT_EQ(*d.GetU8(), 7);
  EXPECT_EQ(*d.GetU32(), 123456u);
  EXPECT_EQ(*d.GetU64(), ~0ULL - 3);
  EXPECT_EQ(*d.GetI64(), -9999);
  EXPECT_EQ(*d.GetDouble(), 3.25);
  EXPECT_EQ(*d.GetVarint(), 300u);
  EXPECT_EQ(*d.GetString(), "abc");
  EXPECT_TRUE(d.AtEnd());
}

TEST(SerializerTest, UnderflowIsCorruption) {
  Serializer s;
  s.PutU8(1);
  Deserializer d(s.data());
  EXPECT_TRUE(d.GetU8().ok());
  EXPECT_EQ(d.GetU64().status().code(), StatusCode::kCorruption);
}

TEST(SerializerTest, VarintBoundaries) {
  for (uint64_t v : {0ULL, 127ULL, 128ULL, 16383ULL, 16384ULL, ~0ULL}) {
    Serializer s;
    s.PutVarint(v);
    Deserializer d(s.data());
    EXPECT_EQ(*d.GetVarint(), v);
  }
}

TEST(StringUtilTest, Split) {
  auto parts = SplitString("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(StringUtilTest, JoinAndLowerAndTrim) {
  EXPECT_EQ(JoinStrings({"x", "y"}, "-"), "x-y");
  EXPECT_EQ(ToLower("HeLLo"), "hello");
  EXPECT_EQ(TrimWhitespace("  hi \t"), "hi");
}

TEST(StringUtilTest, LikeMatch) {
  EXPECT_TRUE(LikeMatch("hello world", "hello%"));
  EXPECT_TRUE(LikeMatch("hello world", "%world"));
  EXPECT_TRUE(LikeMatch("hello world", "%lo wo%"));
  EXPECT_TRUE(LikeMatch("cat", "c_t"));
  EXPECT_FALSE(LikeMatch("cat", "c_tt"));
  EXPECT_FALSE(LikeMatch("hello", "world%"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_TRUE(LikeMatch("anything", "%%"));
}

TEST(ThreadPoolTest, SubmitReturnsValues) {
  ThreadPool pool(4);
  auto f1 = pool.Submit([] { return 21 * 2; });
  auto f2 = pool.Submit([] { return std::string("ok"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "ok");
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmpty) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
}

}  // namespace
}  // namespace poly
