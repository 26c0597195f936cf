#include <gtest/gtest.h>

#include <numeric>

#include "engines/planning/planning.h"
#include "storage/database.h"

namespace poly {
namespace {

TEST(DisaggregateTest, ProportionalSplit) {
  auto parts = Disaggregate(100, {1, 1, 2});
  ASSERT_TRUE(parts.ok());
  EXPECT_DOUBLE_EQ((*parts)[0], 25);
  EXPECT_DOUBLE_EQ((*parts)[1], 25);
  EXPECT_DOUBLE_EQ((*parts)[2], 50);
  EXPECT_FALSE(Disaggregate(100, {}).ok());
  EXPECT_FALSE(Disaggregate(100, {0, 0}).ok());
  EXPECT_FALSE(Disaggregate(100, {-1, 2}).ok());
}

TEST(DisaggregateTest, IntSplitSumsExactly) {
  auto parts = DisaggregateInt(100, {1, 1, 1});
  ASSERT_TRUE(parts.ok());
  EXPECT_EQ(std::accumulate(parts->begin(), parts->end(), int64_t{0}), 100);
  // 33/33/33 + one largest-remainder unit.
  std::vector<int64_t> sorted = *parts;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted[0], 33);
  EXPECT_EQ(sorted[2], 34);
}

TEST(DisaggregateTest, IntSplitPropertySweep) {
  // Exact-sum invariant across many weight shapes.
  for (int64_t total : {1, 7, 99, 1000, 12345}) {
    for (const auto& weights : std::vector<std::vector<double>>{
             {1, 2, 3}, {0.1, 0.9}, {5, 5, 5, 5, 5}, {1e-6, 1}, {3, 0, 7}}) {
      auto parts = DisaggregateInt(total, weights);
      ASSERT_TRUE(parts.ok());
      EXPECT_EQ(std::accumulate(parts->begin(), parts->end(), int64_t{0}), total)
          << "total=" << total;
      for (int64_t p : *parts) EXPECT_GE(p, 0);
    }
  }
}

class PlanningFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema s({ColumnDef("version", DataType::kInt64), ColumnDef("key", DataType::kInt64),
              ColumnDef("value", DataType::kDouble)});
    table_ = *db_.CreateTable("plan", s);
    auto txn = tm_.Begin();
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(tm_.Insert(txn.get(), table_,
                             {Value::Int(1), Value::Int(i), Value::Dbl(100.0 * (i + 1))})
                      .ok());
    }
    ASSERT_TRUE(tm_.Commit(txn.get()).ok());
  }

  PlanningEngine MakeEngine() {
    auto e = PlanningEngine::Create(&tm_, table_);
    EXPECT_TRUE(e.ok());
    return *std::move(e);
  }

  Database db_;
  TransactionManager tm_;
  ColumnTable* table_ = nullptr;
};

TEST_F(PlanningFixture, CopyVersionScales) {
  PlanningEngine engine = MakeEngine();
  auto copied = engine.CopyVersion(1, 2, 1.05);
  ASSERT_TRUE(copied.ok());
  EXPECT_EQ(*copied, 4u);
  EXPECT_EQ(engine.VersionRowCount(2), 4u);
  EXPECT_NEAR(*engine.VersionTotal(2), 1000.0 * 1.05, 1e-9);
  // Source untouched.
  EXPECT_NEAR(*engine.VersionTotal(1), 1000.0, 1e-9);
  EXPECT_EQ(engine.Versions(), (std::vector<int64_t>{1, 2}));
}

TEST_F(PlanningFixture, CopyVersionGuards) {
  PlanningEngine engine = MakeEngine();
  ASSERT_TRUE(engine.CopyVersion(1, 2).ok());
  EXPECT_EQ(engine.CopyVersion(1, 2).status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(engine.CopyVersion(9, 3).status().code(), StatusCode::kNotFound);
}

TEST_F(PlanningFixture, DisaggregatePreservesProportions) {
  PlanningEngine engine = MakeEngine();
  // Version 1 values are 100, 200, 300, 400 (total 1000); retarget to 2000.
  ASSERT_TRUE(engine.DisaggregateVersion(1, 2000).ok());
  EXPECT_NEAR(*engine.VersionTotal(1), 2000.0, 1e-9);
  ReadView now = tm_.AutoCommitView();
  std::map<int64_t, double> by_key;
  ColumnTable::ReadGuard g(table_);
  g.ScanVisible(now, [&](uint64_t r) {
    by_key[g.GetValue(r, 1).AsInt()] = g.GetValue(r, 2).AsDouble();
  });
  EXPECT_NEAR(by_key[0], 200.0, 1e-9);
  EXPECT_NEAR(by_key[3], 800.0, 1e-9);
}

TEST_F(PlanningFixture, SnapshotSemanticsViaMvcc) {
  PlanningEngine engine = MakeEngine();
  // A reader transaction opened before the disaggregation keeps the old plan.
  auto reader = tm_.Begin();
  ASSERT_TRUE(engine.DisaggregateVersion(1, 5000).ok());
  double old_total = 0;
  ColumnTable::ReadGuard g(table_);
  g.ScanVisible(reader->View(), [&](uint64_t r) {
    old_total += g.GetValue(r, 2).AsDouble();
  });
  EXPECT_NEAR(old_total, 1000.0, 1e-9);
  EXPECT_NEAR(*engine.VersionTotal(1), 5000.0, 1e-9);
  ASSERT_TRUE(tm_.Commit(reader.get()).ok());
}

TEST_F(PlanningFixture, CreateValidatesSchema) {
  Schema bad({ColumnDef("x", DataType::kInt64)});
  ColumnTable* t = *db_.CreateTable("bad", bad);
  EXPECT_FALSE(PlanningEngine::Create(&tm_, t).ok());
}

}  // namespace
}  // namespace poly
