#include <gtest/gtest.h>

#include <cmath>

#include "engines/geo/geo.h"
#include "engines/geo/geo_index.h"
#include "storage/database.h"
#include "txn/transaction_manager.h"

namespace poly {
namespace {

TEST(GeoTest, HaversineKnownDistances) {
  GeoPointValue berlin{13.405, 52.52};
  GeoPointValue munich{11.582, 48.135};
  double d = HaversineMeters(berlin, munich);
  EXPECT_NEAR(d, 504000, 5000);  // ~504 km
  EXPECT_EQ(HaversineMeters(berlin, berlin), 0);
}

TEST(GeoTest, HaversineSymmetric) {
  GeoPointValue a{10, 50}, b{-70, -30};
  EXPECT_DOUBLE_EQ(HaversineMeters(a, b), HaversineMeters(b, a));
}

TEST(GeoTest, BBoxAroundCoversRadius) {
  GeoPointValue center{8.5, 49.3};
  GeoBBox box = BBoxAround(center, 10000);
  // Points just inside the radius are inside the box.
  GeoPointValue north{8.5, 49.3 + 0.089};  // ~9.9 km north
  EXPECT_TRUE(box.Contains(north));
  EXPECT_TRUE(box.Contains(center));
  GeoPointValue far{9.5, 49.3};
  EXPECT_FALSE(box.Contains(far));
}

TEST(GeoTest, PolygonContains) {
  GeoPolygon square({{0, 0}, {10, 0}, {10, 10}, {0, 10}});
  EXPECT_TRUE(square.Contains({5, 5}));
  EXPECT_TRUE(square.Contains({0.001, 0.001}));
  EXPECT_FALSE(square.Contains({15, 5}));
  EXPECT_FALSE(square.Contains({-1, 5}));
}

TEST(GeoTest, PolygonConcave) {
  // L-shape: the notch is outside.
  GeoPolygon ell({{0, 0}, {10, 0}, {10, 5}, {5, 5}, {5, 10}, {0, 10}});
  EXPECT_TRUE(ell.Contains({2, 8}));
  EXPECT_FALSE(ell.Contains({8, 8}));
}

TEST(GeoTest, AreaOfKnownSquare) {
  // 1x1 degree at the equator ~ 111.19 km per side.
  GeoPolygon square({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
  double side = kEarthRadiusMeters * M_PI / 180.0;
  EXPECT_NEAR(square.AreaSquareMeters(), side * side, side * side * 0.01);
  GeoPolygon degenerate({{0, 0}, {1, 1}});
  EXPECT_EQ(degenerate.AreaSquareMeters(), 0);
}

class GeoIndexFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema s({ColumnDef("id", DataType::kInt64),
              ColumnDef("location", DataType::kGeoPoint)});
    table_ = *db_.CreateTable("sites", s);
    auto txn = tm_.Begin();
    // Cluster around (8.5, 49.3) plus far-away outliers.
    for (int i = 0; i < 20; ++i) {
      double lon = 8.5 + (i % 5) * 0.01;  // ~0.7km steps
      double lat = 49.3 + (i / 5) * 0.01;
      ASSERT_TRUE(tm_.Insert(txn.get(), table_,
                             {Value::Int(i), Value::GeoPoint(lon, lat)}).ok());
    }
    ASSERT_TRUE(tm_.Insert(txn.get(), table_,
                           {Value::Int(100), Value::GeoPoint(100.0, 10.0)}).ok());
    ASSERT_TRUE(tm_.Commit(txn.get()).ok());
  }

  GeoIndex BuildIndex() {
    auto idx = GeoIndex::Build(*table_, tm_.AutoCommitView(), "location", 0.05);
    EXPECT_TRUE(idx.ok()) << idx.status().ToString();
    return *std::move(idx);
  }

  Database db_;
  TransactionManager tm_;
  ColumnTable* table_ = nullptr;
};

TEST_F(GeoIndexFixture, WithinDistanceMatchesBruteForce) {
  GeoIndex idx = BuildIndex();
  GeoPointValue center{8.52, 49.32};
  double radius = 2000;
  std::vector<uint64_t> expected;
  ReadView now = tm_.AutoCommitView();
  ColumnTable::ReadGuard g(table_);
  g.ScanVisible(now, [&](uint64_t r) {
    GeoPointValue p = g.GetValue(r, 1).AsGeoPoint();
    if (HaversineMeters(p, center) <= radius) expected.push_back(r);
  });
  EXPECT_EQ(idx.WithinDistance(center, radius), expected);
  EXPECT_FALSE(expected.empty());
}

TEST_F(GeoIndexFixture, WithinDistancePrunesCandidates) {
  GeoIndex idx = BuildIndex();
  idx.WithinDistance({8.52, 49.32}, 500);
  // The outlier at (100, 10) must not even be a candidate.
  EXPECT_LT(idx.last_candidates(), idx.num_points());
}

TEST_F(GeoIndexFixture, ContainedInPolygon) {
  GeoIndex idx = BuildIndex();
  GeoPolygon box({{8.495, 49.295}, {8.525, 49.295}, {8.525, 49.315}, {8.495, 49.315}});
  auto rows = idx.ContainedIn(box);
  EXPECT_FALSE(rows.empty());
  ColumnTable::ReadGuard g(table_);
  for (uint64_t r : rows) {
    EXPECT_TRUE(box.Contains(g.GetValue(r, 1).AsGeoPoint()));
  }
}

TEST_F(GeoIndexFixture, NearestFindsClosest) {
  GeoIndex idx = BuildIndex();
  auto nearest = idx.Nearest({8.5005, 49.3005});
  ASSERT_TRUE(nearest.ok());
  ColumnTable::ReadGuard g(table_);
  EXPECT_EQ(g.GetValue(*nearest, 0), Value::Int(0));
  auto far = idx.Nearest({100.01, 10.01});
  ASSERT_TRUE(far.ok());
  EXPECT_EQ(g.GetValue(*far, 0), Value::Int(100));
}

TEST_F(GeoIndexFixture, KNearestOrderedByDistance) {
  GeoIndex idx = BuildIndex();
  GeoPointValue probe{8.5001, 49.3001};
  auto knn = idx.KNearest(probe, 4);
  ASSERT_EQ(knn.size(), 4u);
  double prev = -1;
  ColumnTable::ReadGuard g(table_);
  for (uint64_t r : knn) {
    double d = HaversineMeters(g.GetValue(r, 1).AsGeoPoint(), probe);
    EXPECT_GE(d, prev);
    prev = d;
  }
  EXPECT_EQ(g.GetValue(knn[0], 0), Value::Int(0));
  // k larger than the index returns everything.
  EXPECT_EQ(idx.KNearest(probe, 500).size(), idx.num_points());
  EXPECT_TRUE(idx.KNearest(probe, 0).empty());
}

TEST_F(GeoIndexFixture, RespectsVisibility) {
  auto txn = tm_.Begin();
  ASSERT_TRUE(tm_.Insert(txn.get(), table_,
                         {Value::Int(999), Value::GeoPoint(8.5, 49.3)}).ok());
  GeoIndex idx = BuildIndex();  // built on committed snapshot
  auto rows = idx.WithinDistance({8.5, 49.3}, 100);
  ColumnTable::ReadGuard g(table_);
  for (uint64_t r : rows) EXPECT_NE(g.GetValue(r, 0), Value::Int(999));
  ASSERT_TRUE(tm_.Abort(txn.get()).ok());
}

TEST(GeoIndexTest, BuildRejectsWrongColumn) {
  Database db;
  Schema s({ColumnDef("id", DataType::kInt64)});
  ColumnTable* t = *db.CreateTable("t", s);
  EXPECT_FALSE(GeoIndex::Build(*t, LatestCommittedView(), "id").ok());
  EXPECT_FALSE(GeoIndex::Build(*t, LatestCommittedView(), "nope").ok());
}

TEST(GeoIndexTest, EmptyIndexNearestFails) {
  Database db;
  Schema s({ColumnDef("p", DataType::kGeoPoint)});
  ColumnTable* t = *db.CreateTable("t", s);
  auto idx = GeoIndex::Build(*t, LatestCommittedView(), "p");
  ASSERT_TRUE(idx.ok());
  EXPECT_FALSE(idx->Nearest({0, 0}).ok());
}

}  // namespace
}  // namespace poly
