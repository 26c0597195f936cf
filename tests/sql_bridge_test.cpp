#include <gtest/gtest.h>

#include "soe/sql_bridge.h"

namespace poly {
namespace {

class SqlBridgeFixture : public ::testing::Test {
 protected:
  SqlBridgeFixture() : cluster_(MakeOptions()), bridge_(&cluster_) {
    Schema s({ColumnDef("sensor", DataType::kInt64),
              ColumnDef("site", DataType::kInt64),
              ColumnDef("value", DataType::kDouble)});
    (void)cluster_.CreateTable("readings", s, PartitionSpec::Hash("sensor", 6), 2);
    std::vector<Row> rows;
    for (int i = 0; i < 300; ++i) {
      rows.push_back({Value::Int(i % 30), Value::Int(i % 3), Value::Dbl(1.0 * i)});
    }
    (void)cluster_.CommitInserts("readings", rows);
  }

  static SoeCluster::Options MakeOptions() {
    SoeCluster::Options opts;
    opts.num_nodes = 3;
    return opts;
  }

  SoeCluster cluster_;
  SoeSqlBridge bridge_;
};

TEST_F(SqlBridgeFixture, GlobalAggregate) {
  auto rs = bridge_.Execute("SELECT COUNT(*) AS n, SUM(value) AS total FROM readings");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->num_rows(), 1u);
  EXPECT_EQ(rs->rows[0][0], Value::Int(300));
  EXPECT_DOUBLE_EQ(rs->rows[0][1].NumericValue(), 299.0 * 300 / 2);
}

TEST_F(SqlBridgeFixture, GroupByWithWhereOrderLimit) {
  auto rs = bridge_.Execute(
      "SELECT site, SUM(value) AS total FROM readings "
      "WHERE sensor < 10 GROUP BY site ORDER BY total DESC LIMIT 2");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->num_rows(), 2u);
  EXPECT_GE(rs->rows[0][1].NumericValue(), rs->rows[1][1].NumericValue());
  // Ground truth: rows with sensor < 10 are i%30 < 10.
  double per_site[3] = {0, 0, 0};
  for (int i = 0; i < 300; ++i) {
    if (i % 30 < 10) per_site[i % 3] += i;
  }
  std::sort(per_site, per_site + 3, std::greater<double>());
  EXPECT_DOUBLE_EQ(rs->rows[0][1].NumericValue(), per_site[0]);
  EXPECT_DOUBLE_EQ(rs->rows[1][1].NumericValue(), per_site[1]);
}

TEST_F(SqlBridgeFixture, PartitionedScanThroughSql) {
  auto rs = bridge_.Execute("SELECT * FROM readings WHERE sensor = 7");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->num_rows(), 10u);
  for (const auto& row : rs->rows) EXPECT_EQ(row[0], Value::Int(7));
}

TEST_F(SqlBridgeFixture, ProjectionOverScan) {
  auto rs = bridge_.Execute(
      "SELECT value * 2 AS doubled FROM readings WHERE sensor = 0 "
      "ORDER BY doubled LIMIT 3");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->num_rows(), 3u);
  EXPECT_EQ(rs->column_names[0], "doubled");
  EXPECT_DOUBLE_EQ(rs->rows[0][0].NumericValue(), 0.0);
  EXPECT_DOUBLE_EQ(rs->rows[1][0].NumericValue(), 60.0);  // i=30
}

TEST_F(SqlBridgeFixture, SurvivesNodeFailure) {
  ASSERT_TRUE(cluster_.KillNode(0).ok());
  auto rs = bridge_.Execute("SELECT COUNT(*) AS n FROM readings");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows[0][0], Value::Int(300));
}

TEST_F(SqlBridgeFixture, DistributedJoinViaGatherAndExecute) {
  Schema s({ColumnDef("site_id", DataType::kInt64),
            ColumnDef("city", DataType::kString)});
  (void)cluster_.CreateTable("sites", s, PartitionSpec::Hash("site_id", 2));
  (void)cluster_.CommitInserts(
      "sites", {{Value::Int(0), Value::Str("walldorf")},
                {Value::Int(1), Value::Str("dresden")},
                {Value::Int(2), Value::Str("seoul")}});
  auto rs = bridge_.Execute(
      "SELECT city, SUM(value) AS total FROM readings "
      "JOIN sites ON site = site_id WHERE sensor < 3 "
      "GROUP BY city ORDER BY city");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->num_rows(), 3u);
  EXPECT_EQ(rs->rows[0][0], Value::Str("dresden"));
  // Ground truth.
  double per_site[3] = {0, 0, 0};
  for (int i = 0; i < 300; ++i) {
    if (i % 30 < 3) per_site[i % 3] += i;
  }
  // dresden=site1, seoul=site2, walldorf=site0 (alphabetical order).
  EXPECT_DOUBLE_EQ(rs->rows[0][1].NumericValue(), per_site[1]);
  EXPECT_DOUBLE_EQ(rs->rows[1][1].NumericValue(), per_site[2]);
  EXPECT_DOUBLE_EQ(rs->rows[2][1].NumericValue(), per_site[0]);
}

TEST_F(SqlBridgeFixture, ErrorsSurface) {
  auto bad = bridge_.Execute("SELECT missing FROM readings");
  EXPECT_FALSE(bad.ok());
  auto ghost = bridge_.Execute("SELECT * FROM ghost");
  EXPECT_FALSE(ghost.ok());
}

}  // namespace
}  // namespace poly
