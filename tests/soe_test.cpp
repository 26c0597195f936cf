#include <gtest/gtest.h>

#include "soe/cluster.h"
#include "soe_test_util.h"

namespace poly {
namespace {

// ---------- Shared log ----------

TEST(SharedLogTest, AppendReadTail) {
  SharedLog log;
  EXPECT_EQ(log.Tail(), 0u);
  EXPECT_EQ(*log.Append("a"), 0u);
  EXPECT_EQ(*log.Append("b"), 1u);
  EXPECT_EQ(log.Tail(), 2u);
  EXPECT_EQ(*log.Read(0), "a");
  EXPECT_EQ(*log.Read(1), "b");
  EXPECT_EQ(log.Read(5).status().code(), StatusCode::kOutOfRange);
  auto range = log.ReadRange(0, 2);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->size(), 2u);
}

TEST(SharedLogTest, ReplicationSurvivesUnitFailure) {
  SharedLog log(SharedLog::Options{3, 2});
  for (int i = 0; i < 30; ++i) ASSERT_TRUE(log.Append("rec" + std::to_string(i)).ok());
  ASSERT_TRUE(log.KillUnit(1).ok());
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(*log.Read(i), "rec" + std::to_string(i));
  }
  // Heal and survive a second failure.
  ASSERT_TRUE(log.ReReplicate().ok());
  ASSERT_TRUE(log.KillUnit(0).ok());
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(*log.Read(i), "rec" + std::to_string(i));
  }
}

TEST(SharedLogTest, UnreplicatedLogLosesDataOnFailure) {
  SharedLog log(SharedLog::Options{2, 1});
  ASSERT_TRUE(log.Append("x").ok());  // offset 0 -> unit 0
  ASSERT_TRUE(log.KillUnit(0).ok());
  EXPECT_TRUE(log.Read(0).status().IsUnavailable());
  EXPECT_TRUE(log.ReReplicate().IsUnavailable());
}

TEST(SharedLogTest, AppendsDistributeAcrossUnits) {
  SharedLog log(SharedLog::Options{4, 1});
  for (int i = 0; i < 40; ++i) ASSERT_TRUE(log.Append("r").ok());
  for (int u = 0; u < 4; ++u) EXPECT_EQ(log.records_stored(u), 10u);
}

TEST(LogRecordTest, EncodeDecodeRoundTrip) {
  SoeLogRecord rec;
  rec.writes.push_back({"orders", 3, {Value::Int(1), Value::Str("x")}});
  rec.writes.push_back({"items", 0, {Value::Dbl(2.5)}});
  auto decoded = SoeLogRecord::Decode(rec.Encode());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->writes.size(), 2u);
  EXPECT_EQ(decoded->writes[0].table, "orders");
  EXPECT_EQ(decoded->writes[0].partition, 3u);
  EXPECT_EQ(decoded->writes[0].row[1], Value::Str("x"));
  EXPECT_FALSE(SoeLogRecord::Decode("garbage that is way too short").ok());
}

// ---------- Partitioning ----------

TEST(PartitionTest, HashIsStableAndInRange) {
  PartitionSpec spec = PartitionSpec::Hash("k", 8);
  for (int i = 0; i < 100; ++i) {
    size_t p = PartitionOf(Value::Int(i), spec);
    EXPECT_LT(p, 8u);
    EXPECT_EQ(p, PartitionOf(Value::Int(i), spec));
  }
}

TEST(PartitionTest, RangeBoundaries) {
  PartitionSpec spec = PartitionSpec::Range("k", {Value::Int(10), Value::Int(20)});
  EXPECT_EQ(spec.num_partitions, 3u);
  EXPECT_EQ(PartitionOf(Value::Int(5), spec), 0u);
  EXPECT_EQ(PartitionOf(Value::Int(10), spec), 1u);  // bounds are inclusive-low
  EXPECT_EQ(PartitionOf(Value::Int(19), spec), 1u);
  EXPECT_EQ(PartitionOf(Value::Int(20), spec), 2u);
  EXPECT_EQ(PartitionOf(Value::Int(1000), spec), 2u);
}

// ---------- Services ----------

TEST(ServicesTest, DiscoveryAndAuth) {
  DiscoveryService disc;
  disc.RegisterNode(0);
  disc.RegisterNode(1);
  EXPECT_TRUE(disc.IsAlive(0));
  ASSERT_TRUE(disc.MarkDown(0).ok());
  EXPECT_FALSE(disc.IsAlive(0));
  EXPECT_EQ(disc.LiveNodes(), std::vector<int>{1});
  ASSERT_TRUE(disc.MarkUp(0).ok());
  EXPECT_EQ(disc.LiveNodes().size(), 2u);
  EXPECT_FALSE(disc.MarkDown(9).ok());

  disc.AddCredential("app", "secret");
  EXPECT_TRUE(disc.Authorize("app", "secret"));
  EXPECT_FALSE(disc.Authorize("app", "wrong"));
  EXPECT_FALSE(disc.Authorize("ghost", "secret"));
}

TEST(ServicesTest, StatisticsHotspot) {
  ClusterStatisticsService stats;
  stats.RecordQuery(0, 100, 5000);
  stats.RecordQuery(1, 900, 90000);
  stats.RecordApply(1, 10);
  EXPECT_EQ(stats.Stats(1).rows_scanned, 900u);
  EXPECT_EQ(stats.Stats(1).records_applied, 10u);
  EXPECT_EQ(stats.Hotspot(), 1);
}

// ---------- Cluster ----------

class SoeFixture : public ::testing::Test {
 protected:
  SoeFixture() : cluster_(MakeOptions()) {}

  static SoeCluster::Options MakeOptions() {
    SoeCluster::Options opts;
    opts.num_nodes = 4;
    opts.log_units = 3;
    opts.log_replication = 2;
    return opts;
  }

  Schema SensorSchema() {
    return Schema({ColumnDef("sensor", DataType::kInt64),
                   ColumnDef("value", DataType::kDouble)});
  }

  void LoadSensors(int n, int replication = 1) {
    ASSERT_TRUE(cluster_
                    .CreateTable("readings", SensorSchema(),
                                 PartitionSpec::Hash("sensor", 8), replication)
                    .ok());
    std::vector<Row> rows;
    for (int i = 0; i < n; ++i) {
      rows.push_back({Value::Int(i % 50), Value::Dbl(i * 1.0)});
    }
    ASSERT_TRUE(cluster_.CommitInserts("readings", rows).ok());
  }

  SoeCluster cluster_;
};

TEST_F(SoeFixture, InsertRoutesToPartitions) {
  LoadSensors(200);
  // Every row landed in exactly one partition; total across nodes == 200.
  uint64_t total = 0;
  for (size_t p = 0; p < 8; ++p) {
    auto info = cluster_.catalog().Lookup("readings");
    ASSERT_TRUE(info.ok());
    int owner = (*info)->placement[p][0];
    auto count = cluster_.node(owner)->PartitionRowCount("readings", p);
    ASSERT_TRUE(count.ok());
    total += *count;
  }
  EXPECT_EQ(total, 200u);
}

TEST_F(SoeFixture, PlannedAggregateMatchesGroundTruth) {
  LoadSensors(500);
  AggSpec cnt{AggFunc::kCount, nullptr, "cnt"};
  AggSpec sum{AggFunc::kSum, Expr::Column(1), "sum"};
  AggSpec avg{AggFunc::kAvg, Expr::Column(1), "avg"};
  auto rs = RunPlanned(&cluster_, AggregateOf("readings", {}, {cnt, sum, avg}));
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->num_rows(), 1u);
  EXPECT_EQ(rs->rows[0][0], Value::Int(500));
  double expect_sum = 499.0 * 500 / 2;
  EXPECT_DOUBLE_EQ(rs->rows[0][1].NumericValue(), expect_sum);
  EXPECT_DOUBLE_EQ(rs->rows[0][2].NumericValue(), expect_sum / 500);
  EXPECT_EQ(cluster_.last_query_stats().partitions, 8u);
}

TEST_F(SoeFixture, PlannedAggregateWithPredicateAndGroups) {
  LoadSensors(500);
  auto predicate =
      Expr::Compare(CmpOp::kLt, Expr::Column(0), Expr::Literal(Value::Int(10)));
  AggSpec cnt{AggFunc::kCount, nullptr, "cnt"};
  auto rs = RunPlanned(&cluster_, AggregateOf("readings", {0}, {cnt}, predicate));
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->num_rows(), 10u);  // sensors 0..9
  for (const auto& row : rs->rows) EXPECT_EQ(row[1], Value::Int(10));  // 500/50
}

TEST_F(SoeFixture, PlannedScanGathersEverything) {
  LoadSensors(100);
  auto rs = RunPlanned(&cluster_, ScanOf("readings"));
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->num_rows(), 100u);
  EXPECT_GT(cluster_.last_query_stats().result_bytes_gathered, 0u);
  EXPECT_GT(cluster_.network().messages(), 0u);
}

TEST_F(SoeFixture, ReplicatedTableSurvivesNodeFailure) {
  LoadSensors(300, /*replication=*/2);
  AggSpec cnt{AggFunc::kCount, nullptr, "cnt"};
  ASSERT_TRUE(cluster_.KillNode(0).ok());
  auto rs = RunPlanned(&cluster_, AggregateOf("readings", {}, {cnt}));
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows[0][0], Value::Int(300));
}

TEST_F(SoeFixture, UnreplicatedTableUnavailableAfterFailure) {
  LoadSensors(300, /*replication=*/1);
  ASSERT_TRUE(cluster_.KillNode(0).ok());
  AggSpec cnt{AggFunc::kCount, nullptr, "cnt"};
  auto rs = RunPlanned(&cluster_, AggregateOf("readings", {}, {cnt}));
  EXPECT_TRUE(rs.status().IsUnavailable());
}

TEST_F(SoeFixture, RebalanceRestoresReplication) {
  LoadSensors(300, /*replication=*/2);
  ASSERT_TRUE(cluster_.KillNode(0).ok());
  ASSERT_TRUE(cluster_.Rebalance().ok());
  // Now even killing another node keeps all partitions answerable.
  ASSERT_TRUE(cluster_.KillNode(1).ok());
  AggSpec cnt{AggFunc::kCount, nullptr, "cnt"};
  auto rs = RunPlanned(&cluster_, AggregateOf("readings", {}, {cnt}));
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows[0][0], Value::Int(300));
}

// Rebalance invariants: after a kill + rebalance, (a) every partition is
// back to full replica strength on live nodes, (b) every replica of a
// partition holds the same rows as it did before the failure, and (c) no
// row was lost or duplicated anywhere.
TEST_F(SoeFixture, RebalancePreservesPartitionInvariants) {
  LoadSensors(400, /*replication=*/2);
  auto info = cluster_.catalog().Lookup("readings");
  ASSERT_TRUE(info.ok());
  const size_t partitions = (*info)->spec.num_partitions;

  std::vector<uint64_t> pre_counts(partitions);
  uint64_t pre_total = 0;
  for (size_t p = 0; p < partitions; ++p) {
    pre_counts[p] =
        *cluster_.node((*info)->placement[p][0])->PartitionRowCount("readings", p);
    pre_total += pre_counts[p];
  }
  ASSERT_EQ(pre_total, 400u);

  ASSERT_TRUE(cluster_.KillNode(0).ok());
  ASSERT_TRUE(cluster_.Rebalance().ok());

  info = cluster_.catalog().Lookup("readings");
  ASSERT_TRUE(info.ok());
  uint64_t post_total = 0;
  for (size_t p = 0; p < partitions; ++p) {
    // (a) full replica strength on live, distinct nodes (the dead node keeps
    // its placement entry — it rejoins with its state on restart).
    std::set<int> live_replicas;
    for (int n : (*info)->placement[p]) {
      if (cluster_.discovery().IsAlive(n)) live_replicas.insert(n);
    }
    ASSERT_EQ(live_replicas.size(), 2u) << "partition " << p;
    for (int n : live_replicas) {
      // (b) every live replica agrees with the pre-failure row count.
      auto count = cluster_.node(n)->PartitionRowCount("readings", p);
      ASSERT_TRUE(count.ok()) << "partition " << p << " node " << n;
      EXPECT_EQ(*count, pre_counts[p]) << "partition " << p << " node " << n;
    }
    post_total += pre_counts[p];
  }
  // (c) nothing lost, nothing doubled.
  EXPECT_EQ(post_total, pre_total);
  AggSpec cnt{AggFunc::kCount, nullptr, "cnt"};
  auto rs = RunPlanned(&cluster_, AggregateOf("readings", {}, {cnt}));
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows[0][0], Value::Int(400));
}

TEST_F(SoeFixture, OlapNodesLagUntilPolled) {
  ASSERT_TRUE(cluster_
                  .CreateTable("readings", SensorSchema(),
                               PartitionSpec::Hash("sensor", 4), /*replication=*/1)
                  .ok());
  // Make every node OLAP: writes go to the log but are not applied.
  for (int n = 0; n < cluster_.num_nodes(); ++n) {
    ASSERT_TRUE(cluster_.SetNodeMode(n, NodeMode::kOlap).ok());
  }
  std::vector<Row> rows;
  for (int i = 0; i < 50; ++i) rows.push_back({Value::Int(i), Value::Dbl(1.0)});
  ASSERT_TRUE(cluster_.CommitInserts("readings", rows).ok());

  // Stale reads: counts are 0 because nothing is applied yet.
  AggSpec cnt{AggFunc::kCount, nullptr, "cnt"};
  auto stale = RunPlanned(&cluster_, AggregateOf("readings", {}, {cnt}));
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale->rows[0][0], Value::Int(0));
  EXPECT_GT(cluster_.Staleness(0), 0u);

  // Poll -> catch up -> fresh reads.
  for (int n = 0; n < cluster_.num_nodes(); ++n) {
    ASSERT_TRUE(cluster_.PollNode(n).ok());
    EXPECT_EQ(cluster_.Staleness(n), 0u);
  }
  auto fresh = RunPlanned(&cluster_, AggregateOf("readings", {}, {cnt}));
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->rows[0][0], Value::Int(50));
}

TEST_F(SoeFixture, OltpNodesReadTheirWrites) {
  LoadSensors(10);  // default mode is OLTP
  AggSpec cnt{AggFunc::kCount, nullptr, "cnt"};
  auto rs = RunPlanned(&cluster_, AggregateOf("readings", {}, {cnt}));
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][0], Value::Int(10));  // immediately visible
}

TEST_F(SoeFixture, RangePartitioningRoutesByBounds) {
  Schema s({ColumnDef("year", DataType::kInt64), ColumnDef("v", DataType::kDouble)});
  ASSERT_TRUE(cluster_
                  .CreateTable("events", s,
                               PartitionSpec::Range("year", {Value::Int(2000),
                                                             Value::Int(2020)}),
                               1)
                  .ok());
  ASSERT_TRUE(cluster_.Insert("events", {Value::Int(1995), Value::Dbl(1)}).ok());
  ASSERT_TRUE(cluster_.Insert("events", {Value::Int(2010), Value::Dbl(1)}).ok());
  ASSERT_TRUE(cluster_.Insert("events", {Value::Int(2025), Value::Dbl(1)}).ok());
  auto info = cluster_.catalog().Lookup("events");
  ASSERT_TRUE(info.ok());
  for (size_t p = 0; p < 3; ++p) {
    int owner = (*info)->placement[p][0];
    EXPECT_EQ(*cluster_.node(owner)->PartitionRowCount("events", p), 1u);
  }
}

TEST_F(SoeFixture, CatalogRejectsBadTable) {
  Schema s({ColumnDef("k", DataType::kInt64)});
  EXPECT_FALSE(cluster_.CreateTable("t", s, PartitionSpec::Hash("missing", 2)).ok());
  ASSERT_TRUE(cluster_.CreateTable("t", s, PartitionSpec::Hash("k", 2)).ok());
  EXPECT_FALSE(cluster_.CreateTable("t", s, PartitionSpec::Hash("k", 2)).ok());
  EXPECT_FALSE(cluster_.CreateTable("u", s, PartitionSpec::Hash("k", 2), 99).ok());
  EXPECT_FALSE(cluster_.Insert("ghost", {Value::Int(1)}).ok());
  EXPECT_FALSE(cluster_.Insert("t", {Value::Int(1), Value::Int(2)}).ok());
}

}  // namespace
}  // namespace poly
