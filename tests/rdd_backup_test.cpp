#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <map>

#include "soe/rdd.h"
#include "storage/backup.h"
#include "txn/transaction_manager.h"

namespace poly {
namespace {

class RddFixture : public ::testing::Test {
 protected:
  RddFixture() : cluster_(MakeOptions()) {
    Schema s({ColumnDef("sensor", DataType::kInt64),
              ColumnDef("value", DataType::kDouble)});
    (void)cluster_.CreateTable("readings", s, PartitionSpec::Hash("sensor", 4));
    std::vector<Row> rows;
    for (int i = 0; i < 100; ++i) {
      rows.push_back({Value::Int(i % 10), Value::Dbl(1.0 * i)});
    }
    (void)cluster_.CommitInserts("readings", rows);
  }

  static SoeCluster::Options MakeOptions() {
    SoeCluster::Options opts;
    opts.num_nodes = 2;
    return opts;
  }

  SoeCluster cluster_;
};

TEST_F(RddFixture, CollectAll) {
  auto rdd = SoeRdd::FromTable(&cluster_, "readings");
  auto rows = rdd.Collect();
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 100u);
  EXPECT_TRUE(rdd.FullyPushable());
}

TEST_F(RddFixture, WherePushedIntoScan) {
  auto rdd = SoeRdd::FromTable(&cluster_, "readings")
                 .Where(Expr::Compare(CmpOp::kLt, Expr::Column(0),
                                      Expr::Literal(Value::Int(3))));
  EXPECT_TRUE(rdd.FullyPushable());
  auto count = rdd.Count();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 30u);
}

TEST_F(RddFixture, WhereOnPartitionColumnRunsOnePartition) {
  auto rows = SoeRdd::FromTable(&cluster_, "readings")
                  .Where(Expr::Compare(CmpOp::kEq, Expr::Column(0),
                                       Expr::Literal(Value::Int(3))))
                  .Collect();
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 10u);
  // The pushed equality pins the planned scan to sensor 3's partition.
  EXPECT_EQ(cluster_.last_query_stats().partitions, 1u);
  EXPECT_EQ(cluster_.last_query_stats().fragments, 1u);
}

TEST_F(RddFixture, FrameworkSideMapFilter) {
  auto rdd = SoeRdd::FromTable(&cluster_, "readings")
                 .Map([](const Row& r) {
                   return Row{r[0], Value::Dbl(r[1].NumericValue() * 2)};
                 })
                 .Filter([](const Row& r) { return r[1].NumericValue() >= 100; });
  EXPECT_FALSE(rdd.FullyPushable());
  auto rows = rdd.Collect();
  ASSERT_TRUE(rows.ok());
  // value*2 >= 100 -> original value >= 50 -> 50 rows.
  EXPECT_EQ(rows->size(), 50u);
  auto count = rdd.Count();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 50u);
}

TEST_F(RddFixture, WhereAfterMapStaysFrameworkSide) {
  auto rdd = SoeRdd::FromTable(&cluster_, "readings")
                 .Map([](const Row& r) { return r; })
                 .Where(Expr::Compare(CmpOp::kEq, Expr::Column(0),
                                      Expr::Literal(Value::Int(1))));
  EXPECT_FALSE(rdd.FullyPushable());
  auto count = rdd.Count();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 10u);
}

TEST_F(RddFixture, AggregatePushedVsFrameworkSideAgree) {
  AggSpec sum{AggFunc::kSum, Expr::Column(1), "sum"};
  AggSpec cnt{AggFunc::kCount, nullptr, "cnt"};

  auto pushed = SoeRdd::FromTable(&cluster_, "readings")
                    .AggregateByKey("sensor", {sum, cnt});
  ASSERT_TRUE(pushed.ok());

  // Identity map forces the framework-side path.
  auto framework = SoeRdd::FromTable(&cluster_, "readings")
                       .Map([](const Row& r) { return r; })
                       .AggregateByKey("sensor", {sum, cnt});
  ASSERT_TRUE(framework.ok());

  ASSERT_EQ(pushed->num_rows(), framework->num_rows());
  auto sort_rows = [](ResultSet* rs) {
    std::sort(rs->rows.begin(), rs->rows.end(),
              [](const Row& a, const Row& b) { return a[0] < b[0]; });
  };
  sort_rows(&*pushed);
  sort_rows(&*framework);
  for (size_t i = 0; i < pushed->num_rows(); ++i) {
    EXPECT_EQ(pushed->rows[i][0], framework->rows[i][0]);
    EXPECT_DOUBLE_EQ(pushed->rows[i][1].NumericValue(),
                     framework->rows[i][1].NumericValue());
    EXPECT_EQ(pushed->rows[i][2].NumericValue(), framework->rows[i][2].NumericValue());
  }
}

TEST(BackupTest, SnapshotRoundTrip) {
  Database db;
  TransactionManager tm;
  ColumnTable* a = *db.CreateTable(
      "a", Schema({ColumnDef("k", DataType::kInt64), ColumnDef("v", DataType::kString)}));
  ColumnTable* b = *db.CreateTable("b", Schema({ColumnDef("x", DataType::kDouble)}));
  auto txn = tm.Begin();
  ASSERT_TRUE(tm.Insert(txn.get(), a, {Value::Int(1), Value::Str("one")}).ok());
  ASSERT_TRUE(tm.Insert(txn.get(), a, {Value::Int(2), Value::Str("two")}).ok());
  ASSERT_TRUE(tm.Insert(txn.get(), b, {Value::Dbl(3.5)}).ok());
  ASSERT_TRUE(tm.Commit(txn.get()).ok());
  auto d = tm.Begin();
  ASSERT_TRUE(tm.Delete(d.get(), a, 0).ok());
  ASSERT_TRUE(tm.Commit(d.get()).ok());

  std::string snapshot = SerializeDatabase(db);
  Database restored;
  ASSERT_TRUE(DeserializeDatabase(snapshot, &restored).ok());
  ColumnTable* ra = *restored.GetTable("a");
  ColumnTable* rb = *restored.GetTable("b");
  // MVCC stamps preserved: deleted row stays deleted.
  EXPECT_EQ(ra->Read().CountVisible(LatestCommittedView()), 1u);
  EXPECT_EQ(rb->Read().CountVisible(LatestCommittedView()), 1u);
  int64_t k = 0;
  ColumnTable::ReadGuard g(ra);
  g.ScanVisible(LatestCommittedView(), [&](uint64_t r) { k = g.GetValue(r, 0).AsInt(); });
  EXPECT_EQ(k, 2);
}

TEST(BackupTest, FileRoundTripAndCorruptionDetected) {
  Database db;
  TransactionManager tm;
  ColumnTable* t = *db.CreateTable("t", Schema({ColumnDef("k", DataType::kInt64)}));
  auto txn = tm.Begin();
  ASSERT_TRUE(tm.Insert(txn.get(), t, {Value::Int(9)}).ok());
  ASSERT_TRUE(tm.Commit(txn.get()).ok());

  // Per-process name: concurrent test binaries must not share the file.
  std::string path =
      testing::TempDir() + "/poly_backup_test." + std::to_string(getpid()) + ".bin";
  ASSERT_TRUE(BackupDatabaseToFile(db, path).ok());
  Database restored;
  ASSERT_TRUE(RestoreDatabaseFromFile(path, &restored).ok());
  EXPECT_TRUE(restored.GetTable("t").ok());

  // Garbage file rejected.
  FILE* f = std::fopen(path.c_str(), "wb");
  std::fwrite("garbage", 1, 7, f);
  std::fclose(f);
  Database bad;
  EXPECT_FALSE(RestoreDatabaseFromFile(path, &bad).ok());
  std::remove(path.c_str());
}

// A backup that never reaches the disk is an error: /dev/full accepts the
// buffered write and fails its flush with ENOSPC.
TEST(BackupTest, FullDiskBackupFails) {
  if (access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no writable /dev/full";
  Database db;
  TransactionManager tm;
  ColumnTable* t = *db.CreateTable("t", Schema({ColumnDef("k", DataType::kInt64)}));
  auto txn = tm.Begin();
  ASSERT_TRUE(tm.Insert(txn.get(), t, {Value::Int(9)}).ok());
  ASSERT_TRUE(tm.Commit(txn.get()).ok());
  EXPECT_EQ(BackupDatabaseToFile(db, "/dev/full").code(), StatusCode::kIOError);
}

// Backup -> inject faults -> restore: a snapshot taken before the chaos
// must restore to exactly the pre-fault state, untouched by the drops,
// crash, and extra commits that happen after it was taken.
TEST_F(RddFixture, BackupRestoreSurvivesFaultInjection) {
  const Database& db0 = cluster_.node(0)->db();
  auto fingerprint = [](const Database& db, const std::string& table) {
    ColumnTable* t = *db.GetTable(table);
    uint64_t count = 0;
    double sum = 0;
    ColumnTable::ReadGuard g(t);
    g.ScanVisible(LatestCommittedView(), [&](uint64_t r) {
      ++count;
      sum += g.GetValue(r, 1).NumericValue();
    });
    return std::make_pair(count, sum);
  };
  std::map<std::string, std::pair<uint64_t, double>> pre_state;
  for (const auto& hosted : cluster_.node(0)->HostedPartitions()) {
    std::string pt = PartitionTableName(hosted.first, hosted.second);
    pre_state[pt] = fingerprint(db0, pt);
  }
  std::string path =
      testing::TempDir() + "/poly_chaos_backup." + std::to_string(getpid()) + ".bin";
  ASSERT_TRUE(BackupDatabaseToFile(db0, path).ok());

  // Post-backup chaos: lossy network, more committed writes, a node crash.
  SimulatedNetwork::Options lossy = cluster_.network().options();
  lossy.drop_probability = 0.3;
  cluster_.network().set_options(lossy);
  std::vector<Row> more;
  for (int i = 0; i < 60; ++i) {
    more.push_back({Value::Int(i % 10), Value::Dbl(1000.0 + i)});
  }
  ASSERT_TRUE(cluster_.CommitInserts("readings", more).ok());
  ASSERT_TRUE(cluster_.KillNode(1).ok());
  lossy.drop_probability = 0;
  cluster_.network().set_options(lossy);
  cluster_.network().HealAll();
  ASSERT_TRUE(cluster_.RestartNode(1).ok());
  ASSERT_TRUE(cluster_.Rebalance().ok());

  Database restored;
  ASSERT_TRUE(RestoreDatabaseFromFile(path, &restored).ok());
  for (const auto& entry : pre_state) {
    ASSERT_TRUE(restored.GetTable(entry.first).ok()) << entry.first;
    // Counts and contents match the pre-fault snapshot exactly: nothing
    // from the faulty epoch leaked in.
    auto got = fingerprint(restored, entry.first);
    EXPECT_EQ(got.first, entry.second.first) << entry.first;
    EXPECT_DOUBLE_EQ(got.second, entry.second.second) << entry.first;
  }

  // Meanwhile the live cluster moved past the snapshot and healed fully.
  auto count = SoeRdd::FromTable(&cluster_, "readings").Count();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 160u);
  std::remove(path.c_str());
}

TEST(BackupTest, RestoreIntoConflictingDatabaseFails) {
  Database db;
  (void)db.CreateTable("t", Schema({ColumnDef("k", DataType::kInt64)}));
  std::string snapshot = SerializeDatabase(db);
  Database conflict;
  (void)conflict.CreateTable("t", Schema({ColumnDef("k", DataType::kInt64)}));
  EXPECT_EQ(DeserializeDatabase(snapshot, &conflict).code(), StatusCode::kAlreadyExists);
}

}  // namespace
}  // namespace poly
