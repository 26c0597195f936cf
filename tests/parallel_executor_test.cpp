// Concurrency-correctness harness for the morsel-driven executor: for every
// plan shape, parallel execution must be identical to serial — same rows,
// same order, same ExecStats totals — across thread counts and adversarial
// morsel sizes (1 row, partition-boundary-straddling, larger than the
// table). Runs under -fsanitize=thread via `ctest -L concurrency`.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "query/executor.h"
#include "txn/transaction_manager.h"

namespace poly {
namespace {

Schema OrdersSchema() {
  return Schema({ColumnDef("id", DataType::kInt64),
                 ColumnDef("region", DataType::kString),
                 ColumnDef("amount", DataType::kDouble),
                 ColumnDef("qty", DataType::kInt64)});
}

void ExpectSameResult(const ResultSet& serial, const ResultSet& parallel,
                      const std::string& ctx) {
  ASSERT_EQ(serial.column_names, parallel.column_names) << ctx;
  ASSERT_EQ(serial.num_rows(), parallel.num_rows()) << ctx;
  for (size_t r = 0; r < serial.num_rows(); ++r) {
    ASSERT_EQ(serial.rows[r], parallel.rows[r]) << ctx << " row " << r;
  }
}

void ExpectSameStats(const ExecStats& a, const ExecStats& b, const std::string& ctx) {
  EXPECT_EQ(a.rows_scanned, b.rows_scanned) << ctx;
  EXPECT_EQ(a.rows_materialized, b.rows_materialized) << ctx;
  EXPECT_EQ(a.id_range_scans, b.id_range_scans) << ctx;
  EXPECT_EQ(a.partitions_scanned, b.partitions_scanned) << ctx;
}

class ParallelExecutorTest : public ::testing::Test {
 protected:
  static constexpr int kRows = 1200;

  void SetUp() override {
    ColumnTable* orders = *db_.CreateTable("orders", OrdersSchema());
    // First half, then merge, then second half: scans straddle the
    // main/delta boundary (and the dictionary ID-range fast path only
    // covers the merged main part).
    InsertOrders(orders, 0, kRows / 2);
    orders->Merge();
    InsertOrders(orders, kRows / 2, kRows);
    // Committed deletes, plus an aborted delete and an aborted insert, so
    // visibility checks do real work in every morsel.
    auto del = tm_.Begin();
    const uint64_t versions = orders->Read().size();
    for (uint64_t r = 0; r < versions; r += 13) {
      ASSERT_TRUE(tm_.Delete(del.get(), orders, r).ok());
    }
    ASSERT_TRUE(tm_.Commit(del.get()).ok());
    auto aborted = tm_.Begin();
    ASSERT_TRUE(tm_.Delete(aborted.get(), orders, 1).ok());
    ASSERT_TRUE(
        tm_.Insert(aborted.get(), orders,
                   {Value::Int(-1), Value::Str("ghost"), Value::Dbl(0), Value::Int(0)})
            .ok());
    ASSERT_TRUE(tm_.Abort(aborted.get()).ok());

    // Uneven partitions for multi-partition scans: morsel boundaries and
    // partition boundaries interleave adversarially.
    int sizes[] = {17, 100, 3};
    int next_id = 0;
    for (int p = 0; p < 3; ++p) {
      ColumnTable* part = *db_.CreateTable("p" + std::to_string(p), OrdersSchema());
      InsertOrders(part, next_id, next_id + sizes[p]);
      next_id += sizes[p];
      if (p % 2 == 0) part->Merge();
    }

    // Join dimension with a duplicated key so probes emit multiple matches.
    ColumnTable* regions = *db_.CreateTable(
        "regions", Schema({ColumnDef("region", DataType::kString),
                           ColumnDef("bonus", DataType::kInt64)}));
    auto txn = tm_.Begin();
    const char* names[] = {"east", "north", "south", "west", "east"};
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(
          tm_.Insert(txn.get(), regions, {Value::Str(names[i]), Value::Int(i * 10)})
              .ok());
    }
    ASSERT_TRUE(tm_.Commit(txn.get()).ok());
  }

  void InsertOrders(ColumnTable* t, int begin, int end) {
    static const char* kRegions[] = {"east", "north", "south", "west"};
    auto txn = tm_.Begin();
    for (int i = begin; i < end; ++i) {
      // amount is an exact multiple of 0.25 so floating-point sums are
      // exact and therefore order-independent (see DESIGN.md §5).
      ASSERT_TRUE(tm_.Insert(txn.get(), t,
                             {Value::Int(i), Value::Str(kRegions[i % 4]),
                              Value::Dbl((i % 97) * 0.25), Value::Int(i % 10)})
                      .ok());
    }
    ASSERT_TRUE(tm_.Commit(txn.get()).ok());
  }

  /// Runs `plan` serially and under every (threads, morsel_rows) combination,
  /// asserting identical results and stats everywhere.
  void CheckAllConfigurations(const PlanPtr& plan) {
    Executor serial(&db_, tm_.AutoCommitView());
    auto serial_rs = serial.Execute(plan);
    ASSERT_TRUE(serial_rs.ok()) << serial_rs.status().ToString();

    for (size_t threads : {1u, 2u, 4u, 8u}) {
      for (size_t morsel : {1u, 7u, 256u, 100000u}) {
        ExecOptions opts;
        opts.num_threads = threads;
        opts.morsel_rows = morsel;
        Executor parallel(&db_, tm_.AutoCommitView(), opts);
        auto rs = parallel.Execute(plan);
        std::string ctx =
            "threads=" + std::to_string(threads) + " morsel=" + std::to_string(morsel);
        ASSERT_TRUE(rs.ok()) << ctx << ": " << rs.status().ToString();
        ExpectSameResult(*serial_rs, *rs, ctx);
        ExpectSameStats(serial.stats(), parallel.stats(), ctx);
      }
    }
  }

  Database db_;
  TransactionManager tm_;
};

TEST_F(ParallelExecutorTest, FullScan) {
  CheckAllConfigurations(PlanBuilder::Scan("orders").Build());
}

TEST_F(ParallelExecutorTest, ScanWithPushedDownPredicate) {
  auto plan = PlanBuilder::Scan("orders").Build();
  plan->scan_predicate = Expr::Compare(CmpOp::kGt, Expr::Column(3),
                                       Expr::Literal(Value::Int(6)));
  CheckAllConfigurations(plan);
}

TEST_F(ParallelExecutorTest, ScanWithDictionaryIdRangePredicate) {
  // `id <= 400` over the merged main part takes the ID-range fast path for
  // main rows and evaluates the predicate for delta rows; the id_range_scans
  // counter must agree between serial and parallel.
  auto plan = PlanBuilder::Scan("orders").Build();
  plan->scan_predicate = Expr::Compare(CmpOp::kLe, Expr::Column(0),
                                       Expr::Literal(Value::Int(400)));
  CheckAllConfigurations(plan);
}

TEST_F(ParallelExecutorTest, MultiPartitionScan) {
  auto plan = PlanBuilder::Scan("p0").Build();
  plan->scan_partitions = {"p0", "p1", "p2"};
  plan->scan_predicate =
      Expr::Compare(CmpOp::kLt, Expr::Column(0), Expr::Literal(Value::Int(110)));
  CheckAllConfigurations(plan);
}

TEST_F(ParallelExecutorTest, FilterOperator) {
  CheckAllConfigurations(
      PlanBuilder::Scan("orders")
          .Filter(Expr::Compare(CmpOp::kLt, Expr::Column(2),
                                Expr::Literal(Value::Dbl(10.0))))
          .Build());
}

TEST_F(ParallelExecutorTest, ProjectOperator) {
  CheckAllConfigurations(
      PlanBuilder::Scan("orders")
          .Project({Expr::Arith(ArithOp::kMul, Expr::Column(2),
                                Expr::Literal(Value::Int(4))),
                    Expr::Column(1)},
                   {"amount4", "region"})
          .Build());
}

TEST_F(ParallelExecutorTest, GroupByAggregate) {
  AggSpec cnt{AggFunc::kCount, nullptr, "cnt"};
  AggSpec total{AggFunc::kSum, Expr::Column(2), "total"};
  AggSpec qty_sum{AggFunc::kSum, Expr::Column(3), "qty_sum"};
  AggSpec avg{AggFunc::kAvg, Expr::Column(2), "avg_amount"};
  AggSpec mn{AggFunc::kMin, Expr::Column(0), "min_id"};
  AggSpec mx{AggFunc::kMax, Expr::Column(0), "max_id"};
  CheckAllConfigurations(PlanBuilder::Scan("orders")
                             .Aggregate({1}, {cnt, total, qty_sum, avg, mn, mx})
                             .Build());
}

TEST_F(ParallelExecutorTest, GlobalAggregate) {
  AggSpec cnt{AggFunc::kCount, nullptr, "cnt"};
  AggSpec total{AggFunc::kSum, Expr::Column(2), "total"};
  CheckAllConfigurations(
      PlanBuilder::Scan("orders").Aggregate({}, {cnt, total}).Build());
}

TEST_F(ParallelExecutorTest, GlobalAggregateOverEmptyInput) {
  AggSpec cnt{AggFunc::kCount, nullptr, "cnt"};
  auto plan = PlanBuilder::Scan("orders")
                  .Filter(Expr::Compare(CmpOp::kGt, Expr::Column(0),
                                        Expr::Literal(Value::Int(1 << 20))))
                  .Aggregate({}, {cnt})
                  .Build();
  CheckAllConfigurations(plan);
}

TEST_F(ParallelExecutorTest, HashJoin) {
  CheckAllConfigurations(
      PlanBuilder::Scan("orders")
          .HashJoin(PlanBuilder::Scan("regions").Build(), /*left_key=*/1,
                    /*right_key=*/0)
          .Build());
}

TEST_F(ParallelExecutorTest, SortAndLimit) {
  CheckAllConfigurations(PlanBuilder::Scan("orders")
                             .Sort({{1, true}, {0, false}})
                             .Limit(57)
                             .Build());
}

TEST_F(ParallelExecutorTest, DatabaseDefaultOptionsUseSharedPool) {
  ExecOptions parallel_default;
  parallel_default.num_threads = 4;
  parallel_default.morsel_rows = 128;
  db_.set_exec_options(parallel_default);
  ThreadPool* four = db_.exec_pool(4);
  ASSERT_NE(four, nullptr);
  EXPECT_EQ(four->num_threads(), 3u);
  EXPECT_EQ(db_.exec_pool(1), nullptr);

  AggSpec total{AggFunc::kSum, Expr::Column(2), "total"};
  auto plan = PlanBuilder::Scan("orders").Aggregate({1}, {total}).Build();
  // Default-constructed executor picks up the database options.
  Executor with_default(&db_, tm_.AutoCommitView());
  EXPECT_EQ(with_default.options().num_threads, 4u);
  auto rs_parallel = with_default.Execute(plan);
  ASSERT_TRUE(rs_parallel.ok());

  db_.set_exec_options(ExecOptions{});  // back to serial
  // Changing the session default replaces no pool.
  EXPECT_EQ(db_.exec_pool(4), four);
  Executor serial(&db_, tm_.AutoCommitView());
  auto rs_serial = serial.Execute(plan);
  ASSERT_TRUE(rs_serial.ok());
  ExpectSameResult(*rs_serial, *rs_parallel, "database-default options");
}

/// Threads of this process, read from /proc/self/task.
size_t ProcessThreads() {
  size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

TEST_F(ParallelExecutorTest, StatementsShareTheDatabasePool) {
  ExecOptions session;
  session.num_threads = 2;
  db_.set_exec_options(session);
  const std::string sql = "SELECT region, SUM(amount) AS total FROM orders GROUP BY region";
  auto serial = db_.Execute(sql, ExecOptions{});
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  // Every statement runs on the database's one 1-worker pool for two
  // threads: the first statement starts its worker, and no statement
  // starts or joins another. A thread started and joined first brings up
  // any helper a runtime starts with the first thread (ThreadSanitizer's).
  std::thread([] {}).join();
  const size_t before = ProcessThreads();
  for (int i = 0; i < 21; ++i) {
    auto rs = db_.Execute(sql);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    ExpectSameResult(*serial, *rs, "statement " + std::to_string(i));
    if (i == 0) {
      EXPECT_EQ(ProcessThreads(), before + 1);
    }
  }
  EXPECT_EQ(ProcessThreads(), before + 1);
}

}  // namespace
}  // namespace poly
