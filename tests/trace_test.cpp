// Per-operator query tracing (EXPLAIN ANALYZE, DESIGN.md §10): span trees
// attached to results by both the interpreted executor and the compiled
// path. The load-bearing invariants: the root span's rows_out equals the
// query's row count, every inner span's rows_in equals the sum of its
// children's rows_out, and scan spans' rows_in equals the executor's
// rows_scanned — so the annotated plan always adds up to the result it
// annotates. ParallelExecutorTrace* runs under `ctest -L concurrency`.

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "query/compiled.h"
#include "query/executor.h"
#include "query/optimizer.h"
#include "soe/sql_bridge.h"
#include "soe_test_util.h"
#include "txn/transaction_manager.h"

namespace poly {
namespace {

Schema OrdersSchema() {
  return Schema({ColumnDef("o_id", DataType::kInt64),
                 ColumnDef("customer", DataType::kInt64),
                 ColumnDef("region", DataType::kString),
                 ColumnDef("amount", DataType::kDouble),
                 ColumnDef("qty", DataType::kInt64),
                 ColumnDef("year", DataType::kInt64)});
}

/// rows_in of every inner span must equal the sum of its children's
/// rows_out (leaves are checked by the caller against scan stats).
void CheckRowFlow(const OperatorSpan& span) {
  if (span.children.empty()) return;
  uint64_t from_children = 0;
  for (const OperatorSpan& child : span.children) {
    from_children += child.rows_out;
    CheckRowFlow(child);
  }
  EXPECT_EQ(span.rows_in, from_children) << "at span " << span.label;
}

class TraceTest : public ::testing::Test {
 protected:
  static constexpr int kRows = 500;

  void SetUp() override {
    ColumnTable* orders = *db_.CreateTable("orders", OrdersSchema());
    auto txn = tm_.Begin();
    static const char* kRegions[] = {"east", "north", "south", "west"};
    for (int i = 0; i < kRows; ++i) {
      ASSERT_TRUE(tm_.Insert(txn.get(), orders,
                             {Value::Int(i), Value::Int(i % 37),
                              Value::Str(kRegions[i % 4]),
                              Value::Dbl((i % 97) * 0.25), Value::Int(i % 50),
                              Value::Int(2020 + i % 7)})
                      .ok());
    }
    ASSERT_TRUE(tm_.Commit(txn.get()).ok());
    orders->Merge();
  }

  /// SELECT SUM(amount*qty) WHERE qty < 25 AND year >= 2023 (the E13
  /// Q6-shape query), optimized so it is also compilable.
  PlanPtr Q6Plan() {
    AggSpec revenue{AggFunc::kSum,
                    Expr::Arith(ArithOp::kMul, Expr::Column(3), Expr::Column(4)),
                    "revenue"};
    auto plan = PlanBuilder::Scan("orders")
                    .Filter(Expr::And(
                        Expr::Compare(CmpOp::kLt, Expr::Column(4),
                                      Expr::Literal(Value::Int(25))),
                        Expr::Compare(CmpOp::kGe, Expr::Column(5),
                                      Expr::Literal(Value::Int(2023)))))
                    .Aggregate({}, {revenue})
                    .Build();
    Optimizer opt;
    return opt.Optimize(plan);
  }

  Database db_;
  TransactionManager tm_;
};

TEST_F(TraceTest, OffByDefault) {
  Executor exec(&db_, tm_.AutoCommitView());
  auto rs = exec.Execute(PlanBuilder::Scan("orders").Build());
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->trace, nullptr);
  EXPECT_EQ(exec.trace(), nullptr);
  EXPECT_EQ(rs->AnnotatedPlan(), "");
}

TEST_F(TraceTest, InterpretedSpanTreeAddsUp) {
  ExecOptions opts;
  opts.trace = true;
  Executor exec(&db_, tm_.AutoCommitView(), opts);

  AggSpec cnt{AggFunc::kCount, nullptr, "cnt"};
  AggSpec sum{AggFunc::kSum, Expr::Column(3), "sum_amount"};
  auto plan = PlanBuilder::Scan("orders")
                  .Filter(Expr::Compare(CmpOp::kLt, Expr::Column(4),
                                        Expr::Literal(Value::Int(25))))
                  .Aggregate({2}, {cnt, sum})
                  .Build();
  auto rs = exec.Execute(plan);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_NE(rs->trace, nullptr);
  EXPECT_EQ(rs->trace.get(), exec.trace());

  const OperatorSpan& root = *rs->trace;
  EXPECT_EQ(root.rows_out, rs->num_rows());
  CheckRowFlow(root);

  // Walk to the scan leaf: its input is exactly what the executor scanned.
  const OperatorSpan* leaf = &root;
  while (!leaf->children.empty()) {
    ASSERT_EQ(leaf->children.size(), 1u);
    leaf = &leaf->children[0];
  }
  EXPECT_EQ(leaf->label.rfind("Scan(", 0), 0u) << leaf->label;
  EXPECT_EQ(leaf->rows_in, exec.stats().rows_scanned);
  EXPECT_GT(leaf->bytes_out, 0u);

  std::string annotated = rs->AnnotatedPlan();
  EXPECT_NE(annotated.find("Scan("), std::string::npos) << annotated;
  EXPECT_NE(annotated.find("rows="), std::string::npos) << annotated;
  EXPECT_NE(annotated.find("wall="), std::string::npos) << annotated;
}

// An aggregate that folds its scan keeps the scan's span: rows_in is the
// versions visited, rows_out the selection size (the row count the scan
// would have materialized), bytes_out the 8-byte row ids it handed over.
TEST_F(TraceTest, FoldedScanKeepsItsSpan) {
  ExecOptions opts;
  opts.trace = true;
  Executor exec(&db_, tm_.AutoCommitView(), opts);
  auto rs = exec.Execute(Q6Plan());
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  const OperatorSpan& root = *rs->trace;
  EXPECT_EQ(root.label, "Aggregate");
  CheckRowFlow(root);
  ASSERT_EQ(root.children.size(), 1u);
  const OperatorSpan& scan = root.children[0];
  EXPECT_EQ(scan.label, "Scan(orders, pushed predicate)");
  EXPECT_EQ(scan.rows_in, static_cast<uint64_t>(kRows));
  EXPECT_EQ(scan.rows_out, exec.stats().rows_materialized);
  EXPECT_LT(scan.rows_out, scan.rows_in);
  EXPECT_EQ(scan.bytes_out, scan.rows_out * 8);
}

TEST_F(TraceTest, CompiledSpanTreeAddsUp) {
  PlanPtr plan = Q6Plan();
  QueryCompiler qc(&db_, tm_.AutoCommitView());
  ASSERT_TRUE(qc.CanCompile(plan));
  qc.set_trace(true);
  auto rs = qc.Execute(plan);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_NE(rs->trace, nullptr);

  const OperatorSpan& root = *rs->trace;
  EXPECT_EQ(root.label.rfind("Compiled", 0), 0u) << root.label;
  EXPECT_EQ(root.rows_out, rs->num_rows());
  CheckRowFlow(root);
  ASSERT_EQ(root.children.size(), 1u);
  const OperatorSpan& fused = root.children[0];
  EXPECT_EQ(fused.label.rfind("FusedScan(", 0), 0u) << fused.label;
  // The fused kernel visits every row version; a selective predicate keeps
  // strictly fewer rows than it visits.
  EXPECT_EQ(fused.rows_in, static_cast<uint64_t>(kRows));
  EXPECT_LT(fused.rows_out, fused.rows_in);
  EXPECT_NE(rs->AnnotatedPlan().find("FusedScan("), std::string::npos);
}

TEST_F(TraceTest, CompiledMatchesInterpretedRowCounts) {
  PlanPtr plan = Q6Plan();

  ExecOptions opts;
  opts.trace = true;
  Executor exec(&db_, tm_.AutoCommitView(), opts);
  auto interpreted = exec.Execute(plan);
  ASSERT_TRUE(interpreted.ok());

  QueryCompiler qc(&db_, tm_.AutoCommitView());
  qc.set_trace(true);
  ASSERT_TRUE(qc.CanCompile(plan));
  auto compiled = qc.Execute(plan);
  ASSERT_TRUE(compiled.ok());

  ASSERT_NE(interpreted->trace, nullptr);
  ASSERT_NE(compiled->trace, nullptr);
  EXPECT_EQ(interpreted->trace->rows_out, compiled->trace->rows_out);
  EXPECT_DOUBLE_EQ(interpreted->rows[0][0].NumericValue(),
                   compiled->rows[0][0].NumericValue());
}

// Tracing must not perturb parallel execution: same rows, same span totals
// as the serial trace (runs under TSan via the concurrency label).
TEST(ParallelExecutorTrace, SerialAndParallelSpansAgree) {
  Database db;
  TransactionManager tm;
  ColumnTable* t = *db.CreateTable("orders", OrdersSchema());
  auto txn = tm.Begin();
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(tm.Insert(txn.get(), t,
                          {Value::Int(i), Value::Int(i % 11), Value::Str("r"),
                           Value::Dbl(i * 0.25), Value::Int(i % 50),
                           Value::Int(2020 + i % 7)})
                    .ok());
  }
  ASSERT_TRUE(tm.Commit(txn.get()).ok());

  auto plan = PlanBuilder::Scan("orders")
                  .Filter(Expr::Compare(CmpOp::kLt, Expr::Column(4),
                                        Expr::Literal(Value::Int(10))))
                  .Build();

  ExecOptions serial_opts;
  serial_opts.trace = true;
  Executor serial(&db, tm.AutoCommitView(), serial_opts);
  auto serial_rs = serial.Execute(plan);
  ASSERT_TRUE(serial_rs.ok());

  ExecOptions par_opts;
  par_opts.trace = true;
  par_opts.num_threads = 4;
  par_opts.morsel_rows = 7;
  Executor parallel(&db, tm.AutoCommitView(), par_opts);
  auto par_rs = parallel.Execute(plan);
  ASSERT_TRUE(par_rs.ok());

  ASSERT_NE(serial_rs->trace, nullptr);
  ASSERT_NE(par_rs->trace, nullptr);
  EXPECT_EQ(par_rs->trace->rows_out, par_rs->num_rows());
  EXPECT_EQ(serial_rs->trace->rows_out, par_rs->trace->rows_out);
  CheckRowFlow(*par_rs->trace);
  // The scan leaf saw every version in both modes (morsel merge keeps
  // stats identical to serial).
  const OperatorSpan* leaf = par_rs->trace.get();
  while (!leaf->children.empty()) leaf = &leaf->children[0];
  EXPECT_EQ(leaf->rows_in, parallel.stats().rows_scanned);
  EXPECT_EQ(parallel.stats().rows_scanned, serial.stats().rows_scanned);
}

// ------------------------------------------------ distributed (SOE) spans --

class SoeTraceTest : public ::testing::Test {
 protected:
  static constexpr int kRows = 240;
  static constexpr size_t kPartitions = 4;

  SoeTraceTest() : cluster_(MakeOptions()), bridge_(&cluster_) {
    Schema s({ColumnDef("sensor", DataType::kInt64),
              ColumnDef("site", DataType::kInt64),
              ColumnDef("value", DataType::kDouble)});
    (void)cluster_.CreateTable("readings", s,
                               PartitionSpec::Hash("sensor", kPartitions), 2);
    std::vector<Row> rows;
    for (int i = 0; i < kRows; ++i) {
      rows.push_back({Value::Int(i % 24), Value::Int(i % 3), Value::Dbl(1.0 * i)});
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

TEST_F(SoeTraceTest, ScanQuerySpansOnePerPartitionFragment) {
  cluster_.set_trace(true);
  auto rs = RunPlanned(&cluster_, ScanOf("readings"));
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_NE(rs->trace, nullptr);
  EXPECT_EQ(rs->trace, cluster_.last_trace());

  const OperatorSpan& root = *rs->trace;
  EXPECT_EQ(root.label, "DistributedQuery(scan)");
  // One child span per partition fragment, nested under the coordinator span.
  ASSERT_EQ(root.children.size(), kPartitions);
  CheckRowFlow(root);  // root.rows_in == sum of task rows_out
  EXPECT_EQ(root.rows_in, static_cast<uint64_t>(kRows));
  EXPECT_EQ(root.rows_out, rs->num_rows());
  EXPECT_EQ(root.bytes_out, cluster_.last_query_stats().result_bytes_gathered);
  EXPECT_GT(root.wall_nanos, 0u);  // virtual network time, deterministic

  for (const OperatorSpan& task : root.children) {
    EXPECT_EQ(task.label.rfind("Fragment(scan(readings):readings#p", 0), 0u) << task.label;
    EXPECT_NE(task.label.find("@node"), std::string::npos) << task.label;
    EXPECT_GT(task.bytes_out, 0u);
    EXPECT_GT(task.wall_nanos, 0u);
  }
}

TEST_F(SoeTraceTest, TwoPhaseAggregateSpansAndOffByDefault) {
  // Off by default: no span tree is built or attached.
  auto untraced =
      RunPlanned(&cluster_, AggregateOf("readings", {}, {{AggFunc::kCount, nullptr, "n"}}));
  ASSERT_TRUE(untraced.ok());
  EXPECT_EQ(untraced->trace, nullptr);
  EXPECT_EQ(cluster_.last_trace(), nullptr);

  cluster_.set_trace(true);
  auto rs = RunPlanned(&cluster_,
                       AggregateOf("readings", {1}, {{AggFunc::kSum, Expr::Column(2), "total"}}));
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_NE(rs->trace, nullptr);

  const OperatorSpan& root = *rs->trace;
  EXPECT_EQ(root.label, "DistributedQuery(two-phase-aggregate)");
  // One partial fragment per partition, then one final task per live node.
  const size_t live = static_cast<size_t>(cluster_.num_nodes());
  ASSERT_EQ(root.children.size(), kPartitions + live);
  CheckRowFlow(root);
  size_t partials = 0;
  uint64_t final_rows = 0;
  for (const OperatorSpan& task : root.children) {
    if (task.label.rfind("Fragment(partial-aggregate(readings):readings#p", 0) == 0) {
      ++partials;
    } else {
      EXPECT_EQ(task.label.rfind("Fragment(final-aggregate:t", 0), 0u) << task.label;
      final_rows += task.rows_out;
    }
  }
  EXPECT_EQ(partials, kPartitions);
  // Partial aggregation: each partition returns at most 3 site groups; the
  // final tasks merge them into exactly 3, which are all that is gathered.
  EXPECT_LE(root.rows_in - final_rows, kPartitions * 3);
  EXPECT_EQ(final_rows, 3u);
  EXPECT_EQ(root.rows_out, 3u);
  EXPECT_EQ(root.bytes_out, cluster_.last_query_stats().result_bytes_gathered);
}

TEST_F(SoeTraceTest, BridgeCarriesTraceThroughResidualOperators) {
  bridge_.set_trace(true);
  // Residual projection + sort + limit run at the coordinator, on top of a
  // distributed scan; the span tree must survive them.
  auto rs = bridge_.Execute(
      "SELECT value * 2 AS doubled FROM readings WHERE sensor = 3 "
      "ORDER BY doubled DESC LIMIT 5");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_NE(rs->trace, nullptr);
  // SQL scans are lowered by the distributed planner into partition-sited
  // fragments; the coordinator span carries one child per fragment task.
  EXPECT_EQ(rs->trace->label, "DistributedQuery(scan)");
  EXPECT_FALSE(rs->trace->children.empty());
  // The trace describes the distributed stage: rows_out is the gathered
  // count, before the residual limit shrank the result.
  EXPECT_GE(rs->trace->rows_out, rs->num_rows());
  EXPECT_NE(rs->AnnotatedPlan().find("Fragment("), std::string::npos);
}

}  // namespace
}  // namespace poly
