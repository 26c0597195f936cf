#include <gtest/gtest.h>

#include "common/random.h"
#include "query/compiled.h"
#include "query/executor.h"
#include "query/optimizer.h"
#include "query/sql_parser.h"
#include "txn/transaction_manager.h"

namespace poly {
namespace {

// ---------- Expression tests ----------

TEST(ExprTest, LiteralAndColumn) {
  Row row = {Value::Int(5), Value::Str("x")};
  EXPECT_EQ(Expr::Literal(Value::Int(3))->Eval(row), Value::Int(3));
  EXPECT_EQ(Expr::Column(0)->Eval(row), Value::Int(5));
  EXPECT_EQ(Expr::Column(1)->Eval(row), Value::Str("x"));
  EXPECT_TRUE(Expr::Column(9)->Eval(row).is_null());
}

TEST(ExprTest, Comparisons) {
  Row row = {Value::Int(5)};
  auto cmp = [&](CmpOp op, int64_t rhs) {
    return Expr::Compare(op, Expr::Column(0), Expr::Literal(Value::Int(rhs)))
        ->EvalBool(row);
  };
  EXPECT_TRUE(cmp(CmpOp::kEq, 5));
  EXPECT_FALSE(cmp(CmpOp::kEq, 4));
  EXPECT_TRUE(cmp(CmpOp::kNe, 4));
  EXPECT_TRUE(cmp(CmpOp::kLt, 6));
  EXPECT_TRUE(cmp(CmpOp::kLe, 5));
  EXPECT_FALSE(cmp(CmpOp::kLt, 5));
  EXPECT_TRUE(cmp(CmpOp::kGt, 4));
  EXPECT_TRUE(cmp(CmpOp::kGe, 5));
}

TEST(ExprTest, CrossTypeNumericCompare) {
  Row row = {Value::Int(5), Value::Dbl(5.5)};
  EXPECT_TRUE(Expr::Compare(CmpOp::kLt, Expr::Column(0), Expr::Column(1))->EvalBool(row));
}

TEST(ExprTest, IntDoubleEqualityIsNumeric) {
  // Same answer as the dictionary lookup of an id-range scan, which orders
  // int and double by numeric value.
  Row row = {Value::Int(5)};
  auto cmp = [&](CmpOp op, double rhs) {
    return Expr::Compare(op, Expr::Column(0), Expr::Literal(Value::Dbl(rhs)))
        ->EvalBool(row);
  };
  EXPECT_TRUE(cmp(CmpOp::kEq, 5.0));
  EXPECT_FALSE(cmp(CmpOp::kNe, 5.0));
  EXPECT_FALSE(cmp(CmpOp::kEq, 5.5));
  EXPECT_TRUE(cmp(CmpOp::kNe, 5.5));
}

TEST(ExprTest, LogicalOps) {
  Row row;
  auto t = Expr::Literal(Value::Boolean(true));
  auto f = Expr::Literal(Value::Boolean(false));
  EXPECT_TRUE(Expr::And(t, t)->EvalBool(row));
  EXPECT_FALSE(Expr::And(t, f)->EvalBool(row));
  EXPECT_TRUE(Expr::Or(f, t)->EvalBool(row));
  EXPECT_FALSE(Expr::Or(f, f)->EvalBool(row));
  EXPECT_TRUE(Expr::Not(f)->EvalBool(row));
}

TEST(ExprTest, NullPropagation) {
  Row row = {Value::Null()};
  auto cmp = Expr::Compare(CmpOp::kEq, Expr::Column(0), Expr::Literal(Value::Int(1)));
  EXPECT_TRUE(cmp->Eval(row).is_null());
  EXPECT_FALSE(cmp->EvalBool(row));  // null collapses to false in predicates
  EXPECT_TRUE(Expr::IsNull(Expr::Column(0))->EvalBool(row));
}

TEST(ExprTest, Arithmetic) {
  Row row = {Value::Int(6), Value::Int(4), Value::Dbl(0.5)};
  EXPECT_EQ(Expr::Arith(ArithOp::kAdd, Expr::Column(0), Expr::Column(1))->Eval(row),
            Value::Int(10));
  EXPECT_EQ(Expr::Arith(ArithOp::kMul, Expr::Column(0), Expr::Column(2))->Eval(row),
            Value::Dbl(3.0));
  // Division always yields double; division by zero yields null.
  EXPECT_EQ(Expr::Arith(ArithOp::kDiv, Expr::Column(0), Expr::Column(1))->Eval(row),
            Value::Dbl(1.5));
  Row zero = {Value::Int(1), Value::Int(0)};
  EXPECT_TRUE(
      Expr::Arith(ArithOp::kDiv, Expr::Column(0), Expr::Column(1))->Eval(zero).is_null());
}

TEST(ExprTest, LikeAndIn) {
  Row row = {Value::Str("hello world")};
  EXPECT_TRUE(Expr::Like(Expr::Column(0), "hello%")->EvalBool(row));
  EXPECT_FALSE(Expr::Like(Expr::Column(0), "%mars")->EvalBool(row));
  EXPECT_TRUE(Expr::In(Expr::Column(0),
                       {Value::Str("a"), Value::Str("hello world")})->EvalBool(row));
  EXPECT_FALSE(Expr::In(Expr::Column(0), {Value::Str("a")})->EvalBool(row));
}

TEST(ExprTest, MaxColumnIndexAndToString) {
  auto e = Expr::And(
      Expr::Compare(CmpOp::kGt, Expr::Column(3), Expr::Literal(Value::Int(1))),
      Expr::Compare(CmpOp::kLt, Expr::Column(7), Expr::Literal(Value::Int(9))));
  EXPECT_EQ(e->MaxColumnIndex(), 7);
  EXPECT_NE(e->ToString().find("$7"), std::string::npos);
}

// ---------- Executor tests ----------

class QueryFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema orders({ColumnDef("o_id", DataType::kInt64),
                   ColumnDef("region", DataType::kString),
                   ColumnDef("amount", DataType::kDouble),
                   ColumnDef("qty", DataType::kInt64)});
    orders_ = *db_.CreateTable("orders", orders);
    Schema regions({ColumnDef("name", DataType::kString),
                    ColumnDef("manager", DataType::kString)});
    regions_ = *db_.CreateTable("regions", regions);

    const char* region_names[] = {"north", "south", "east", "west"};
    auto txn = tm_.Begin();
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(tm_.Insert(txn.get(), orders_,
                             {Value::Int(i), Value::Str(region_names[i % 4]),
                              Value::Dbl(i * 1.5), Value::Int(i % 10)})
                      .ok());
    }
    for (const char* r : region_names) {
      ASSERT_TRUE(
          tm_.Insert(txn.get(), regions_, {Value::Str(r), Value::Str(std::string("mgr_") + r)})
              .ok());
    }
    ASSERT_TRUE(tm_.Commit(txn.get()).ok());
  }

  ResultSet Run(const PlanPtr& plan) {
    Executor exec(&db_, tm_.AutoCommitView());
    auto result = exec.Execute(plan);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    last_stats_ = exec.stats();
    return result.ok() ? *std::move(result) : ResultSet{};
  }

  Database db_;
  TransactionManager tm_;
  ColumnTable* orders_ = nullptr;
  ColumnTable* regions_ = nullptr;
  ExecStats last_stats_;
};

TEST_F(QueryFixture, FullScan) {
  ResultSet rs = Run(PlanBuilder::Scan("orders").Build());
  EXPECT_EQ(rs.num_rows(), 100u);
  EXPECT_EQ(rs.num_columns(), 4u);
  EXPECT_EQ(rs.column_names[1], "region");
}

TEST_F(QueryFixture, ScanMissingTableFails) {
  Executor exec(&db_, tm_.AutoCommitView());
  EXPECT_FALSE(exec.Execute(PlanBuilder::Scan("nope").Build()).ok());
}

TEST_F(QueryFixture, FilterPredicate) {
  auto plan = PlanBuilder::Scan("orders")
                  .Filter(Expr::Compare(CmpOp::kEq, Expr::Column(1),
                                        Expr::Literal(Value::Str("north"))))
                  .Build();
  ResultSet rs = Run(plan);
  EXPECT_EQ(rs.num_rows(), 25u);
}

TEST_F(QueryFixture, ProjectComputesExpressions) {
  auto plan = PlanBuilder::Scan("orders")
                  .Project({Expr::Column(0),
                            Expr::Arith(ArithOp::kMul, Expr::Column(2),
                                        Expr::Literal(Value::Dbl(2.0)))},
                           {"id", "double_amount"})
                  .Build();
  ResultSet rs = Run(plan);
  EXPECT_EQ(rs.num_columns(), 2u);
  EXPECT_EQ(rs.rows[10][1], Value::Dbl(30.0));
}

TEST_F(QueryFixture, HashJoinMatchesRegions) {
  auto plan = PlanBuilder::Scan("orders")
                  .HashJoin(PlanBuilder::Scan("regions").Build(), 1, 0)
                  .Build();
  ResultSet rs = Run(plan);
  EXPECT_EQ(rs.num_rows(), 100u);   // every order joins exactly one region
  EXPECT_EQ(rs.num_columns(), 6u);  // 4 + 2
  int mgr_col = rs.ColumnIndex("manager");
  ASSERT_GE(mgr_col, 0);
  for (const auto& row : rs.rows) {
    EXPECT_EQ(row[static_cast<size_t>(mgr_col)].AsString(),
              "mgr_" + row[1].AsString());
  }
}

TEST_F(QueryFixture, GroupByAggregates) {
  AggSpec count{AggFunc::kCount, nullptr, "cnt"};
  AggSpec total{AggFunc::kSum, Expr::Column(2), "total"};
  AggSpec avg{AggFunc::kAvg, Expr::Column(3), "avg_qty"};
  auto plan = PlanBuilder::Scan("orders")
                  .Aggregate({1}, {count, total, avg})
                  .Sort({{0, true}})
                  .Build();
  ResultSet rs = Run(plan);
  ASSERT_EQ(rs.num_rows(), 4u);
  // Sorted by region name: east, north, south, west.
  EXPECT_EQ(rs.rows[0][0], Value::Str("east"));
  EXPECT_EQ(rs.rows[1][0], Value::Str("north"));
  // Each region has 25 orders.
  for (const auto& row : rs.rows) EXPECT_EQ(row[1], Value::Int(25));
  // north = ids 0,4,8,...,96 -> amounts 0,6,12,... = 1.5 * 4 * (0+1+..+24)
  EXPECT_EQ(rs.rows[1][2], Value::Dbl(1.5 * 4 * 300));
}

TEST_F(QueryFixture, GlobalAggregateOnEmptyInput) {
  AggSpec count{AggFunc::kCount, nullptr, "cnt"};
  auto plan = PlanBuilder::Scan("orders")
                  .Filter(Expr::Compare(CmpOp::kGt, Expr::Column(0),
                                        Expr::Literal(Value::Int(100000))))
                  .Aggregate({}, {count})
                  .Build();
  ResultSet rs = Run(plan);
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value::Int(0));
}

TEST_F(QueryFixture, AggregateWithoutFunctionsDedupsRows) {
  // The DISTINCT lowering shape: group-by columns, no aggregate functions.
  // Output keeps the input column names and first-occurrence order.
  ResultSet rs = Run(PlanBuilder::Scan("orders").Aggregate({1, 3}, {}).Build());
  EXPECT_EQ(rs.num_rows(), 20u);  // (i%4, i%10) repeats with period lcm = 20
  ASSERT_EQ(rs.num_columns(), 2u);
  EXPECT_EQ(rs.column_names[0], "region");
  EXPECT_EQ(rs.column_names[1], "qty");
  EXPECT_EQ(rs.rows[0][0], Value::Str("north"));
  EXPECT_EQ(rs.rows[0][1], Value::Int(0));
  EXPECT_EQ(rs.rows[1][0], Value::Str("south"));  // row 1 seen before repeats
}

TEST_F(QueryFixture, DistinctSqlRoundTripThroughDatabaseExecute) {
  // Full-stack round trip: the parser lowers DISTINCT, the compiled path
  // declines the aggregate-free shape, the interpreted executor dedups.
  auto rs = db_.Execute("SELECT DISTINCT region FROM orders ORDER BY region");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->num_rows(), 4u);
  EXPECT_EQ(rs->rows[0][0], Value::Str("east"));
  EXPECT_EQ(rs->rows[3][0], Value::Str("west"));

  // Sanity: the same statement without DISTINCT returns every row.
  auto all = db_.Execute("SELECT region FROM orders");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->num_rows(), 100u);
}

TEST_F(QueryFixture, MinMax) {
  AggSpec mn{AggFunc::kMin, Expr::Column(2), "mn"};
  AggSpec mx{AggFunc::kMax, Expr::Column(2), "mx"};
  ResultSet rs = Run(PlanBuilder::Scan("orders").Aggregate({}, {mn, mx}).Build());
  EXPECT_EQ(rs.rows[0][0], Value::Dbl(0.0));
  EXPECT_EQ(rs.rows[0][1], Value::Dbl(99 * 1.5));
}

TEST_F(QueryFixture, SortAndLimit) {
  auto plan = PlanBuilder::Scan("orders")
                  .Sort({{2, false}})  // amount desc
                  .Limit(3)
                  .Build();
  ResultSet rs = Run(plan);
  ASSERT_EQ(rs.num_rows(), 3u);
  EXPECT_EQ(rs.rows[0][0], Value::Int(99));
  EXPECT_EQ(rs.rows[2][0], Value::Int(97));
}

TEST_F(QueryFixture, MultiKeySort) {
  auto plan = PlanBuilder::Scan("orders").Sort({{3, true}, {0, false}}).Build();
  ResultSet rs = Run(plan);
  // First block: qty=0, ids descending (90, 80, ...).
  EXPECT_EQ(rs.rows[0][3], Value::Int(0));
  EXPECT_EQ(rs.rows[0][0], Value::Int(90));
  EXPECT_EQ(rs.rows[1][0], Value::Int(80));
}

TEST_F(QueryFixture, ScanSeesOnlySnapshot) {
  auto txn = tm_.Begin();
  ASSERT_TRUE(tm_.Insert(txn.get(), orders_,
                         {Value::Int(1000), Value::Str("north"), Value::Dbl(1.0),
                          Value::Int(1)})
                  .ok());
  // Uncommitted row invisible to a fresh auto-commit view...
  ResultSet rs = Run(PlanBuilder::Scan("orders").Build());
  EXPECT_EQ(rs.num_rows(), 100u);
  // ...but visible inside the transaction.
  Executor exec(&db_, txn->View());
  auto inside = exec.Execute(PlanBuilder::Scan("orders").Build());
  ASSERT_TRUE(inside.ok());
  EXPECT_EQ(inside->num_rows(), 101u);
  ASSERT_TRUE(tm_.Abort(txn.get()).ok());
}

TEST_F(QueryFixture, IdRangeScanUsedAfterMerge) {
  orders_->Merge();
  auto plan = PlanBuilder::Scan("orders")
                  .Filter(Expr::Compare(CmpOp::kLt, Expr::Column(0),
                                        Expr::Literal(Value::Int(10))))
                  .Build();
  Optimizer opt;
  PlanPtr optimized = opt.Optimize(plan);
  ResultSet rs = Run(optimized);
  EXPECT_EQ(rs.num_rows(), 10u);
  EXPECT_EQ(last_stats_.id_range_scans, 1u);
}

// The dictionary-encoded main and the delta must agree: one predicate
// returns the same rows before Merge (delta, evaluated row by row) and
// after it (main, answered from value-id ranges where the shape allows).
TEST(IdRangeScanTest, MainAndDeltaReturnTheSameRows) {
  Database db;
  TransactionManager tm;
  ColumnTable* t = *db.CreateTable(
      "t", Schema({ColumnDef("k", DataType::kInt64), ColumnDef("tag", DataType::kInt64)}));
  auto txn = tm.Begin();
  int64_t tag = 0;
  for (const Value& k : {Value::Int(1), Value::Null(), Value::Int(5)}) {
    ASSERT_TRUE(tm.Insert(txn.get(), t, {k, Value::Int(tag++)}).ok());
  }
  ASSERT_TRUE(tm.Commit(txn.get()).ok());

  std::vector<ExprPtr> predicates;
  for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe, CmpOp::kGt, CmpOp::kGe}) {
    for (const Value& v : {Value::Int(0), Value::Int(1), Value::Int(3), Value::Int(5),
                           Value::Int(9), Value::Dbl(1.0), Value::Dbl(2.5), Value::Dbl(5.0),
                           Value::Null()}) {
      predicates.push_back(Expr::Compare(op, Expr::Column(0), Expr::Literal(v)));
    }
  }
  uint64_t id_range_scans = 0;
  auto run_all = [&] {
    std::vector<std::vector<Row>> out;
    for (const ExprPtr& p : predicates) {
      Executor exec(&db, tm.AutoCommitView());
      auto rs = exec.Execute(Optimizer().Optimize(PlanBuilder::Scan("t").Filter(p).Build()));
      EXPECT_TRUE(rs.ok()) << rs.status().ToString();
      out.push_back(rs.ok() ? rs->rows : std::vector<Row>{});
      id_range_scans += exec.stats().id_range_scans;
    }
    return out;
  };
  std::vector<std::vector<Row>> delta = run_all();
  t->Merge();
  id_range_scans = 0;
  std::vector<std::vector<Row>> main = run_all();
  EXPECT_GT(id_range_scans, 0u);  // the main store really took the id-range path
  for (size_t i = 0; i < predicates.size(); ++i) {
    EXPECT_EQ(delta[i], main[i]) << predicates[i]->ToString();
  }
}

// Scan counters belong to the scanning Database's registry, not to the
// process-wide one: two databases in one process keep disjoint counts, and
// an aggregate that folds its scan counts like a materializing scan.
TEST(ScanCountersTest, EachDatabaseCountsItsOwnScans) {
  metrics::Registry reg_a, reg_b;
  Database a, b;
  a.set_metrics_registry(&reg_a);
  b.set_metrics_registry(&reg_b);
  TransactionManager tm;
  Schema schema({ColumnDef("k", DataType::kInt64)});
  ColumnTable* ta = *a.CreateTable("t", schema);
  ColumnTable* tb = *b.CreateTable("t", schema);
  auto txn = tm.Begin();
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(tm.Insert(txn.get(), ta, {Value::Int(i)}).ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(tm.Insert(txn.get(), tb, {Value::Int(i)}).ok());
  ASSERT_TRUE(tm.Commit(txn.get()).ok());
  uint64_t process_rows = metrics::Default().counter("storage.scan.hot.rows")->Value();

  ASSERT_TRUE(a.Execute("SELECT * FROM t").ok());
  ASSERT_TRUE(a.Execute("SELECT COUNT(*) AS n FROM t").ok());
  ASSERT_TRUE(b.Execute("SELECT k FROM t WHERE k = 1").ok());
  EXPECT_EQ(reg_a.counter("storage.scan.hot.count")->Value(), 2u);
  EXPECT_EQ(reg_a.counter("storage.scan.hot.rows")->Value(), 20u);
  EXPECT_EQ(reg_a.counter("storage.scan.hot.bytes")->Value(), 80u);  // COUNT(*) reads none
  EXPECT_EQ(reg_b.counter("storage.scan.hot.count")->Value(), 1u);
  EXPECT_EQ(reg_b.counter("storage.scan.hot.rows")->Value(), 3u);
  EXPECT_EQ(reg_b.counter("storage.scan.hot.bytes")->Value(), 8u);
  EXPECT_EQ(metrics::Default().counter("storage.scan.hot.rows")->Value(), process_rows);
}

// ---------- Column pruning ----------

/// Plans the same SQL twice: pruned (the optimizer sees the catalog) and
/// unpruned (no catalog, so no table widths and no pruning).
class ColumnPruningFixture : public QueryFixture {
 protected:
  PlanPtr Plan(const std::string& sql, bool prune) {
    auto parsed = SqlParser(&db_).Parse(sql);
    EXPECT_TRUE(parsed.ok()) << sql << ": " << parsed.status().ToString();
    if (!parsed.ok()) return nullptr;
    return prune ? Optimizer(nullptr, &db_).Optimize(*parsed) : Optimizer().Optimize(*parsed);
  }

  static const PlanNode* FirstScan(const PlanNode& node) {
    if (node.kind == PlanKind::kScan) return &node;
    for (const PlanPtr& child : node.children) {
      if (const PlanNode* scan = FirstScan(*child)) return scan;
    }
    return nullptr;
  }

  /// Rows, row order and column names match the unpruned plan's.
  void ExpectSameAsUnpruned(const std::string& sql) {
    ResultSet pruned = Run(Plan(sql, true));
    ResultSet full = Run(Plan(sql, false));
    EXPECT_EQ(pruned.column_names, full.column_names) << sql;
    EXPECT_EQ(pruned.rows, full.rows) << sql;
  }
};

TEST_F(ColumnPruningFixture, ScansEmitOnlyTheColumnsThePlanReads) {
  const std::string sql =
      "SELECT region, SUM(amount) AS s FROM orders WHERE qty < 5 GROUP BY region";
  PlanPtr plan = Plan(sql, true);
  // qty is read only by the pushed predicate, o_id by nothing at all.
  EXPECT_NE(plan->ToString().find("Scan(orders, pred=($3 < 5), cols=[$1,$2])"),
            std::string::npos)
      << plan->ToString();
  ExpectSameAsUnpruned(sql);
  // SELECT * reads whole rows: nothing to prune.
  EXPECT_EQ(Plan("SELECT * FROM orders WHERE qty = 2", true)->ToString().find("cols="),
            std::string::npos);
}

TEST_F(ColumnPruningFixture, CountStarScansZeroColumns) {
  const std::string sql = "SELECT COUNT(*) AS n FROM orders";
  PlanPtr plan = Plan(sql, true);
  EXPECT_NE(plan->ToString().find("Scan(orders, cols=[])"), std::string::npos)
      << plan->ToString();
  ResultSet scanned = Run(std::make_shared<PlanNode>(*FirstScan(*plan)));
  EXPECT_EQ(scanned.num_rows(), 100u);
  EXPECT_EQ(scanned.num_columns(), 0u);
  EXPECT_TRUE(scanned.rows[0].empty());
  ExpectSameAsUnpruned(sql);
  auto rs = db_.Execute(sql);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows[0][0], Value::Int(100));
}

TEST_F(ColumnPruningFixture, IdRangePredicateColumnIsNotEmitted) {
  orders_->Merge();
  PlanPtr plan = Plan("SELECT amount FROM orders WHERE o_id = 7", true);
  const PlanNode* scan = FirstScan(*plan);
  ASSERT_TRUE(scan->scan_columns.has_value());
  EXPECT_EQ(*scan->scan_columns, std::vector<size_t>{2});
  ResultSet rs = Run(plan);
  EXPECT_EQ(last_stats_.id_range_scans, 1u);
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.rows[0], Row{Value::Dbl(10.5)});
  ResultSet scanned = Run(std::make_shared<PlanNode>(*scan));
  EXPECT_EQ(scanned.column_names, std::vector<std::string>{"amount"});
}

TEST_F(ColumnPruningFixture, PrunedPlansMatchUnprunedPlans) {
  // Join with a cross-side residual filter: region stays emitted for it.
  const std::string join =
      "SELECT o_id, manager FROM orders JOIN regions ON region = name "
      "WHERE region < manager AND qty = 3";
  EXPECT_NE(Plan(join, true)->ToString().find("cols=[$0,$1]"), std::string::npos)
      << Plan(join, true)->ToString();
  for (const std::string& sql :
       {join,
        std::string("SELECT region, SUM(amount) AS s FROM orders GROUP BY region "
                    "HAVING COUNT(*) > 10 AND MAX(qty) = 9"),
        std::string("SELECT DISTINCT qty FROM orders WHERE amount > 20"),
        std::string("SELECT o_id, amount FROM orders WHERE region = 'east' "
                    "ORDER BY amount DESC LIMIT 5"),
        std::string("SELECT manager, COUNT(*) AS n FROM orders JOIN regions "
                    "ON region = name GROUP BY manager"),
        std::string("SELECT * FROM orders WHERE qty = 2")}) {
    ExpectSameAsUnpruned(sql);
  }
}

// ---------- Optimizer tests ----------

TEST(OptimizerTest, PushesFilterIntoScan) {
  auto plan = PlanBuilder::Scan("t")
                  .Filter(Expr::Compare(CmpOp::kEq, Expr::Column(0),
                                        Expr::Literal(Value::Int(1))))
                  .Build();
  Optimizer opt;
  PlanPtr optimized = opt.Optimize(plan);
  EXPECT_EQ(optimized->kind, PlanKind::kScan);
  ASSERT_TRUE(optimized->scan_predicate != nullptr);
  EXPECT_EQ(opt.stats().filters_pushed, 1);
}

TEST(OptimizerTest, FoldsConstants) {
  Optimizer opt;
  auto e = Expr::Compare(CmpOp::kLt, Expr::Literal(Value::Int(1)),
                         Expr::Literal(Value::Int(2)));
  ExprPtr folded = opt.FoldConstants(e);
  EXPECT_EQ(folded->kind(), ExprKind::kLiteral);
  EXPECT_EQ(folded->literal(), Value::Boolean(true));
}

TEST(OptimizerTest, AndWithTrueSimplifies) {
  Optimizer opt;
  auto col_pred =
      Expr::Compare(CmpOp::kEq, Expr::Column(0), Expr::Literal(Value::Int(1)));
  auto e = Expr::And(Expr::Literal(Value::Boolean(true)), col_pred);
  ExprPtr folded = opt.FoldConstants(e);
  EXPECT_EQ(folded->kind(), ExprKind::kCompare);
}

TEST(OptimizerTest, TrueFilterEliminated) {
  auto plan =
      PlanBuilder::Scan("t").Filter(Expr::Literal(Value::Boolean(true))).Build();
  Optimizer opt;
  PlanPtr optimized = opt.Optimize(plan);
  EXPECT_EQ(optimized->kind, PlanKind::kScan);
  EXPECT_EQ(optimized->scan_predicate, nullptr);
}

TEST_F(QueryFixture, JoinConjunctPushdownPreservesResults) {
  // Mixed predicate: one left-only conjunct, one right-only, one spanning.
  auto predicate = Expr::And(
      Expr::And(
          Expr::Compare(CmpOp::kLt, Expr::Column(0), Expr::Literal(Value::Int(50))),
          Expr::Compare(CmpOp::kEq, Expr::Column(5),
                        Expr::Literal(Value::Str("mgr_north")))),
      Expr::Compare(CmpOp::kEq, Expr::Column(1), Expr::Column(4)));
  auto plan = PlanBuilder::Scan("orders")
                  .HashJoin(PlanBuilder::Scan("regions").Build(), 1, 0)
                  .Filter(predicate)
                  .Build();
  // Unoptimized reference.
  Executor ref_exec(&db_, tm_.AutoCommitView());
  auto ref = ref_exec.Execute(plan);
  ASSERT_TRUE(ref.ok());

  Optimizer opt(nullptr, &db_);
  PlanPtr optimized = opt.Optimize(plan);
  EXPECT_EQ(opt.stats().join_conjuncts_pushed, 2);
  Executor exec(&db_, tm_.AutoCommitView());
  auto rs = exec.Execute(optimized);
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->num_rows(), ref->num_rows());
  EXPECT_EQ(rs->num_rows(), 13u);  // ids 0,4,...,48 in north
  // Pushed conjuncts became scan predicates: the scans materialize less.
  EXPECT_LT(exec.stats().rows_materialized, ref_exec.stats().rows_materialized);
}

TEST_F(QueryFixture, JoinPushdownSkippedWithoutSchemaAccess) {
  auto plan = PlanBuilder::Scan("orders")
                  .HashJoin(PlanBuilder::Scan("regions").Build(), 1, 0)
                  .Filter(Expr::Compare(CmpOp::kLt, Expr::Column(0),
                                        Expr::Literal(Value::Int(5))))
                  .Build();
  Optimizer opt;  // no Database -> widths unknown -> rule must no-op safely
  PlanPtr optimized = opt.Optimize(plan);
  EXPECT_EQ(opt.stats().join_conjuncts_pushed, 0);
  Executor exec(&db_, tm_.AutoCommitView());
  auto rs = exec.Execute(optimized);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->num_rows(), 5u);
}

class FakePruner : public PartitionPruner {
 public:
  std::vector<std::string> Prune(const std::string& table,
                                 const ExprPtr&) const override {
    if (table == "orders") return {"orders_hot"};
    return {};
  }
};

TEST(OptimizerTest, PrunerInjectsPartitionList) {
  FakePruner pruner;
  Optimizer opt(&pruner);
  PlanPtr optimized = opt.Optimize(PlanBuilder::Scan("orders").Build());
  ASSERT_EQ(optimized->scan_partitions.size(), 1u);
  EXPECT_EQ(optimized->scan_partitions[0], "orders_hot");
}

// ---------- Compiled execution tests ----------

class CompiledFixture : public QueryFixture {};

TEST_F(CompiledFixture, GlobalSumMatchesInterpreter) {
  AggSpec revenue{AggFunc::kSum,
                  Expr::Arith(ArithOp::kMul, Expr::Column(2), Expr::Column(3)),
                  "revenue"};
  auto plan = PlanBuilder::Scan("orders")
                  .Filter(Expr::Compare(CmpOp::kGe, Expr::Column(0),
                                        Expr::Literal(Value::Int(20))))
                  .Aggregate({}, {revenue})
                  .Build();
  Optimizer opt;
  PlanPtr optimized = opt.Optimize(plan);

  ResultSet interp = Run(optimized);
  QueryCompiler qc(&db_, tm_.AutoCommitView());
  ASSERT_TRUE(qc.CanCompile(optimized));
  auto compiled = qc.Execute(optimized);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ASSERT_EQ(compiled->num_rows(), 1u);
  EXPECT_DOUBLE_EQ(compiled->rows[0][0].NumericValue(),
                   interp.rows[0][0].NumericValue());
}

TEST_F(CompiledFixture, GroupBySumMatchesInterpreter) {
  AggSpec total{AggFunc::kSum, Expr::Column(2), "total"};
  AggSpec cnt{AggFunc::kCount, nullptr, "cnt"};
  auto plan =
      PlanBuilder::Scan("orders").Aggregate({1}, {total, cnt}).Build();

  ResultSet interp = Run(PlanBuilder::From(plan).Sort({{0, true}}).Build());
  QueryCompiler qc(&db_, tm_.AutoCommitView());
  ASSERT_TRUE(qc.CanCompile(plan));
  auto compiled_rs = qc.Execute(plan);
  ASSERT_TRUE(compiled_rs.ok());
  std::sort(compiled_rs->rows.begin(), compiled_rs->rows.end(),
            [](const Row& a, const Row& b) { return a[0] < b[0]; });
  ASSERT_EQ(compiled_rs->num_rows(), interp.num_rows());
  for (size_t i = 0; i < interp.num_rows(); ++i) {
    EXPECT_EQ(compiled_rs->rows[i][0], interp.rows[i][0]);
    EXPECT_DOUBLE_EQ(compiled_rs->rows[i][1].NumericValue(),
                     interp.rows[i][1].NumericValue());
    EXPECT_EQ(compiled_rs->rows[i][2].NumericValue(), interp.rows[i][2].NumericValue());
  }
}

TEST_F(CompiledFixture, RespectsMvccVisibility) {
  auto txn = tm_.Begin();
  ASSERT_TRUE(tm_.Insert(txn.get(), orders_,
                         {Value::Int(5000), Value::Str("north"), Value::Dbl(1e6),
                          Value::Int(1)})
                  .ok());
  AggSpec total{AggFunc::kSum, Expr::Column(2), "total"};
  auto plan = PlanBuilder::Scan("orders").Aggregate({}, {total}).Build();
  QueryCompiler qc(&db_, tm_.AutoCommitView());
  auto rs = qc.Execute(plan);
  ASSERT_TRUE(rs.ok());
  EXPECT_LT(rs->rows[0][0].NumericValue(), 1e6);
  ASSERT_TRUE(tm_.Abort(txn.get()).ok());
}

TEST_F(CompiledFixture, UnsupportedShapesRejected) {
  QueryCompiler qc(&db_, tm_.AutoCommitView());
  // Join is not compilable.
  auto join = PlanBuilder::Scan("orders")
                  .HashJoin(PlanBuilder::Scan("regions").Build(), 1, 0)
                  .Build();
  EXPECT_FALSE(qc.CanCompile(join));
  EXPECT_EQ(qc.Execute(join).status().code(), StatusCode::kNotImplemented);
  // LIKE predicate is not compilable.
  auto like = PlanBuilder::Scan("orders")
                  .Filter(Expr::Like(Expr::Column(1), "no%"))
                  .Aggregate({}, {AggSpec{AggFunc::kCount, nullptr, "c"}})
                  .Build();
  Optimizer opt;
  EXPECT_FALSE(qc.CanCompile(opt.Optimize(like)));
}

TEST_F(CompiledFixture, AccessTrackingHonorsExecOptions) {
  struct RecordingObserver : AccessObserver {
    void OnAccess(const AccessEvent& event) override { events.push_back(event); }
    std::vector<AccessEvent> events;
  } obs;
  db_.set_access_observer(&obs);

  AggSpec cnt{AggFunc::kCount, nullptr, "c"};
  auto sweep = PlanBuilder::Scan("orders").Aggregate({}, {cnt}).Build();
  Optimizer opt;
  PlanPtr point = opt.Optimize(PlanBuilder::Scan("orders")
                                   .Filter(Expr::Compare(CmpOp::kEq, Expr::Column(0),
                                                         Expr::Literal(Value::Int(20))))
                                   .Aggregate({}, {cnt})
                                   .Build());

  // Session default: tracking on, a full sweep is not a point read.
  QueryCompiler qc(&db_, tm_.AutoCommitView());
  ASSERT_TRUE(qc.Execute(sweep).ok());
  ASSERT_EQ(obs.events.size(), 1u);
  EXPECT_EQ(obs.events[0].partition, "orders");
  EXPECT_FALSE(obs.events[0].point_read);

  // A PK-shaped predicate is classified as a point read, exactly like the
  // interpreted scan's ID-range fast path (keeps the 4x heat weighting).
  ASSERT_TRUE(qc.CanCompile(point));
  ASSERT_TRUE(qc.Execute(point).ok());
  ASSERT_EQ(obs.events.size(), 2u);
  EXPECT_TRUE(obs.events[1].point_read);

  db_.set_access_observer(nullptr);
}

// Property sweep: compiled == interpreted over random data/predicates.
class CompiledEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(CompiledEquivalence, RandomWorkload) {
  int seed = GetParam();
  Random rng(seed);
  Database db;
  TransactionManager tm;
  Schema s({ColumnDef("k", DataType::kInt64), ColumnDef("g", DataType::kInt64),
            ColumnDef("x", DataType::kDouble)});
  ColumnTable* t = *db.CreateTable("t", s);
  auto txn = tm.Begin();
  int n = 200 + static_cast<int>(rng.Uniform(300));
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(tm.Insert(txn.get(), t,
                          {Value::Int(static_cast<int64_t>(rng.Uniform(1000))),
                           Value::Int(static_cast<int64_t>(rng.Uniform(7))),
                           Value::Dbl(rng.NextDouble() * 100)})
                    .ok());
  }
  ASSERT_TRUE(tm.Commit(txn.get()).ok());
  if (seed % 2 == 0) t->Merge();  // half the sweep exercises merged tables

  int64_t cut = static_cast<int64_t>(rng.Uniform(1000));
  auto plan =
      PlanBuilder::Scan("t")
          .Filter(Expr::Compare(CmpOp::kLt, Expr::Column(0),
                                Expr::Literal(Value::Int(cut))))
          .Aggregate({1}, {AggSpec{AggFunc::kSum, Expr::Column(2), "s"},
                           AggSpec{AggFunc::kCount, nullptr, "c"}})
          .Build();
  Optimizer opt;
  PlanPtr optimized = opt.Optimize(plan);

  Executor exec(&db, tm.AutoCommitView());
  auto interp = exec.Execute(optimized);
  ASSERT_TRUE(interp.ok());
  QueryCompiler qc(&db, tm.AutoCommitView());
  ASSERT_TRUE(qc.CanCompile(optimized));
  auto comp = qc.Execute(optimized);
  ASSERT_TRUE(comp.ok());

  auto sort_rows = [](ResultSet* rs) {
    std::sort(rs->rows.begin(), rs->rows.end(),
              [](const Row& a, const Row& b) { return a[0] < b[0]; });
  };
  sort_rows(&*interp);
  sort_rows(&*comp);
  ASSERT_EQ(interp->num_rows(), comp->num_rows()) << "seed=" << seed;
  for (size_t i = 0; i < interp->num_rows(); ++i) {
    EXPECT_EQ(interp->rows[i][0], comp->rows[i][0]);
    EXPECT_NEAR(interp->rows[i][1].NumericValue(), comp->rows[i][1].NumericValue(),
                1e-6);
    EXPECT_EQ(interp->rows[i][2].NumericValue(), comp->rows[i][2].NumericValue());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledEquivalence, ::testing::Range(1, 13));

}  // namespace
}  // namespace poly
