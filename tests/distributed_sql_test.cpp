#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "query/executor.h"
#include "query/optimizer.h"
#include "query/sql_parser.h"
#include "soe/sql_bridge.h"
#include "soe_test_util.h"
#include "txn/transaction_manager.h"

namespace poly {
namespace {

// ---------- helpers ----------

/// Rows as a sorted multiset for order-insensitive comparison.
std::vector<Row> SortedRows(const ResultSet& rs) {
  std::vector<Row> rows = rs.rows;
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      if (a[i] < b[i]) return true;
      if (b[i] < a[i]) return false;
    }
    return a.size() < b.size();
  });
  return rows;
}

std::string RowsToString(const std::vector<Row>& rows, size_t max_rows = 8) {
  std::string out;
  for (size_t i = 0; i < rows.size() && i < max_rows; ++i) {
    out += "  [";
    for (size_t c = 0; c < rows[i].size(); ++c) {
      if (c) out += ", ";
      out += rows[i][c].ToString();
    }
    out += "]\n";
  }
  if (rows.size() > max_rows) out += "  ... (" + std::to_string(rows.size()) + " total)\n";
  return out;
}

// ---------- fixture: 4-node cluster + single-node mirror ----------

/// The oracle setup: every committed row goes both to the distributed
/// cluster and to a single-node mirror database, so any SQL statement can
/// be checked for row-set equality between the distributed execution and
/// the local executor over the union of the data. All value columns are
/// integers — partial-aggregate merging is then exact, so the comparison
/// is equality, not tolerance.
class DistributedSqlFixture : public ::testing::Test {
 protected:
  DistributedSqlFixture() : cluster_(MakeOptions()), bridge_(&cluster_) {}

  static SoeCluster::Options MakeOptions() {
    SoeCluster::Options opts;
    opts.num_nodes = 4;
    return opts;
  }

  void CreateBothTables(const std::string& name, const Schema& schema,
                        const PartitionSpec& spec, int replication) {
    ASSERT_TRUE(cluster_.CreateTable(name, schema, spec, replication).ok());
    ASSERT_TRUE(local_.CreateTable(name, schema).ok());
  }

  void CommitBoth(const std::string& table, const std::vector<Row>& rows) {
    ASSERT_TRUE(cluster_.CommitInserts(table, rows).ok());
    ColumnTable* t = *local_.GetTable(table);
    auto txn = tm_.Begin();
    for (const Row& row : rows) ASSERT_TRUE(tm_.Insert(txn.get(), t, row).ok());
    ASSERT_TRUE(tm_.Commit(txn.get()).ok());
  }

  /// fact(k1, k2, v): 1000 rows, k1 in [0,10), k2 in [0,20), v = i.
  /// dim(id, w): 20 rows covering every k2, w = id * 7.
  void LoadStarSchema(int replication = 2) {
    CreateBothTables("fact",
                     Schema({ColumnDef("k1", DataType::kInt64),
                             ColumnDef("k2", DataType::kInt64),
                             ColumnDef("v", DataType::kInt64)}),
                     PartitionSpec::Hash("k1", 8), replication);
    CreateBothTables("dim",
                     Schema({ColumnDef("id", DataType::kInt64),
                             ColumnDef("w", DataType::kInt64)}),
                     PartitionSpec::Hash("id", 4), replication);
    std::vector<Row> fact;
    for (int i = 0; i < 1000; ++i) {
      fact.push_back({Value::Int(i % 10), Value::Int(i % 20), Value::Int(i)});
    }
    CommitBoth("fact", fact);
    std::vector<Row> dim;
    for (int i = 0; i < 20; ++i) {
      dim.push_back({Value::Int(i), Value::Int(i * 7)});
    }
    CommitBoth("dim", dim);
  }

  /// Ground truth: the same SQL through parser + optimizer + the
  /// single-node executor over the mirror database.
  StatusOr<ResultSet> Local(const std::string& sql) {
    return LocalWith(sql, Optimizer(nullptr, &local_));
  }

  /// The pruning oracle's reference: an optimizer without a catalog sees
  /// no table widths, so it prunes no columns.
  StatusOr<ResultSet> Unpruned(const std::string& sql) {
    return LocalWith(sql, Optimizer(nullptr, nullptr));
  }

  StatusOr<ResultSet> LocalWith(const std::string& sql, Optimizer opt) {
    SqlParser parser(&local_);
    POLY_ASSIGN_OR_RETURN(PlanPtr plan, parser.Parse(sql));
    plan = opt.Optimize(plan);
    Executor exec(&local_, tm_.AutoCommitView());
    return exec.Execute(plan);
  }

  void ExpectSameRows(const std::string& sql, const char* context) {
    auto dist = bridge_.Execute(sql);
    ASSERT_TRUE(dist.ok()) << context << ": " << sql << "\n"
                           << dist.status().ToString();
    auto base = Local(sql);
    ASSERT_TRUE(base.ok()) << context << ": " << sql << "\n"
                           << base.status().ToString();
    // Column pruning changes row width only: same rows, same order, same
    // names as the unpruned plan.
    auto unpruned = Unpruned(sql);
    ASSERT_TRUE(unpruned.ok()) << context << ": " << sql << "\n"
                               << unpruned.status().ToString();
    EXPECT_EQ(base->rows, unpruned->rows) << context << ": " << sql;
    EXPECT_EQ(base->column_names, unpruned->column_names) << context << ": " << sql;
    std::vector<Row> got = SortedRows(*dist);
    std::vector<Row> want = SortedRows(*base);
    ASSERT_EQ(got.size(), want.size())
        << context << ": " << sql << "\nplan:\n" << bridge_.AnnotatedPlan();
    EXPECT_EQ(got, want) << context << ": " << sql << "\ngot:\n"
                         << RowsToString(got) << "want:\n" << RowsToString(want)
                         << "plan:\n" << bridge_.AnnotatedPlan();
  }

  SoeCluster cluster_;
  SoeSqlBridge bridge_;
  Database local_;
  TransactionManager tm_;
};

// ---------- seeded oracle ----------

TEST_F(DistributedSqlFixture, DistributedSqlOracleFiftySeeds) {
  LoadStarSchema();
  // Half the seeds force the repartition path so both join strategies are
  // under oracle coverage (dim is small enough to broadcast by default).
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    std::mt19937_64 rng(seed);
    DistributedPlanner::Options popts;
    popts.broadcast_threshold_rows = (seed % 2 == 0) ? 0 : 2048;
    bridge_.set_planner_options(popts);
    int c = static_cast<int>(rng() % 1000);
    int k = static_cast<int>(rng() % 20);
    int k1 = static_cast<int>(rng() % 10);
    std::string sql;
    switch (rng() % 6) {
      case 0:
        sql = "SELECT k1, k2, SUM(v) AS s, COUNT(*) AS c FROM fact WHERE v < " +
              std::to_string(c) + " GROUP BY k1, k2";
        break;
      case 1:
        sql = "SELECT k1, SUM(v) AS s, AVG(v) AS a FROM fact WHERE k2 = " +
              std::to_string(k) + " GROUP BY k1";
        break;
      case 2:
        sql = "SELECT COUNT(*) AS c, SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi "
              "FROM fact WHERE k1 < " + std::to_string(k1);
        break;
      case 3:
        sql = "SELECT w, SUM(v) AS s, COUNT(*) AS c FROM fact "
              "JOIN dim ON k2 = id WHERE v < " + std::to_string(c) +
              " GROUP BY w";
        break;
      case 4:
        sql = "SELECT k1, w, v FROM fact JOIN dim ON k2 = id WHERE v < " +
              std::to_string(c % 100);
        break;
      default:
        sql = "SELECT k2, v FROM fact WHERE v >= " + std::to_string(c);
        break;
    }
    ExpectSameRows(sql, ("seed " + std::to_string(seed)).c_str());
  }
}

TEST_F(DistributedSqlFixture, PrunedShapesMatchOracle) {
  LoadStarSchema();
  for (uint64_t threshold : {uint64_t{2048}, uint64_t{0}}) {
    DistributedPlanner::Options popts;
    popts.broadcast_threshold_rows = threshold;
    bridge_.set_planner_options(popts);
    for (const char* sql : {
             // HAVING over a hidden aggregate the select list never shows.
             "SELECT k1, SUM(v) AS s FROM fact GROUP BY k1 HAVING COUNT(*) > 50 "
             "AND MAX(k2) = 19",
             "SELECT DISTINCT k2 FROM fact WHERE v < 500",
             "SELECT k1, SUM(v) AS s FROM fact GROUP BY k1 ORDER BY s DESC LIMIT 3",
             // Cross-side residual filter: k1 and w stay emitted for it.
             "SELECT k2, v FROM fact JOIN dim ON k2 = id WHERE k1 < w AND v < 300",
             "SELECT COUNT(*) AS c FROM fact",
             "SELECT COUNT(*) AS c FROM fact JOIN dim ON k2 = id WHERE w > 70",
         }) {
      ExpectSameRows(sql, ("threshold " + std::to_string(threshold)).c_str());
    }
  }
}

TEST_F(DistributedSqlFixture, StagesShipOnlyEmittedColumns) {
  LoadStarSchema();
  DistributedPlanner::Options popts;
  popts.broadcast_threshold_rows = 0;  // shuffle both sides
  const std::string sql = "SELECT w, SUM(v) AS s FROM fact JOIN dim ON k2 = id GROUP BY w";
  auto parsed = SqlParser(&local_).Parse(sql);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  // Runs the plan on the cluster; returns the node-to-node shuffle bytes.
  auto shuffle_bytes = [&](const PlanPtr& optimized, size_t fact_width) -> uint64_t {
    DistributedPlanner planner(&cluster_.catalog(), &cluster_.discovery(), popts);
    auto dplan = planner.Plan(optimized);
    EXPECT_TRUE(dplan.ok()) << dplan.status().ToString();
    if (!dplan.ok()) return 0;
    EXPECT_EQ(dplan->stages[0].label, "shuffle(fact)") << dplan->ToString();
    EXPECT_EQ(dplan->stages[0].output_width, fact_width) << dplan->ToString();
    EXPECT_TRUE(cluster_.RunFragments(*dplan).ok());
    return cluster_.last_query_stats().shuffle_bytes;
  };
  // fact's k1 is read by nothing: the shuffled fact rows carry (k2, v).
  uint64_t pruned = shuffle_bytes(Optimizer(nullptr, &local_).Optimize(*parsed), 2);
  uint64_t unpruned = shuffle_bytes(Optimizer(nullptr, nullptr).Optimize(*parsed), 3);
  EXPECT_LT(pruned, unpruned);

  bridge_.set_planner_options(popts);
  ExpectSameRows(sql, "pruned shuffle");
  EXPECT_NE(bridge_.AnnotatedPlan().find("Scan(fact, cols=[$1,$2])"), std::string::npos)
      << bridge_.AnnotatedPlan();
}

// ---------- strategy assertions (acceptance criteria) ----------

TEST_F(DistributedSqlFixture, TwoKeyGroupByRunsDistributed) {
  LoadStarSchema();
  ExpectSameRows(
      "SELECT k1, k2, SUM(v) AS s FROM fact GROUP BY k1, k2",
      "two-key group by");
  EXPECT_NE(bridge_.AnnotatedPlan().find("two-phase-aggregate"),
            std::string::npos)
      << bridge_.AnnotatedPlan();
  EXPECT_EQ(bridge_.AnnotatedPlan().find("strategy=gather"), std::string::npos)
      << bridge_.AnnotatedPlan();
  // The repartition stage really shuffled partials between nodes.
  EXPECT_GT(cluster_.last_query_stats().fragments, 0u);
}

TEST_F(DistributedSqlFixture, EquiJoinBroadcastsSmallSide) {
  LoadStarSchema();
  ExpectSameRows(
      "SELECT w, SUM(v) AS s FROM fact JOIN dim ON k2 = id GROUP BY w",
      "broadcast join");
  EXPECT_NE(bridge_.AnnotatedPlan().find("broadcast-join"), std::string::npos)
      << bridge_.AnnotatedPlan();
  EXPECT_EQ(bridge_.AnnotatedPlan().find("strategy=gather"), std::string::npos)
      << bridge_.AnnotatedPlan();
}

TEST_F(DistributedSqlFixture, EquiJoinShufflesWhenBothSidesLarge) {
  LoadStarSchema();
  DistributedPlanner::Options popts;
  popts.broadcast_threshold_rows = 0;  // force the repartition path
  bridge_.set_planner_options(popts);
  ExpectSameRows(
      "SELECT k1, w, v FROM fact JOIN dim ON k2 = id WHERE v < 50",
      "shuffle join");
  EXPECT_NE(bridge_.AnnotatedPlan().find("shuffle-join"), std::string::npos)
      << bridge_.AnnotatedPlan();
  EXPECT_GT(cluster_.last_query_stats().shuffle_bytes, 0u);
}

TEST_F(DistributedSqlFixture, ShuffledJoinMovesFewerCoordinatorBytesThanGather) {
  LoadStarSchema();
  metrics::Counter* gathered_bytes =
      cluster_.metrics().counter("soe.dqp.result_bytes");
  const std::string sql =
      "SELECT w, SUM(v) AS s FROM fact JOIN dim ON k2 = id GROUP BY w";

  uint64_t before = gathered_bytes->Value();
  ASSERT_TRUE(bridge_.Execute(sql).ok());
  uint64_t distributed = gathered_bytes->Value() - before;

  bridge_.set_force_gather(true);
  before = gathered_bytes->Value();
  ASSERT_TRUE(bridge_.Execute(sql).ok());
  uint64_t gather = gathered_bytes->Value() - before;
  bridge_.set_force_gather(false);

  // Distributed execution gathers 20 aggregate rows; gather-and-execute
  // ships all 1020 base rows to the coordinator.
  EXPECT_LT(distributed, gather)
      << "distributed=" << distributed << " gather=" << gather;
}

TEST_F(DistributedSqlFixture, AnnotatedPlanRecordsGatherFallback) {
  LoadStarSchema();
  // Three-way join: nested HashJoin input is beyond the planner's placeable
  // shapes, so the bridge must take (and record) the explicit last resort.
  auto rs = bridge_.Execute(
      "SELECT w FROM fact JOIN dim ON k2 = id JOIN dim ON k2 = id");
  if (rs.ok()) {
    EXPECT_NE(bridge_.AnnotatedPlan().find("strategy=gather"),
              std::string::npos)
        << bridge_.AnnotatedPlan();
  }
}

// ---------- satellite 1 regression: double-scan predicate pushdown ----------

TEST_F(DistributedSqlFixture, GatherOrCombinesPredicatesOfDoubleScans) {
  LoadStarSchema(/*replication=*/1);
  // Self-join beyond the SQL grammar: low rows joined to high rows on k1.
  // Before the fix, a table scanned twice was gathered UNFILTERED; now the
  // two scan predicates are OR-combined, each scan re-applies its own
  // predicate against the staged rows, and far fewer bytes move.
  ExprPtr low = Expr::Compare(CmpOp::kLt, Expr::Column(2), Expr::Literal(Value::Int(100)));
  ExprPtr high = Expr::Compare(CmpOp::kGe, Expr::Column(2), Expr::Literal(Value::Int(900)));
  PlanPtr left = PlanBuilder::Scan("fact").Build();
  left->scan_predicate = low;
  PlanPtr right = PlanBuilder::Scan("fact").Build();
  right->scan_predicate = high;
  PlanPtr join =
      PlanBuilder::From(std::move(left)).HashJoin(std::move(right), 0, 0).Build();

  metrics::Counter* gathered_bytes =
      cluster_.metrics().counter("soe.dqp.result_bytes");
  uint64_t before = gathered_bytes->Value();
  auto rs = bridge_.GatherAndExecute(join);
  uint64_t pushed = gathered_bytes->Value() - before;
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();

  // Ground truth on the mirror: 100 low rows x 10 high rows per k1 group.
  size_t expect = 0;
  for (int a = 0; a < 1000; ++a) {
    if (a >= 100) continue;
    for (int b = 900; b < 1000; ++b) {
      if (a % 10 == b % 10) ++expect;
    }
  }
  EXPECT_EQ(rs->num_rows(), expect);

  // An unfiltered gather of `fact` (what the old code shipped for every
  // multiply-scanned table) moves strictly more coordinator bytes.
  before = gathered_bytes->Value();
  ASSERT_TRUE(RunPlanned(&cluster_, ScanOf("fact")).ok());
  uint64_t unfiltered = gathered_bytes->Value() - before;
  EXPECT_LT(pushed, unfiltered) << "pushed=" << pushed
                                << " unfiltered=" << unfiltered;
}

// ---------- `=` between int and double keys ----------

// Hash partition pruning routes `k = 5.0` to the partition that holds Int 5:
// values that `=` treats as equal hash alike, on an INT partition column
// and on a DOUBLE one holding Int values.
TEST_F(DistributedSqlFixture, PartitionPruningMatchesEqualIntAndDoubleLiterals) {
  CreateBothTables("t",
                   Schema({ColumnDef("k", DataType::kInt64), ColumnDef("v", DataType::kInt64)}),
                   PartitionSpec::Hash("k", 8), 2);
  CreateBothTables("u",
                   Schema({ColumnDef("d", DataType::kDouble), ColumnDef("v", DataType::kInt64)}),
                   PartitionSpec::Hash("d", 8), 2);
  std::vector<Row> rows;
  for (int i = 0; i < 200; ++i) rows.push_back({Value::Int(i % 20), Value::Int(i)});
  CommitBoth("t", rows);
  CommitBoth("u", rows);
  for (const char* sql : {"SELECT k, v FROM t WHERE k = 5.0", "SELECT k, v FROM t WHERE k = 5",
                          "SELECT k, v FROM t WHERE k = 5.5", "SELECT d, v FROM u WHERE d = 7.0",
                          "SELECT d, v FROM u WHERE d = 7"}) {
    ExpectSameRows(sql, "pruned point query");
    auto local = Local(sql);
    ASSERT_TRUE(local.ok());
    EXPECT_EQ(local->num_rows(), std::string(sql).find(".5") == std::string::npos ? 10u : 0u)
        << sql;
  }
}

// JOIN ON a = b matches keys as WHERE a = b compares them: numerically
// between int64 and double, never on NULL. A key column mixing Int k,
// Double k and Double k + 0.5 on both sides puts Int 5 and Double 5.0 into
// one build side; each probe value matches both, in ascending right row
// order. One node, and the SOE's broadcast and shuffle joins.
TEST_F(DistributedSqlFixture, JoinMatchesEqualIntAndDoubleKeys) {
  CreateBothTables("l",
                   Schema({ColumnDef("lk", DataType::kDouble), ColumnDef("lv", DataType::kInt64)}),
                   PartitionSpec::Hash("lv", 4), 2);
  CreateBothTables("r",
                   Schema({ColumnDef("rk", DataType::kDouble), ColumnDef("rv", DataType::kInt64)}),
                   PartitionSpec::Hash("rv", 4), 2);
  std::mt19937_64 rng(7);
  auto key = [&]() -> Value {
    int64_t k = static_cast<int64_t>(rng() % 6);
    switch (rng() % 4) {
      case 0: return Value::Int(k);
      case 1: return Value::Dbl(static_cast<double>(k));
      case 2: return Value::Dbl(static_cast<double>(k) + 0.5);
      default: return rng() % 2 ? Value::Null() : Value::Int(k);
    }
  };
  std::vector<Row> left, right;
  for (int i = 0; i < 40; ++i) left.push_back({key(), Value::Int(i)});
  for (int i = 0; i < 30; ++i) right.push_back({key(), Value::Int(100 + i)});
  CommitBoth("l", left);
  CommitBoth("r", right);

  // The reference: every (left, right) pair whose keys are `=`, in left
  // order, then right order.
  std::vector<Row> want;
  for (const Row& a : left) {
    for (const Row& b : right) {
      if (!a[0].is_null() && !b[0].is_null() && CompareValues(CmpOp::kEq, a[0], b[0])) {
        want.push_back({a[1], b[1]});
      }
    }
  }
  ASSERT_FALSE(want.empty());
  const std::string sql = "SELECT lv, rv FROM l JOIN r ON lk = rk";
  for (bool merged : {false, true}) {
    if (merged) {
      (*local_.GetTable("l"))->Merge();
      (*local_.GetTable("r"))->Merge();
    }
    auto local = Local(sql);
    ASSERT_TRUE(local.ok()) << local.status().ToString();
    EXPECT_EQ(local->rows, want) << "merged=" << merged;
  }
  for (uint64_t threshold : {uint64_t{2048}, uint64_t{0}}) {
    DistributedPlanner::Options popts;
    popts.broadcast_threshold_rows = threshold;
    bridge_.set_planner_options(popts);
    ExpectSameRows(sql, threshold ? "broadcast join" : "shuffle join");
    EXPECT_NE(bridge_.AnnotatedPlan().find(threshold ? "broadcast-join" : "shuffle-join"),
              std::string::npos)
        << bridge_.AnnotatedPlan();
  }
}

// ---------- chaos: node killed mid-shuffle ----------

TEST_F(DistributedSqlFixture, ChaosNodeKillMidShuffleStillMatchesOracle) {
  LoadStarSchema(/*replication=*/2);
  DistributedPlanner::Options popts;
  popts.broadcast_threshold_rows = 0;  // repartition path: real shuffles
  bridge_.set_planner_options(popts);

  // Schedule the kill a hair after the query starts: the clock only moves
  // with message traffic, so the crash fires at a task boundary in the
  // middle of the shuffle. Replication 2 keeps every partition readable;
  // per-task failover plus the bridge's re-plan must still produce the
  // oracle answer.
  uint64_t now = cluster_.network().virtual_nanos();
  cluster_.InstallFaultSchedule(FaultSchedule(
      {{now + 2000, FaultEvent::Kind::kCrashNode, 1, -1, 0.0}}));

  const std::string sql =
      "SELECT w, SUM(v) AS s, COUNT(*) AS c FROM fact JOIN dim ON k2 = id "
      "GROUP BY w";
  auto dist = bridge_.Execute(sql);
  ASSERT_TRUE(dist.ok()) << dist.status().ToString() << "\nplan:\n"
                         << bridge_.AnnotatedPlan();
  EXPECT_GT(cluster_.fault_events_fired(), 0u);

  auto base = Local(sql);
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(SortedRows(*dist), SortedRows(*base))
      << "plan:\n" << bridge_.AnnotatedPlan();
}

// ---------- executor unit tests: partial/final aggregate operators ----------

TEST(PartialAggExecutor, TwoPhaseMatchesDirectAggregate) {
  Database db;
  TransactionManager tm;
  ColumnTable* t = *db.CreateTable("t", Schema({ColumnDef("g", DataType::kInt64),
                                                ColumnDef("v", DataType::kInt64)}));
  auto txn = tm.Begin();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(tm.Insert(txn.get(), t, {Value::Int(i % 5), Value::Int(i)}).ok());
  }
  ASSERT_TRUE(tm.Commit(txn.get()).ok());

  std::vector<AggSpec> aggs = {{AggFunc::kSum, Expr::Column(1), "s"},
                               {AggFunc::kCount, nullptr, "c"},
                               {AggFunc::kAvg, Expr::Column(1), "a"},
                               {AggFunc::kMin, Expr::Column(1), "lo"},
                               {AggFunc::kMax, Expr::Column(1), "hi"}};
  Executor exec(&db, tm.AutoCommitView());
  auto direct = exec.Execute(
      PlanBuilder::Scan("t").Aggregate({0}, aggs).Build());
  ASSERT_TRUE(direct.ok());

  // Phase 1 (with a pass-through Exchange on top, as fragments carry it).
  auto partial = exec.Execute(PlanBuilder::Scan("t")
                                  .PartialAggregate({0}, aggs)
                                  .Exchange(ExchangeMode::kRepartition, {0})
                                  .Build());
  ASSERT_TRUE(partial.ok());
  PartialAggLayout layout = PartialAggLayout::For(aggs);
  ASSERT_EQ(partial->rows[0].size(), 1 + layout.num_slots());

  // Bind the partials into a row leaf under positional column names (as
  // RunFragments does for a staged input) and run phase 2.
  auto staged = std::make_shared<ResultSet>();
  for (size_t c = 0; c < 1 + layout.num_slots(); ++c) {
    staged->column_names.push_back("_c" + std::to_string(c));
  }
  staged->rows = partial->rows;
  auto final_rs = exec.Execute(
      PlanBuilder::Rows("stage", staged).FinalAggregate({0}, aggs).Build());
  ASSERT_TRUE(final_rs.ok()) << final_rs.status().ToString();

  EXPECT_EQ(SortedRows(*direct), SortedRows(*final_rs));
  EXPECT_EQ(final_rs->column_names,
            (std::vector<std::string>{"_c0", "s", "c", "a", "lo", "hi"}));
}

TEST(PartialAggExecutor, GlobalAggregateOverEmptyInputFinalizesToNulls) {
  Database db;
  TransactionManager tm;
  (void)*db.CreateTable("t", Schema({ColumnDef("v", DataType::kInt64)}));

  std::vector<AggSpec> aggs = {{AggFunc::kSum, Expr::Column(0), "s"},
                               {AggFunc::kCount, nullptr, "c"},
                               {AggFunc::kAvg, Expr::Column(0), "a"}};
  Executor exec(&db, tm.AutoCommitView());
  auto partial =
      exec.Execute(PlanBuilder::Scan("t").PartialAggregate({}, aggs).Build());
  ASSERT_TRUE(partial.ok());
  ASSERT_EQ(partial->num_rows(), 1u);  // global aggregate: one row, even empty

  PartialAggLayout layout = PartialAggLayout::For(aggs);
  auto staged = std::make_shared<ResultSet>();
  for (size_t c = 0; c < layout.num_slots(); ++c) {
    staged->column_names.push_back("_c" + std::to_string(c));
  }
  staged->rows = partial->rows;
  auto final_rs = exec.Execute(
      PlanBuilder::Rows("stage", staged).FinalAggregate({}, aggs).Build());
  ASSERT_TRUE(final_rs.ok()) << final_rs.status().ToString();
  ASSERT_EQ(final_rs->num_rows(), 1u);
  EXPECT_TRUE(final_rs->rows[0][0].is_null());      // SUM of nothing
  EXPECT_EQ(final_rs->rows[0][1], Value::Int(0));   // COUNT of nothing
  EXPECT_TRUE(final_rs->rows[0][2].is_null());      // AVG of nothing
}

TEST(PartialAggExecutor, ExchangeIsPassThrough) {
  Database db;
  TransactionManager tm;
  ColumnTable* t = *db.CreateTable("t", Schema({ColumnDef("v", DataType::kInt64)}));
  auto txn = tm.Begin();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(tm.Insert(txn.get(), t, {Value::Int(i)}).ok());
  }
  ASSERT_TRUE(tm.Commit(txn.get()).ok());
  Executor exec(&db, tm.AutoCommitView());
  auto rs = exec.Execute(
      PlanBuilder::Scan("t").Exchange(ExchangeMode::kBroadcast).Build());
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->num_rows(), 10u);
}

}  // namespace
}  // namespace poly
