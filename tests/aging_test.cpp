#include <gtest/gtest.h>

#include "aging/aging.h"
#include "aging/extended_storage.h"
#include "hadoop/dfs_tier_store.h"
#include "query/executor.h"

namespace poly {
namespace {

class AgingFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    // orders(id, year, open); invoices(id, order_id, year, paid)
    orders_ = *db_.CreateTable(
        "orders", Schema({ColumnDef("id", DataType::kInt64),
                          ColumnDef("year", DataType::kInt64),
                          ColumnDef("open", DataType::kBool)}));
    invoices_ = *db_.CreateTable(
        "invoices", Schema({ColumnDef("id", DataType::kInt64),
                            ColumnDef("order_id", DataType::kInt64),
                            ColumnDef("year", DataType::kInt64),
                            ColumnDef("paid", DataType::kBool)}));
    auto txn = tm_.Begin();
    // Orders 1-4 from 2024 closed, 5 from 2024 OPEN, 6-10 from 2026 mixed.
    for (int i = 1; i <= 10; ++i) {
      int year = i <= 5 ? 2024 : 2026;
      bool open = (i == 5) || (i > 8);
      ASSERT_TRUE(tm_.Insert(txn.get(), orders_,
                             {Value::Int(i), Value::Int(year), Value::Boolean(open)})
                      .ok());
      // One invoice per order, paid unless order open.
      ASSERT_TRUE(tm_.Insert(txn.get(), invoices_,
                             {Value::Int(100 + i), Value::Int(i), Value::Int(year),
                              Value::Boolean(!open)})
                      .ok());
    }
    ASSERT_TRUE(tm_.Commit(txn.get()).ok());
  }

  /// "age closed orders older than 2026" with guarantee year < 2026.
  AgingRule OrderRule() {
    AgingRule rule;
    rule.name = "orders_rule";
    rule.table = "orders";
    rule.predicate = Expr::And(
        Expr::Compare(CmpOp::kLt, Expr::Column(1), Expr::Literal(Value::Int(2026))),
        Expr::Compare(CmpOp::kEq, Expr::Column(2), Expr::Literal(Value::Boolean(false))));
    rule.guarantee = {"year", CmpOp::kLt, Value::Int(2026)};
    return rule;
  }

  /// invoices age when paid & old & their order is aged (dependency!).
  AgingRule InvoiceRule() {
    AgingRule rule;
    rule.name = "invoices_rule";
    rule.table = "invoices";
    rule.predicate = Expr::And(
        Expr::Compare(CmpOp::kLt, Expr::Column(2), Expr::Literal(Value::Int(2026))),
        Expr::Compare(CmpOp::kEq, Expr::Column(3), Expr::Literal(Value::Boolean(true))));
    rule.guarantee = {"year", CmpOp::kLt, Value::Int(2026)};
    rule.guard = JoinGuard{"order_id", "orders", "id"};
    rule.depends_on = {"orders_rule"};
    return rule;
  }

  Database db_;
  TransactionManager tm_;
  ColumnTable* orders_ = nullptr;
  ColumnTable* invoices_ = nullptr;
};

TEST_F(AgingFixture, RunAgingMovesMatchingRows) {
  AgingManager mgr(&db_, &tm_);
  ASSERT_TRUE(mgr.AddRule(OrderRule()).ok());
  auto stats = mgr.RunAging();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->rows_aged, 4u);  // orders 1-4 (5 is open)
  ReadView now = tm_.AutoCommitView();
  EXPECT_EQ(orders_->Read().CountVisible(now), 6u);
  ColumnTable* aged = *db_.GetTable("orders$aged");
  EXPECT_EQ(aged->Read().CountVisible(now), 4u);
}

TEST_F(AgingFixture, DependencyGuardBlocksUntilParentAged) {
  AgingManager mgr(&db_, &tm_);
  ASSERT_TRUE(mgr.AddRule(InvoiceRule()).ok());
  ASSERT_TRUE(mgr.AddRule(OrderRule()).ok());
  // Dependency order respected even though invoice rule was added first:
  // orders age in the same pass, so invoices with aged orders age too.
  auto stats = mgr.RunAging();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rows_aged, 8u);  // 4 orders + 4 invoices
  ReadView now = tm_.AutoCommitView();
  ColumnTable* aged_inv = *db_.GetTable("invoices$aged");
  EXPECT_EQ(aged_inv->Read().CountVisible(now), 4u);
  // Invoice of order 5 (open, not aged) stayed hot despite being old+paid?
  // Order 5 is open so its invoice is unpaid -> predicate already false;
  // the guard counter counts rows matching predicate but blocked. Here 0.
  EXPECT_EQ(stats->rows_blocked_by_guard, 0u);
}

TEST_F(AgingFixture, GuardCountsBlockedRows) {
  // Make invoice 105 paid although its order is open -> predicate true but
  // guard blocks (order 5 never ages).
  ReadView now = tm_.AutoCommitView();
  uint64_t row105 = 0;
  {
    ColumnTable::ReadGuard g(invoices_);
    g.ScanVisible(now, [&](uint64_t r) {
      if (g.GetValue(r, 0).AsInt() == 105) row105 = r;
    });
  }
  auto txn = tm_.Begin();
  ASSERT_TRUE(tm_.Update(txn.get(), invoices_, row105,
                         {Value::Int(105), Value::Int(5), Value::Int(2024),
                          Value::Boolean(true)})
                  .ok());
  ASSERT_TRUE(tm_.Commit(txn.get()).ok());

  AgingManager mgr(&db_, &tm_);
  ASSERT_TRUE(mgr.AddRule(OrderRule()).ok());
  ASSERT_TRUE(mgr.AddRule(InvoiceRule()).ok());
  auto stats = mgr.RunAging();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rows_blocked_by_guard, 1u);
}

TEST_F(AgingFixture, CycleInDependenciesRejected) {
  AgingManager mgr(&db_, &tm_);
  AgingRule a = OrderRule();
  a.depends_on = {"invoices_rule"};
  AgingRule b = InvoiceRule();  // depends on orders_rule
  ASSERT_TRUE(mgr.AddRule(a).ok());
  EXPECT_FALSE(mgr.AddRule(b).ok());  // closes the cycle
}

TEST_F(AgingFixture, UnknownDependencyFailsAtRun) {
  AgingManager mgr(&db_, &tm_);
  AgingRule r = OrderRule();
  r.depends_on = {"ghost"};
  ASSERT_TRUE(mgr.AddRule(r).ok());
  EXPECT_FALSE(mgr.RunAging().ok());
}

TEST_F(AgingFixture, SemanticPruningSkipsAgedPartition) {
  AgingManager mgr(&db_, &tm_);
  ASSERT_TRUE(mgr.AddRule(OrderRule()).ok());
  ASSERT_TRUE(mgr.RunAging().ok());

  // Query: year >= 2026 -> guarantee year < 2026 contradicts -> hot only.
  auto recent = Expr::Compare(CmpOp::kGe, Expr::Column(1), Expr::Literal(Value::Int(2026)));
  EXPECT_EQ(mgr.Prune("orders", recent), std::vector<std::string>{"orders"});

  // Query: year >= 2020 -> may hit aged rows -> both partitions.
  auto old = Expr::Compare(CmpOp::kGe, Expr::Column(1), Expr::Literal(Value::Int(2020)));
  EXPECT_EQ(mgr.Prune("orders", old),
            (std::vector<std::string>{"orders", "orders$aged"}));

  // Unmanaged tables are not touched.
  EXPECT_TRUE(mgr.Prune("invoices", recent).empty());
}

TEST_F(AgingFixture, EqualityGuaranteePrunesEqualityPredicate) {
  // Regression: kEq guarantee vs kEq query atom must terminate and prune.
  AgingManager mgr(&db_, &tm_);
  AgingRule rule = OrderRule();
  rule.guarantee = {"open", CmpOp::kEq, Value::Boolean(false)};
  ASSERT_TRUE(mgr.AddRule(rule).ok());
  ASSERT_TRUE(mgr.RunAging().ok());

  auto open_query =
      Expr::Compare(CmpOp::kEq, Expr::Column(2), Expr::Literal(Value::Boolean(true)));
  EXPECT_EQ(mgr.Prune("orders", open_query), std::vector<std::string>{"orders"});
  auto closed_query =
      Expr::Compare(CmpOp::kEq, Expr::Column(2), Expr::Literal(Value::Boolean(false)));
  EXPECT_EQ(mgr.Prune("orders", closed_query).size(), 2u);
}

TEST_F(AgingFixture, PrunedQueryThroughOptimizerAndExecutor) {
  AgingManager mgr(&db_, &tm_);
  ASSERT_TRUE(mgr.AddRule(OrderRule()).ok());
  ASSERT_TRUE(mgr.RunAging().ok());

  Optimizer opt(&mgr);
  // Count all orders ever (must include aged partition).
  auto all = opt.Optimize(PlanBuilder::Scan("orders").Build());
  Executor exec(&db_, tm_.AutoCommitView());
  auto rs = exec.Execute(all);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->num_rows(), 10u);
  EXPECT_EQ(exec.stats().partitions_scanned, 2u);

  // Recent-only query scans one partition.
  auto recent_plan = opt.Optimize(
      PlanBuilder::Scan("orders")
          .Filter(Expr::Compare(CmpOp::kGe, Expr::Column(1),
                                Expr::Literal(Value::Int(2026))))
          .Build());
  Executor exec2(&db_, tm_.AutoCommitView());
  auto rs2 = exec2.Execute(recent_plan);
  ASSERT_TRUE(rs2.ok());
  EXPECT_EQ(rs2->num_rows(), 5u);
  EXPECT_EQ(exec2.stats().partitions_scanned, 1u);
}

TEST_F(AgingFixture, StatsPrunerWeakerThanSemanticRules) {
  AgingManager mgr(&db_, &tm_);
  ASSERT_TRUE(mgr.AddRule(OrderRule()).ok());
  ASSERT_TRUE(mgr.RunAging().ok());

  StatsPruner stats(&db_, &tm_);
  ASSERT_TRUE(stats.Analyze("orders", {"orders", "orders$aged"}, "year").ok());

  // year >= 2026: aged max year is 2024 -> stats CAN prune here.
  auto recent = Expr::Compare(CmpOp::kGe, Expr::Column(1), Expr::Literal(Value::Int(2026)));
  EXPECT_EQ(stats.Prune("orders", recent), std::vector<std::string>{"orders"});

  // But after ONE old open order stays hot, hot min==2024 too, so for a
  // "year <= 2024" query stats must scan both while the semantic rule knows
  // open orders never age -> an open-orders query (open == true) cannot be
  // pruned by stats at all since `open` has both values everywhere.
  auto old = Expr::Compare(CmpOp::kLe, Expr::Column(1), Expr::Literal(Value::Int(2024)));
  EXPECT_EQ(stats.Prune("orders", old).size(), 2u);
}

TEST(ExtendedStorageTest, DemotePromoteRoundTrip) {
  Database db;
  TransactionManager tm;
  ColumnTable* t = *db.CreateTable(
      "warmme", Schema({ColumnDef("id", DataType::kInt64)}));
  auto txn = tm.Begin();
  ASSERT_TRUE(tm.Insert(txn.get(), t, {Value::Int(7)}).ok());
  ASSERT_TRUE(tm.Commit(txn.get()).ok());

  ExtendedStorage storage;
  ASSERT_TRUE(storage.Demote(&db, "warmme").ok());
  EXPECT_FALSE(db.GetTable("warmme").ok());  // out of main memory
  EXPECT_TRUE(storage.Contains("warmme"));
  EXPECT_GT(storage.bytes_stored(), 0u);
  EXPECT_GT(storage.simulated_nanos(), 0.0);

  auto back = storage.Promote(&db, "warmme");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ((*back)->Read().CountVisible(LatestCommittedView()), 1u);
  // Promote MOVES: no warm residue, or a later cold demotion could sink a
  // stale copy while the real partition is hot (three-band invariant).
  EXPECT_FALSE(storage.Contains("warmme"));
  EXPECT_EQ(storage.bytes_stored(), 0u);
  EXPECT_FALSE(storage.Promote(&db, "never").ok());

  // A failed promote must not lose the only copy: demote again, shadow the
  // name in the hot catalog so AdoptTable refuses, and check the payload
  // is rolled back into the warm store.
  ASSERT_TRUE(storage.Demote(&db, "warmme").ok());
  ASSERT_TRUE(db.CreateTable("warmme", Schema({ColumnDef("id", DataType::kInt64)})).ok());
  EXPECT_FALSE(storage.Promote(&db, "warmme").ok());
  EXPECT_TRUE(storage.Contains("warmme"));
}

TEST(ExtendedStorageTest, ColdTierViaDfs) {
  Database db;
  TransactionManager tm;
  SimulatedDfs dfs;
  ColumnTable* t = *db.CreateTable("cold", Schema({ColumnDef("id", DataType::kInt64)}));
  auto txn = tm.Begin();
  ASSERT_TRUE(tm.Insert(txn.get(), t, {Value::Int(1)}).ok());
  ASSERT_TRUE(tm.Commit(txn.get()).ok());

  ExtendedStorage storage;
  DfsTierStore cold(&dfs);
  ASSERT_TRUE(storage.Demote(&db, "cold").ok());
  ASSERT_TRUE(cold.Sink(&storage, "cold").ok());
  EXPECT_FALSE(storage.Contains("cold"));  // moved on from warm tier
  EXPECT_TRUE(dfs.Exists(DfsTierStore::ColdPath("cold")));

  auto back = cold.PageIn(&db, "cold");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ((*back)->Read().CountVisible(LatestCommittedView()), 1u);
  // The partition lives in exactly one tier: paging in deletes the DFS file.
  EXPECT_FALSE(cold.Contains("cold"));
  EXPECT_FALSE(dfs.Exists(DfsTierStore::ColdPath("cold")));
}

}  // namespace
}  // namespace poly
