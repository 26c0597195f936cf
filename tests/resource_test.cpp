// Workload management (DESIGN.md §13): hierarchical memory budget,
// admission control with queueing/timeouts, and the pressure broker that
// turns high-water crossings into tiering spills. The load-bearing
// invariant is *balance*: every byte charged against the budget tree is
// released by the time its query (or table) dies — on success, on
// ResourceExhausted, on queue timeout. The ResourceBalance* oracle runs a
// seeded mixed workload and asserts the whole tree drains to zero.
// Admission*/Pressure* concurrency tests run under `ctest -L resource`
// and the whole-suite TSan gate.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <random>
#include <thread>
#include <vector>

#include "aging/extended_storage.h"
#include "hadoop/dfs.h"
#include "hadoop/dfs_tier_store.h"
#include "query/executor.h"
#include "resource/governor.h"
#include "tiering/daemon.h"
#include "txn/transaction_manager.h"

namespace poly {
namespace {

using resource::AdmissionController;
using resource::AdmissionTicket;
using resource::BudgetNode;
using resource::MemoryBudget;
using resource::PressureBroker;
using resource::Reservation;
using resource::ResourceGovernor;

// ------------------------------------------------------------ budget tree --

TEST(MemoryBudgetTest, ChargesRollUpToEveryAncestor) {
  metrics::Registry reg;
  MemoryBudget budget({/*total_limit_bytes=*/1024}, &reg);
  BudgetNode* cls = budget.GetOrCreateClass("olap", 512);
  std::unique_ptr<BudgetNode> query = budget.NewQueryNode(cls, 256, "olap/q0");

  ASSERT_TRUE(query->TryCharge(100).ok());
  EXPECT_EQ(query->used(), 100u);
  EXPECT_EQ(cls->used(), 100u);
  EXPECT_EQ(budget.root()->used(), 100u);
  EXPECT_EQ(reg.gauge("resource.used_bytes")->Value(), 100);
  EXPECT_EQ(reg.gauge("resource.class.olap.used_bytes")->Value(), 100);

  query->Release(100);
  EXPECT_EQ(query->used(), 0u);
  EXPECT_EQ(cls->used(), 0u);
  EXPECT_EQ(budget.root()->used(), 0u);
  EXPECT_EQ(reg.gauge("resource.used_bytes")->Value(), 0);
}

TEST(MemoryBudgetTest, OverLimitChargeRollsBackAtEveryLevel) {
  metrics::Registry reg;
  MemoryBudget budget({1024}, &reg);
  BudgetNode* cls = budget.GetOrCreateClass("olap", 512);
  std::unique_ptr<BudgetNode> query = budget.NewQueryNode(cls, 0, "olap/q0");

  ASSERT_TRUE(query->TryCharge(400).ok());
  // 400 + 200 > 512 trips the *class* limit after the query level already
  // charged: the rollback must restore both, and leave the gauges exact.
  Status st = query->TryCharge(200);
  ASSERT_TRUE(st.IsResourceExhausted()) << st.ToString();
  EXPECT_NE(st.message().find("olap"), std::string::npos) << st.message();
  EXPECT_EQ(query->used(), 400u);
  EXPECT_EQ(cls->used(), 400u);
  EXPECT_EQ(budget.root()->used(), 400u);
  EXPECT_EQ(reg.gauge("resource.used_bytes")->Value(), 400);
  EXPECT_EQ(reg.gauge("resource.class.olap.used_bytes")->Value(), 400);
  EXPECT_EQ(reg.counter("resource.denied")->Value(), 1u);
  query->Release(400);
}

TEST(MemoryBudgetTest, ForceChargeIgnoresLimits) {
  metrics::Registry reg;
  MemoryBudget budget({100}, &reg);
  BudgetNode* storage = budget.GetOrCreateClass("storage", 0);
  storage->ForceCharge(1000);  // storage can't unwind; never rejected
  EXPECT_EQ(budget.root()->used(), 1000u);
  EXPECT_TRUE(budget.above_high_water());
  storage->Release(1000);
  EXPECT_FALSE(budget.above_low_water());
}

TEST(MemoryBudgetTest, ReservationReleasesOnEveryPath) {
  metrics::Registry reg;
  MemoryBudget budget({0}, &reg);  // unlimited: accounting only
  BudgetNode* cls = budget.GetOrCreateClass("oltp", 0);
  {
    Reservation r(cls);
    ASSERT_TRUE(r.Grow(64).ok());
    ASSERT_TRUE(r.Grow(36).ok());
    EXPECT_EQ(r.held_bytes(), 100u);
    r.Shrink(30);
    EXPECT_EQ(r.held_bytes(), 70u);
    EXPECT_EQ(cls->used(), 70u);

    Reservation moved = std::move(r);
    EXPECT_EQ(moved.held_bytes(), 70u);
    EXPECT_EQ(r.held_bytes(), 0u);  // NOLINT(bugprone-use-after-move)
  }  // destructor of `moved` releases
  EXPECT_EQ(cls->used(), 0u);
  EXPECT_EQ(budget.root()->used(), 0u);

  // Unbound reservations are no-ops so executors can charge unconditionally.
  Reservation unbound;
  EXPECT_TRUE(unbound.Grow(1 << 20).ok());
}

TEST(MemoryBudgetTest, HighWaterCrossingNotifiesListener) {
  struct Recorder : resource::PressureListener {
    std::atomic<int> calls{0};
    std::atomic<uint64_t> last_used{0};
    void OnPressure(uint64_t used, uint64_t) override {
      calls.fetch_add(1);
      last_used.store(used);
    }
  };
  metrics::Registry reg;
  MemoryBudget budget({1000, /*high_water=*/0.8, /*low_water=*/0.5}, &reg);
  Recorder recorder;
  budget.set_pressure_listener(&recorder);

  BudgetNode* cls = budget.GetOrCreateClass("olap", 0);
  ASSERT_TRUE(cls->TryCharge(700).ok());
  EXPECT_EQ(recorder.calls.load(), 0);  // below 800: quiet
  ASSERT_TRUE(cls->TryCharge(150).ok());
  EXPECT_EQ(recorder.calls.load(), 1);
  EXPECT_EQ(recorder.last_used.load(), 850u);
  EXPECT_TRUE(budget.above_high_water());
  EXPECT_GE(reg.counter("resource.pressure.signals")->Value(), 1u);
  cls->Release(850);
}

TEST(MemoryBudgetTest, SnapshotListsRootAndClasses) {
  metrics::Registry reg;
  MemoryBudget budget({0}, &reg);
  budget.GetOrCreateClass("oltp", 0)->ForceCharge(10);
  auto snap = budget.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].first, "global");
  EXPECT_EQ(snap[0].second, 10u);
  EXPECT_EQ(snap[1].first, "oltp");
  EXPECT_EQ(snap[1].second, 10u);
  budget.GetOrCreateClass("oltp", 0)->Release(10);
}

// -------------------------------------------------------------- admission --

class AdmissionTest : public ::testing::Test {
 protected:
  AdmissionTest() : budget_({0}, &reg_), controller_(&budget_, &reg_) {}

  AdmissionController::ClassOptions Small(size_t slots, size_t queue,
                                          std::chrono::milliseconds timeout) {
    AdmissionController::ClassOptions o;
    o.max_concurrent = slots;
    o.max_queued = queue;
    o.queue_timeout = timeout;
    return o;
  }

  metrics::Registry reg_;
  MemoryBudget budget_;
  AdmissionController controller_;
};

TEST_F(AdmissionTest, GrantsSlotsUpToLimitThenTimesOut) {
  controller_.DefineClass("olap", Small(2, 4, std::chrono::milliseconds(30)));

  auto t1 = controller_.Admit("olap");
  auto t2 = controller_.Admit("olap");
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(controller_.active("olap"), 2u);

  // Saturated, nobody releases: the third queues and times out.
  auto t3 = controller_.Admit("olap");
  ASSERT_FALSE(t3.ok());
  EXPECT_TRUE(t3.status().IsResourceExhausted()) << t3.status().ToString();
  EXPECT_NE(t3.status().message().find("timeout"), std::string::npos);
  EXPECT_EQ(reg_.counter("resource.admission.olap.timeouts")->Value(), 1u);

  t1->Release();
  EXPECT_EQ(controller_.active("olap"), 1u);
}

TEST_F(AdmissionTest, ReleaseWakesQueuedQuery) {
  controller_.DefineClass("olap", Small(1, 4, std::chrono::seconds(10)));
  auto held = controller_.Admit("olap");
  ASSERT_TRUE(held.ok());

  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    auto t = controller_.Admit("olap");
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    admitted.store(true);
  });
  // Let the waiter reach the queue, then free the slot.
  while (controller_.queued("olap") == 0) std::this_thread::yield();
  EXPECT_FALSE(admitted.load());
  held->Release();
  waiter.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(reg_.counter("resource.admission.olap.admitted")->Value(), 2u);
  EXPECT_EQ(reg_.counter("resource.admission.olap.queued")->Value(), 1u);
}

TEST_F(AdmissionTest, FailFastAndFullQueueRejectImmediately) {
  auto fail_fast = Small(1, 16, std::chrono::seconds(10));
  fail_fast.fail_fast = true;
  controller_.DefineClass("batch", fail_fast);
  controller_.DefineClass("olap", Small(1, 0, std::chrono::seconds(10)));

  auto b1 = controller_.Admit("batch");
  ASSERT_TRUE(b1.ok());
  auto b2 = controller_.Admit("batch");
  ASSERT_FALSE(b2.ok());
  EXPECT_TRUE(b2.status().IsResourceExhausted());

  auto o1 = controller_.Admit("olap");
  ASSERT_TRUE(o1.ok());
  auto o2 = controller_.Admit("olap");  // queue bound 0: reject, don't wait
  ASSERT_FALSE(o2.ok());
  EXPECT_TRUE(o2.status().IsResourceExhausted());
  EXPECT_EQ(reg_.counter("resource.admission.olap.rejected")->Value(), 1u);
}

TEST_F(AdmissionTest, UnknownClassFallsBackToDefault) {
  controller_.DefineClass("oltp", Small(4, 4, std::chrono::milliseconds(50)));
  auto t = controller_.Admit("no-such-class");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->workload_class(), "oltp");
  auto empty = controller_.Admit("");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->workload_class(), "oltp");
}

TEST_F(AdmissionTest, TicketBudgetEnforcesPerQueryLimit) {
  auto opts = Small(2, 2, std::chrono::milliseconds(50));
  opts.per_query_limit_bytes = 128;
  controller_.DefineClass("olap", opts);

  auto t = controller_.Admit("olap");
  ASSERT_TRUE(t.ok());
  ASSERT_NE(t->budget(), nullptr);
  Reservation r(t->budget());
  EXPECT_TRUE(r.Grow(100).ok());
  Status st = r.Grow(100);
  EXPECT_TRUE(st.IsResourceExhausted()) << st.ToString();
  r.ReleaseAll();  // ticket destruction asserts the query node is balanced
}

// --------------------------------------------------------------- pressure --

TEST(PressureBrokerTest, RunOnceSpillsUntilBelowLowWater) {
  metrics::Registry reg;
  MemoryBudget budget({1000, 0.8, 0.5}, &reg);
  BudgetNode* storage = budget.GetOrCreateClass("storage", 0);
  storage->ForceCharge(900);

  PressureBroker broker(&budget);
  uint64_t asked = 0;
  broker.set_spill([&](uint64_t bytes) -> uint64_t {
    asked += bytes;
    uint64_t chunk = std::min<uint64_t>(storage->used(), 200);
    storage->Release(chunk);
    return chunk;
  });

  uint64_t freed = broker.RunOnce();
  EXPECT_GE(freed, 400u);  // 900 -> at or below 500
  EXPECT_FALSE(budget.above_low_water());
  EXPECT_GT(asked, 0u);
  EXPECT_GE(reg.counter("resource.pressure.events")->Value(), 1u);
  EXPECT_EQ(reg.counter("resource.pressure.spilled_bytes")->Value(), freed);
  storage->Release(storage->used());
}

TEST(PressureBrokerTest, StopsWhenSpillIsExhausted) {
  metrics::Registry reg;
  MemoryBudget budget({1000, 0.8, 0.5}, &reg);
  BudgetNode* storage = budget.GetOrCreateClass("storage", 0);
  storage->ForceCharge(900);

  PressureBroker broker(&budget);
  broker.set_spill([](uint64_t) -> uint64_t { return 0; });  // nothing evictable
  EXPECT_EQ(broker.RunOnce(), 0u);
  EXPECT_TRUE(budget.above_high_water());  // still under pressure, but no spin
  EXPECT_GE(reg.counter("resource.pressure.exhausted")->Value(), 1u);
  storage->Release(900);
}

TEST(PressureBrokerTest, BackgroundThreadReactsToHighWaterSignal) {
  metrics::Registry reg;
  MemoryBudget budget({1 << 20, 0.5, 0.25}, &reg);
  BudgetNode* storage = budget.GetOrCreateClass("storage", 0);

  PressureBroker::Options opts;
  opts.poll_period = std::chrono::milliseconds(5);
  PressureBroker broker(&budget, opts);
  std::mutex mu;
  uint64_t outstanding = 0;
  broker.set_spill([&](uint64_t bytes) -> uint64_t {
    std::lock_guard<std::mutex> lock(mu);
    uint64_t take = std::min(outstanding, bytes);
    storage->Release(take);
    outstanding -= take;
    return take;
  });
  broker.Start();
  ASSERT_TRUE(broker.running());

  // Charge first, record the spillable ballast second: the broker may only
  // ever release bytes that have already landed on the node.
  storage->ForceCharge(768 * 1024);  // 75% of the limit: over high water
  {
    std::lock_guard<std::mutex> lock(mu);
    outstanding = 768 * 1024;
  }

  // The broker thread must bring usage below low water on its own.
  for (int i = 0; i < 2000 && budget.above_low_water(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(budget.above_low_water());
  broker.Stop();
  EXPECT_FALSE(broker.running());
  std::lock_guard<std::mutex> lock(mu);
  storage->Release(outstanding);
  outstanding = 0;
}

/// End-to-end pressure -> spill-to-cold: a governed Database whose table
/// bytes push the budget over high water; the broker (bound to the tiering
/// daemon) demotes the coldest partitions straight through to the DFS cold
/// tier until the budget is back below low water.
TEST(PressureSpillTest, PressureDemotesColdestPartitionsToColdTier) {
  metrics::Registry reg;
  Database db;
  db.set_metrics_registry(&reg);
  TransactionManager tm;

  Schema schema({ColumnDef("id", DataType::kInt64),
                 ColumnDef("payload", DataType::kDouble)});
  auto seed_partition = [&](const std::string& name) {
    ColumnTable* t = *db.CreateTable(name, schema);
    auto txn = tm.Begin();
    for (int r = 0; r < 256; ++r) {
      ASSERT_TRUE(
          tm.Insert(txn.get(), t, {Value::Int(r), Value::Dbl(r * 0.5)}).ok());
    }
    ASSERT_TRUE(tm.Commit(txn.get()).ok());
  };
  constexpr int kPartitions = 12;
  for (int p = 0; p < kPartitions; ++p) {
    seed_partition("part" + std::to_string(p));
  }
  uint64_t per_partition = (*db.GetTable("part0"))->MemoryBytes();
  ASSERT_GT(per_partition, 0u);

  // Budget sized so the 12 loaded partitions sit at 100% of the limit:
  // decisively over high water the moment they are bound.
  ResourceGovernor::Options gopts;
  gopts.budget.total_limit_bytes = per_partition * kPartitions;
  gopts.budget.high_water = 0.6;
  gopts.budget.low_water = 0.4;
  gopts.pressure.min_spill_bytes = 1024;  // small scale: modest hysteresis
  ResourceGovernor gov(gopts, &reg);
  for (int p = 0; p < kPartitions; ++p) {
    (*db.GetTable("part" + std::to_string(p)))
        ->BindMemoryBudget(gov.storage_node());
  }
  ASSERT_TRUE(gov.budget().above_high_water())
      << gov.budget().used_bytes() << " / " << gopts.budget.total_limit_bytes;

  ExtendedStorage warm;
  SimulatedDfs dfs;
  DfsTierStore cold(&dfs);
  tiering::TieringDaemon daemon(&db, &warm, &cold, {});
  for (int p = 0; p < kPartitions; ++p) daemon.Manage("part" + std::to_string(p));
  // Heat up a couple of partitions so the spill has a "coldest first" order
  // to respect: the hot ones must survive.
  Executor exec(&db, tm.AutoCommitView());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(exec.Execute(PlanBuilder::Scan("part0").Build()).ok());
    ASSERT_TRUE(exec.Execute(PlanBuilder::Scan("part1").Build()).ok());
  }
  daemon.heat().AdvanceEpoch();

  daemon.BindPressureBroker(&gov.pressure());
  uint64_t freed = gov.pressure().RunOnce();
  EXPECT_GT(freed, 0u);
  EXPECT_FALSE(gov.budget().above_low_water())
      << gov.budget().used_bytes() << " used";

  // Spilled partitions went all the way to the cold tier; hot ones survive.
  EXPECT_TRUE(db.GetTable("part0").ok());
  EXPECT_TRUE(db.GetTable("part1").ok());
  int spilled = 0;
  for (int p = 0; p < kPartitions; ++p) {
    std::string name = "part" + std::to_string(p);
    if (!db.GetTable(name).ok()) {
      EXPECT_TRUE(cold.Contains(name)) << name << " must be in the cold tier";
      ++spilled;
    }
  }
  EXPECT_GE(spilled, 1);
  EXPECT_GE(reg.counter("tier.daemon.cold_demotes")->Value(),
            static_cast<uint64_t>(spilled));
  EXPECT_GE(reg.counter("tier.daemon.pressure_spills")->Value(), 1u);
  EXPECT_GE(reg.counter("resource.pressure.spilled_bytes")->Value(), freed);

  gov.pressure().Stop();
  // Drop the surviving bound tables before the governor (declared after the
  // db) is destroyed, and verify storage accounting drains to zero with them.
  for (int p = 0; p < kPartitions; ++p) {
    (void)db.DropTable("part" + std::to_string(p));
  }
  EXPECT_EQ(gov.storage_node()->used(), 0u);
}

// ---------------------------------------------------------------- governor --

TEST(GovernorTest, DatabaseExecuteRoutesThroughAdmission) {
  metrics::Registry reg;
  Database db;
  db.set_metrics_registry(&reg);
  TransactionManager tm;
  ColumnTable* t = *db.CreateTable(
      "kv", Schema({ColumnDef("k", DataType::kInt64),
                    ColumnDef("v", DataType::kInt64)}));
  auto txn = tm.Begin();
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(tm.Insert(txn.get(), t, {Value::Int(i), Value::Int(i * i)}).ok());
  }
  ASSERT_TRUE(tm.Commit(txn.get()).ok());

  ResourceGovernor::Options gopts;
  gopts.budget.total_limit_bytes = 64 << 20;
  ResourceGovernor gov(gopts, &reg);
  db.set_resource_governor(&gov);

  ExecOptions opts;
  opts.workload_class = "olap";
  auto rs = db.Execute("SELECT COUNT(*) AS n FROM kv", opts);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows[0][0], Value::Int(32));
  EXPECT_EQ(reg.counter("resource.admission.olap.admitted")->Value(), 1u);

  // Unnamed work lands in the default class.
  ASSERT_TRUE(db.Execute("SELECT * FROM kv").ok());
  EXPECT_EQ(reg.counter("resource.admission.oltp.admitted")->Value(), 1u);

  // After both queries every class is balanced.
  for (const auto& [name, used] : gov.budget().Snapshot()) {
    if (name == "global" || name == "storage") continue;
    EXPECT_EQ(used, 0u) << name;
  }
  db.set_resource_governor(nullptr);
}

TEST(GovernorTest, OverBudgetQueryFailsWithResourceExhaustedNotOom) {
  metrics::Registry reg;
  Database db;
  db.set_metrics_registry(&reg);
  TransactionManager tm;
  ColumnTable* t = *db.CreateTable(
      "big", Schema({ColumnDef("k", DataType::kInt64),
                     ColumnDef("v", DataType::kDouble)}));
  auto txn = tm.Begin();
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(tm.Insert(txn.get(), t, {Value::Int(i), Value::Dbl(i * 1.0)}).ok());
  }
  ASSERT_TRUE(tm.Commit(txn.get()).ok());

  ResourceGovernor::Options gopts;
  gopts.budget.total_limit_bytes = 64 << 20;
  AdmissionController::ClassOptions olap;
  olap.max_concurrent = 2;
  olap.per_query_limit_bytes = 4 * 1024;  // far below a full-table result
  AdmissionController::ClassOptions oltp;
  oltp.max_concurrent = 8;
  gopts.classes = {{"olap", olap}, {"oltp", oltp}};
  gopts.default_class = "oltp";
  ResourceGovernor gov(gopts, &reg);
  db.set_resource_governor(&gov);

  ExecOptions opts;
  opts.workload_class = "olap";
  auto rs = db.Execute("SELECT * FROM big", opts);
  ASSERT_FALSE(rs.ok());
  EXPECT_TRUE(rs.status().IsResourceExhausted()) << rs.status().ToString();

  // The failure path released everything it had charged.
  for (const auto& [name, used] : gov.budget().Snapshot()) {
    if (name == "storage" || name == "global") continue;
    EXPECT_EQ(used, 0u) << name;
  }
  // A selective query in the same class still fits: predicate pushdown
  // means the scan materializes one row, not four thousand.
  auto small = db.Execute("SELECT v FROM big WHERE k = 17", opts);
  ASSERT_TRUE(small.ok()) << small.status().ToString();
  ASSERT_EQ(small->rows.size(), 1u);
  EXPECT_EQ(small->rows[0][0], Value::Dbl(17.0));
  db.set_resource_governor(nullptr);
}

// An aggregate that folds its scan or join charges the selection vector,
// the match pairs and the group table instead of materialized rows: a tiny
// per-query limit still stops it with ResourceExhausted, a roomier one lets
// it finish where the materialized SELECT * does not, and the budget
// balances to zero on every path.
TEST(GovernorTest, FoldedAggregateChargesSelectionsAndGroups) {
  metrics::Registry reg;
  Database db;
  db.set_metrics_registry(&reg);
  TransactionManager tm;
  ColumnTable* big = *db.CreateTable(
      "big", Schema({ColumnDef("k", DataType::kInt64), ColumnDef("g", DataType::kInt64),
                     ColumnDef("v", DataType::kDouble), ColumnDef("note", DataType::kString)}));
  ColumnTable* dim = *db.CreateTable(
      "dim", Schema({ColumnDef("dk", DataType::kInt64), ColumnDef("label", DataType::kString)}));
  auto txn = tm.Begin();
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(tm.Insert(txn.get(), big,
                          {Value::Int(i), Value::Int(i % 4), Value::Dbl(i * 1.0),
                           Value::Str("note-" + std::to_string(10000 + i))})
                    .ok());
  }
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(tm.Insert(txn.get(), dim, {Value::Int(i), Value::Str("d" + std::to_string(i))})
                    .ok());
  }
  ASSERT_TRUE(tm.Commit(txn.get()).ok());

  ResourceGovernor::Options gopts;
  gopts.budget.total_limit_bytes = 64 << 20;
  AdmissionController::ClassOptions tiny;
  tiny.per_query_limit_bytes = 4 * 1024;  // below one 4000-row selection
  AdmissionController::ClassOptions roomy;
  roomy.per_query_limit_bytes = 128 * 1024;  // selections fit, SELECT * rows do not
  gopts.classes = {{"tiny", tiny}, {"roomy", roomy}};
  gopts.default_class = "roomy";
  ResourceGovernor gov(gopts, &reg);
  db.set_resource_governor(&gov);
  auto expect_balanced = [&](const std::string& sql) {
    for (const auto& [name, used] : gov.budget().Snapshot()) {
      if (name == "storage" || name == "global") continue;
      EXPECT_EQ(used, 0u) << name << " after " << sql;
    }
  };

  const std::vector<std::string> folded = {
      "SELECT g, SUM(v) AS s FROM big GROUP BY g", "SELECT COUNT(*) AS n FROM big",
      "SELECT label, COUNT(*) AS n FROM big JOIN dim ON g = dk GROUP BY label"};
  ExecOptions opts;
  for (const std::string& sql : folded) {
    opts.workload_class = "tiny";
    auto rs = db.Execute(sql, opts);
    EXPECT_TRUE(rs.status().IsResourceExhausted()) << sql << ": " << rs.status().ToString();
    expect_balanced(sql);
    opts.workload_class = "roomy";
    rs = db.Execute(sql, opts);
    EXPECT_TRUE(rs.ok()) << sql << ": " << rs.status().ToString();
    expect_balanced(sql);
  }
  auto all = db.Execute("SELECT * FROM big", opts);
  EXPECT_TRUE(all.status().IsResourceExhausted()) << all.status().ToString();
  expect_balanced("SELECT * FROM big");
  db.set_resource_governor(nullptr);
}

TEST(GovernorTest, PerDatabaseRegistriesStayIsolated) {
  metrics::Registry reg_a, reg_b;
  // Governors before the Databases: bound tables must release into a live
  // governor at teardown.
  ResourceGovernor gov_a({}, &reg_a);
  ResourceGovernor gov_b({}, &reg_b);
  Database a, b;
  a.set_metrics_registry(&reg_a);
  b.set_metrics_registry(&reg_b);
  a.set_resource_governor(&gov_a);
  b.set_resource_governor(&gov_b);

  TransactionManager tm;
  ColumnTable* t = *a.CreateTable("only_a", Schema({ColumnDef("k", DataType::kInt64)}));
  auto txn = tm.Begin();
  ASSERT_TRUE(tm.Insert(txn.get(), t, {Value::Int(1)}).ok());
  ASSERT_TRUE(tm.Commit(txn.get()).ok());
  ASSERT_TRUE(a.Execute("SELECT * FROM only_a").ok());

  EXPECT_EQ(reg_a.counter("resource.admission.oltp.admitted")->Value(), 1u);
  EXPECT_EQ(reg_b.counter("resource.admission.oltp.admitted")->Value(), 0u);
  EXPECT_GT(reg_a.gauge("resource.class.storage.used_bytes")->Value(), 0);
  EXPECT_EQ(reg_b.gauge("resource.class.storage.used_bytes")->Value(), 0);
  a.set_resource_governor(nullptr);
  b.set_resource_governor(nullptr);
}

// ---------------------------------------------------------- balance oracle --

/// Seeded mixed-workload stress: OLTP point reads, OLAP scans that blow
/// their per-query budget, fail-fast batch work, and queue timeouts, all
/// racing across threads. Afterwards the budget tree must be exactly
/// balanced: every class at zero, the root holding only storage bytes.
TEST(ResourceBalanceOracle, MixedWorkloadDrainsToZero) {
  metrics::Registry reg;
  ResourceGovernor::Options gopts;
  gopts.budget.total_limit_bytes = 64 << 20;
  AdmissionController::ClassOptions oltp;
  oltp.max_concurrent = 8;
  oltp.queue_timeout = std::chrono::milliseconds(100);
  AdmissionController::ClassOptions olap;
  olap.max_concurrent = 2;
  olap.max_queued = 2;
  olap.queue_timeout = std::chrono::milliseconds(20);
  olap.per_query_limit_bytes = 16 * 1024;  // full scans of `big` must fail
  AdmissionController::ClassOptions batch;
  batch.max_concurrent = 1;
  batch.fail_fast = true;
  gopts.classes = {{"oltp", oltp}, {"olap", olap}, {"batch", batch}};
  gopts.default_class = "oltp";
  // The governor outlives the Database: bound tables release their storage
  // charges into it when the db (declared after) is destroyed first.
  ResourceGovernor gov(gopts, &reg);
  Database db;
  db.set_metrics_registry(&reg);
  db.set_resource_governor(&gov);  // before DDL: tables charge storage
  TransactionManager tm;

  Schema schema({ColumnDef("k", DataType::kInt64),
                 ColumnDef("v", DataType::kDouble)});
  ColumnTable* small = *db.CreateTable("small", schema);
  ColumnTable* big = *db.CreateTable("big", schema);
  auto txn = tm.Begin();
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(tm.Insert(txn.get(), small, {Value::Int(i), Value::Dbl(i * 1.0)}).ok());
  }
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(tm.Insert(txn.get(), big, {Value::Int(i), Value::Dbl(i * 1.0)}).ok());
  }
  ASSERT_TRUE(tm.Commit(txn.get()).ok());

  constexpr int kThreads = 6;
  constexpr int kQueriesPerThread = 30;
  std::atomic<int> ok_count{0}, exhausted{0}, other_errors{0};
  std::vector<std::thread> threads;
  for (int thread_id = 0; thread_id < kThreads; ++thread_id) {
    threads.emplace_back([&, thread_id] {
      std::mt19937 rng(1234 + thread_id);  // seeded: failures replay exactly
      for (int q = 0; q < kQueriesPerThread; ++q) {
        ExecOptions opts;
        std::string sql;
        switch (rng() % 4) {
          case 0:
            opts.workload_class = "oltp";
            sql = "SELECT v FROM small WHERE k = " + std::to_string(rng() % 64);
            break;
          case 1:
            opts.workload_class = "olap";
            sql = "SELECT * FROM big";  // over the per-query budget
            break;
          case 2:
            opts.workload_class = "olap";
            sql = "SELECT COUNT(*) AS n, SUM(v) AS s FROM big";
            break;
          default:
            opts.workload_class = "batch";
            sql = "SELECT SUM(v) AS s FROM small";
            break;
        }
        auto rs = db.Execute(sql, opts);
        if (rs.ok()) {
          ok_count.fetch_add(1);
        } else if (rs.status().IsResourceExhausted()) {
          exhausted.fetch_add(1);
        } else {
          other_errors.fetch_add(1);
          ADD_FAILURE() << sql << " -> " << rs.status().ToString();
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_GT(ok_count.load(), 0);
  EXPECT_GT(exhausted.load(), 0) << "workload must exercise the denial paths";
  EXPECT_EQ(other_errors.load(), 0);

  // The oracle: everything charged during the workload was released —
  // success paths, ResourceExhausted paths, and timeout paths alike.
  uint64_t storage_used = 0, root_used = 0;
  for (const auto& [name, used] : gov.budget().Snapshot()) {
    if (name == "global") {
      root_used = used;
    } else if (name == "storage") {
      storage_used = used;
      EXPECT_GT(used, 0u) << "tables stay charged while alive";
    } else {
      EXPECT_EQ(used, 0u) << "class '" << name << "' leaked bytes";
    }
  }
  EXPECT_EQ(root_used, storage_used) << "root must hold only storage bytes";
  EXPECT_EQ(reg.gauge("resource.used_bytes")->Value(),
            static_cast<int64_t>(storage_used));
  db.set_resource_governor(nullptr);
}

/// Concurrent admission under TSan: OLTP keeps flowing at full rate while
/// an over-subscribed OLAP class queues/times out and the pressure broker
/// spills storage ballast in the background — the three moving parts of the
/// governor exercised against each other (part of `ctest -L resource`,
/// whole-suite TSan gate).
TEST(AdmissionConcurrencyTest, OltpFlowsWhileOlapQueuesAndBrokerSpills) {
  metrics::Registry reg;
  ResourceGovernor::Options gopts;
  gopts.budget.total_limit_bytes = 1 << 20;
  gopts.budget.high_water = 0.5;
  gopts.budget.low_water = 0.25;
  AdmissionController::ClassOptions oltp;
  oltp.max_concurrent = 8;
  oltp.queue_timeout = std::chrono::milliseconds(500);
  AdmissionController::ClassOptions olap;
  olap.max_concurrent = 1;
  olap.max_queued = 1;
  olap.queue_timeout = std::chrono::milliseconds(2);
  gopts.classes = {{"oltp", oltp}, {"olap", olap}};
  gopts.default_class = "oltp";
  ResourceGovernor gov(gopts, &reg);

  // Spillable ballast on the storage node, drained by the broker thread.
  BudgetNode* storage = gov.storage_node();
  std::mutex ballast_mu;
  uint64_t ballast = 0;
  gov.pressure().set_spill([&](uint64_t bytes) -> uint64_t {
    std::lock_guard<std::mutex> lock(ballast_mu);
    uint64_t take = std::min(ballast, bytes);
    storage->Release(take);
    ballast -= take;
    return take;
  });
  gov.pressure().Start();

  std::atomic<int> oltp_denied{0}, olap_denied{0}, olap_ok{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([&] {  // flowing OLTP
      for (int q = 0; q < 200; ++q) {
        auto t = gov.AdmitQuery("oltp");
        if (!t.ok()) {
          oltp_denied.fetch_add(1);
          continue;
        }
        Reservation r(t->budget());
        ASSERT_TRUE(r.Grow(512).ok());
      }
    });
  }
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([&] {  // over-subscribed OLAP: queues, times out
      for (int q = 0; q < 50; ++q) {
        auto t = gov.AdmitQuery("olap");
        if (!t.ok()) {
          EXPECT_TRUE(t.status().IsResourceExhausted());
          olap_denied.fetch_add(1);
          continue;
        }
        olap_ok.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  threads.emplace_back([&] {  // storage churn crossing high water
    for (int i = 0; i < 20; ++i) {
      // Charge before recording as spillable: the broker must never release
      // bytes that have not landed on the node yet.
      storage->ForceCharge(64 * 1024);
      {
        std::lock_guard<std::mutex> lock(ballast_mu);
        ballast += 64 * 1024;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (auto& t : threads) t.join();

  // OLTP never hit its 8-slot ceiling; OLAP both flowed and was denied.
  EXPECT_EQ(oltp_denied.load(), 0);
  EXPECT_GT(olap_ok.load(), 0);
  EXPECT_GT(olap_denied.load(), 0);

  // The run can end inside the hysteresis band (above low, below high),
  // where the broker correctly stays idle. Push one more ballast slab to
  // force a high-water crossing; the pass it triggers must then drain all
  // the way below LOW water, not merely below high.
  storage->ForceCharge(600 * 1024);
  {
    std::lock_guard<std::mutex> lock(ballast_mu);
    ballast += 600 * 1024;
  }
  for (int i = 0; i < 2000 && gov.budget().above_low_water(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(gov.budget().above_low_water());
  gov.pressure().Stop();
  {
    std::lock_guard<std::mutex> lock(ballast_mu);
    storage->Release(ballast);
    ballast = 0;
  }
  for (const auto& [name, used] : gov.budget().Snapshot()) {
    EXPECT_EQ(used, 0u) << name;
  }
}

TEST(GovernorTest, AdHocExecutorMintsAdmissionTicket) {
  metrics::Registry reg;
  Database db;
  db.set_metrics_registry(&reg);
  TransactionManager tm;
  ColumnTable* t =
      *db.CreateTable("kv", Schema({ColumnDef("k", DataType::kInt64)}));
  auto txn = tm.Begin();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(tm.Insert(txn.get(), t, {Value::Int(i)}).ok());
  }
  ASSERT_TRUE(tm.Commit(txn.get()).ok());

  ResourceGovernor::Options gopts;
  gopts.budget.total_limit_bytes = 64 << 20;
  ResourceGovernor gov(gopts, &reg);
  db.set_resource_governor(&gov);

  // The ad-hoc Executor entry point (the path SOE fragment execution takes
  // on a governed node) admits through the governor like Database::Execute
  // — DESIGN.md §13.2's deliberate bypass is retired.
  ExecOptions opts;
  opts.workload_class = "olap";
  Executor exec(&db, tm.AutoCommitView(), opts);
  auto rs = exec.Execute(PlanBuilder::Scan("kv").Build());
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->num_rows(), 8u);
  EXPECT_EQ(reg.counter("resource.admission.olap.admitted")->Value(), 1u);

  // The per-call ticket died with Execute: nothing stays charged, and a
  // second call admits again instead of reusing a stale budget.
  for (const auto& [name, used] : gov.budget().Snapshot()) {
    if (name == "global" || name == "storage") continue;
    EXPECT_EQ(used, 0u) << name;
  }
  ASSERT_TRUE(exec.Execute(PlanBuilder::Scan("kv").Build()).ok());
  EXPECT_EQ(reg.counter("resource.admission.olap.admitted")->Value(), 2u);
  db.set_resource_governor(nullptr);
}

}  // namespace
}  // namespace poly
