// Deterministic fault injection and chaos-recovery suite for the SOE
// cluster (§IV: "individual node failures must not affect overall
// availability"), plus the crash-point oracle of the single-node redo log.
// Everything here is seeded: any failure is reproducible
// by re-running with the seed printed in the failure message, e.g.
//   POLY_CHAOS_SEED=17 ./tests/poly_tests --gtest_filter='ChaosOracle.*'
// scripts/chaos_sweep.sh sweeps many seeds and prints failing ones.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <thread>

#include "soe/rdd.h"
#include "soe_test_util.h"
#include "txn/redo_log.h"
#include "txn/transaction_manager.h"

namespace poly {
namespace {

// ---------- Fault fabric (SimulatedNetwork) ----------

TEST(FaultFabric, LossFreeByDefault) {
  SimulatedNetwork net;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(net.Send(kCoordinatorEndpoint, i % 4, 128).ok());
  }
  EXPECT_EQ(net.messages(), 100u);
  EXPECT_EQ(net.dropped(), 0u);
  EXPECT_EQ(net.duplicated(), 0u);
  EXPECT_GT(net.virtual_nanos(), 0u);
}

TEST(FaultFabric, DropRateIsSeededAndReproducible) {
  SimulatedNetwork::Options opts;
  opts.drop_probability = 0.3;
  opts.fault_seed = 99;
  auto run = [&] {
    SimulatedNetwork net(opts);
    std::vector<bool> outcomes;
    for (int i = 0; i < 200; ++i) outcomes.push_back(net.Send(0, 1, 64).ok());
    return outcomes;
  };
  std::vector<bool> a = run();
  std::vector<bool> b = run();
  EXPECT_EQ(a, b);  // identical seed -> identical drop pattern
  size_t drops = std::count(a.begin(), a.end(), false);
  EXPECT_GT(drops, 20u);  // ~60 expected at p=0.3
  EXPECT_LT(drops, 120u);
  opts.fault_seed = 100;
  SimulatedNetwork other(opts);
  std::vector<bool> c;
  for (int i = 0; i < 200; ++i) c.push_back(other.Send(0, 1, 64).ok());
  EXPECT_NE(a, c);  // different seed -> different pattern
}

TEST(FaultFabric, SymmetricAndAsymmetricPartitions) {
  SimulatedNetwork net;
  net.Partition(0, 1);
  EXPECT_FALSE(net.Send(0, 1, 8).ok());
  EXPECT_FALSE(net.Send(1, 0, 8).ok());
  EXPECT_TRUE(net.Send(0, 2, 8).ok());
  net.Heal(0, 1);
  EXPECT_TRUE(net.Send(0, 1, 8).ok());

  net.PartitionOneWay(2, 3);
  EXPECT_FALSE(net.Send(2, 3, 8).ok());
  EXPECT_TRUE(net.Send(3, 2, 8).ok());  // reverse direction still works
  net.HealAll();
  EXPECT_TRUE(net.Send(2, 3, 8).ok());

  net.SetEndpointDown(1, true);
  EXPECT_FALSE(net.Send(0, 1, 8).ok());
  EXPECT_FALSE(net.Send(1, 2, 8).ok());
  net.SetEndpointDown(1, false);
  EXPECT_TRUE(net.Send(0, 1, 8).ok());
}

TEST(FaultFabric, OptionsMutableAtRuntime) {
  SimulatedNetwork net;
  EXPECT_TRUE(net.Send(0, 1, 8).ok());
  SimulatedNetwork::Options opts = net.options();
  opts.drop_probability = 1.0;
  net.set_options(opts);
  EXPECT_FALSE(net.Send(0, 1, 8).ok());
  EXPECT_EQ(net.dropped(), 1u);
  opts.drop_probability = 0.0;
  net.set_options(opts);
  EXPECT_TRUE(net.Send(0, 1, 8).ok());
  net.Reset();
  EXPECT_EQ(net.messages(), 0u);
  EXPECT_EQ(net.dropped(), 0u);
  EXPECT_EQ(net.virtual_nanos(), 0u);
}

TEST(FaultFabric, DelayAndDuplicateAccounting) {
  SimulatedNetwork::Options opts;
  opts.duplicate_probability = 1.0;
  opts.delay_probability = 1.0;
  opts.max_delay_nanos = 1e6;
  SimulatedNetwork net(opts);
  ASSERT_TRUE(net.Send(0, 1, 100).ok());
  EXPECT_EQ(net.messages(), 2u);  // the duplicate copy is charged too
  EXPECT_EQ(net.bytes(), 200u);
  EXPECT_EQ(net.duplicated(), 1u);
  EXPECT_EQ(net.delayed(), 1u);
}

// ---------- Fault schedule ----------

TEST(FaultScheduleTest, FiresInVirtualTimeOrder) {
  SoeCluster::Options opts;
  opts.num_nodes = 3;
  SoeCluster cluster(opts);
  std::vector<FaultEvent> events;
  events.push_back({0, FaultEvent::Kind::kSetDropRate, -1, -1, 1.0});
  events.push_back({10ull * 1000 * 1000 * 1000, FaultEvent::Kind::kSetDropRate, -1, -1, 0.0});
  cluster.InstallFaultSchedule(FaultSchedule(std::vector<FaultEvent>(events)));

  cluster.PumpFaults();  // virtual time 0: first event fires, far one doesn't
  EXPECT_EQ(cluster.fault_events_fired(), 1u);
  EXPECT_DOUBLE_EQ(cluster.network().options().drop_probability, 1.0);

  cluster.network().AdvanceVirtualTime(10ull * 1000 * 1000 * 1000);
  cluster.PumpFaults();
  EXPECT_EQ(cluster.fault_events_fired(), 2u);
  EXPECT_DOUBLE_EQ(cluster.network().options().drop_probability, 0.0);
}

TEST(FaultScheduleTest, RandomScheduleIsReproducibleAndTransient) {
  FaultSchedule a = FaultSchedule::RandomSchedule(7, 4, 3, 1e9, 8);
  FaultSchedule b = FaultSchedule::RandomSchedule(7, 4, 3, 1e9, 8);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.size(), 16u);  // every disruption comes with its own heal
  while (!a.done() && !b.done()) {
    const FaultEvent* ea = a.Peek();
    const FaultEvent* eb = b.Peek();
    EXPECT_EQ(ea->at_virtual_nanos, eb->at_virtual_nanos);
    EXPECT_EQ(static_cast<int>(ea->kind), static_cast<int>(eb->kind));
    EXPECT_EQ(ea->a, eb->a);
    EXPECT_EQ(ea->b, eb->b);
    a.Pop();
    b.Pop();
  }
}

// ---------- Retry layer ----------

TEST(ChaosRetry, LossyNetworkQueriesStillExact) {
  SoeCluster::Options opts;
  opts.num_nodes = 4;
  opts.net.drop_probability = 0.25;
  opts.net.fault_seed = 5;
  opts.retry.max_attempts = 10;
  SoeCluster cluster(opts);
  Schema s({ColumnDef("k", DataType::kInt64), ColumnDef("v", DataType::kDouble)});
  ASSERT_TRUE(cluster.CreateTable("t", s, PartitionSpec::Hash("k", 8), 2).ok());
  std::vector<Row> rows;
  for (int i = 0; i < 200; ++i) rows.push_back({Value::Int(i), Value::Dbl(i)});
  ASSERT_TRUE(cluster.CommitInserts("t", rows).ok());

  AggSpec cnt{AggFunc::kCount, nullptr, "cnt"};
  for (int q = 0; q < 5; ++q) {
    auto rs = RunPlanned(&cluster, AggregateOf("t", {}, {cnt}));
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    EXPECT_EQ(rs->rows[0][0], Value::Int(200));  // exact despite 25% loss
  }
  EXPECT_GT(cluster.network().dropped(), 0u);
  EXPECT_GT(cluster.total_retries(), 0u);
}

TEST(ChaosRetry, TotalPartitionTimesOutWithBoundedAttempts) {
  SoeCluster::Options opts;
  opts.num_nodes = 2;
  opts.retry.max_attempts = 3;
  SoeCluster cluster(opts);
  Schema s({ColumnDef("k", DataType::kInt64)});
  ASSERT_TRUE(cluster.CreateTable("t", s, PartitionSpec::Hash("k", 2), 2).ok());
  ASSERT_TRUE(cluster.Insert("t", {Value::Int(1)}).ok());
  // Cut the coordinator off from every node: dispatch can never arrive.
  cluster.network().Partition(kCoordinatorEndpoint, 0);
  cluster.network().Partition(kCoordinatorEndpoint, 1);
  uint64_t retries_before = cluster.total_retries();
  auto rs = RunPlanned(&cluster, ScanOf("t"));
  EXPECT_TRUE(rs.status().IsUnavailable());
  uint64_t attempts = cluster.total_retries() - retries_before;
  EXPECT_GT(attempts, 0u);
  EXPECT_LE(attempts, 3u);  // bounded, not infinite
  cluster.network().HealAll();
  EXPECT_TRUE(RunPlanned(&cluster, ScanOf("t")).ok());
}

TEST(ChaosRetry, QueryFailsOverWhenPrimaryIsPartitioned) {
  SoeCluster::Options opts;
  opts.num_nodes = 2;
  SoeCluster cluster(opts);
  Schema s({ColumnDef("k", DataType::kInt64)});
  ASSERT_TRUE(cluster.CreateTable("t", s, PartitionSpec::Hash("k", 1), 2).ok());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(cluster.Insert("t", {Value::Int(i)}).ok());
  auto info = cluster.catalog().Lookup("t");
  ASSERT_TRUE(info.ok());
  int primary = (*info)->placement[0][0];
  cluster.network().Partition(kCoordinatorEndpoint, primary);
  auto rs = RunPlanned(&cluster, ScanOf("t"));
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->num_rows(), 10u);
  EXPECT_EQ(cluster.last_query_stats().failovers, 1u);
}

// A gather costs a few messages per fragment, not one per row: in E20's
// setup (4 nodes, replication 2, 5% loss, 6 attempts) a full 20k-row scan
// is served every time. Charged one message per row, a 2.5k-row partition
// task almost never got all of its rows through, and no scan was served.
TEST(ChaosRetry, LossyGatherOfLargeTableIsServed) {
  SoeCluster::Options opts;
  opts.num_nodes = 4;
  opts.net.drop_probability = 0.05;
  opts.net.delay_probability = 0.2;
  opts.retry.max_attempts = 6;
  SoeCluster cluster(opts);
  Schema s({ColumnDef("k", DataType::kInt64), ColumnDef("v", DataType::kDouble)});
  ASSERT_TRUE(cluster.CreateTable("t", s, PartitionSpec::Hash("k", 8), 2).ok());
  std::vector<Row> rows;
  for (int i = 0; i < 20000; ++i) rows.push_back({Value::Int(i), Value::Dbl(i)});
  ASSERT_TRUE(cluster.CommitInserts("t", rows).ok());
  for (int q = 0; q < 20; ++q) {
    auto rs = RunPlanned(&cluster, ScanOf("t"));
    ASSERT_TRUE(rs.ok()) << "gather " << q << ": " << rs.status().ToString();
    EXPECT_EQ(rs->num_rows(), 20000u);
  }
  EXPECT_GT(cluster.network().dropped(), 0u);
}

// ---------- Targeted regressions ----------

// Crash during append: a fully unreachable replica set must not burn an
// offset — the log stays dense and replay can never stall on a hole.
TEST(ChaosRegression, CrashDuringAppendLeavesNoHole) {
  SimulatedNetwork::Options nopts;
  SimulatedNetwork net(nopts);
  SharedLog log(SharedLog::Options{3, 2}, &net);
  ASSERT_TRUE(log.Append("a").ok());

  SimulatedNetwork::Options lossy = net.options();
  lossy.drop_probability = 1.0;
  net.set_options(lossy);
  auto failed = log.Append("b");
  EXPECT_TRUE(failed.status().IsUnavailable());
  EXPECT_EQ(log.Tail(), 1u);  // no offset consumed

  lossy.drop_probability = 0.0;
  net.set_options(lossy);
  auto retried = log.Append("b");
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(*retried, 1u);  // dense: the retried record takes the next slot
  auto range = log.ReadRange(0, log.Tail());
  ASSERT_TRUE(range.ok());
  EXPECT_EQ((*range)[0], "a");
  EXPECT_EQ((*range)[1], "b");
}

// A log-unit crash between appends: surviving replicas keep every offset
// readable and ReReplicate restores the copy count.
TEST(ChaosRegression, LogUnitCrashMidStreamKeepsReplayIntact) {
  SimulatedNetwork net;
  SharedLog log(SharedLog::Options{3, 2}, &net);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(log.Append("r" + std::to_string(i)).ok());
  ASSERT_TRUE(log.KillUnit(0).ok());
  for (int i = 10; i < 20; ++i) ASSERT_TRUE(log.Append("r" + std::to_string(i)).ok());
  for (uint64_t off = 0; off < 20; ++off) {
    auto rec = log.Read(off);
    ASSERT_TRUE(rec.ok()) << "offset " << off << ": " << rec.status().ToString();
    EXPECT_EQ(*rec, "r" + std::to_string(off));
  }
  ASSERT_TRUE(log.ReviveUnit(0).ok());
  ASSERT_TRUE(log.ReReplicate().ok());
  ASSERT_TRUE(log.KillUnit(1).ok());  // survives a second, different failure
  for (uint64_t off = 0; off < 20; ++off) EXPECT_TRUE(log.Read(off).ok());
}

// Duplicate delivery is idempotent end-to-end: every message delivered
// twice must not double-store log records or double-apply rows.
TEST(ChaosRegression, DuplicateDeliveryIsIdempotent) {
  SoeCluster::Options opts;
  opts.num_nodes = 3;
  opts.net.duplicate_probability = 1.0;
  SoeCluster cluster(opts);
  Schema s({ColumnDef("k", DataType::kInt64), ColumnDef("v", DataType::kDouble)});
  ASSERT_TRUE(cluster.CreateTable("t", s, PartitionSpec::Hash("k", 4), 2).ok());
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) rows.push_back({Value::Int(i), Value::Dbl(i)});
  ASSERT_TRUE(cluster.CommitInserts("t", rows).ok());
  EXPECT_GT(cluster.network().duplicated(), 0u);

  AggSpec cnt{AggFunc::kCount, nullptr, "cnt"};
  AggSpec sum{AggFunc::kSum, Expr::Column(1), "sum"};
  auto rs = RunPlanned(&cluster, AggregateOf("t", {}, {cnt, sum}));
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows[0][0], Value::Int(100));  // not inflated
  EXPECT_DOUBLE_EQ(rs->rows[0][1].NumericValue(), 99.0 * 100 / 2);
}

// Partition during rebalance: a rebuild cut off from the log must fail
// cleanly, and the retried rebuild must resume from its watermark instead
// of double-applying replayed rows.
TEST(ChaosRegression, PartitionDuringRebalanceResumesWithoutDuplicates) {
  SoeCluster::Options opts;
  opts.num_nodes = 4;
  opts.retry.max_attempts = 2;  // fail fast while the cut is in place
  SoeCluster cluster(opts);
  Schema s({ColumnDef("k", DataType::kInt64), ColumnDef("v", DataType::kDouble)});
  ASSERT_TRUE(cluster.CreateTable("t", s, PartitionSpec::Hash("k", 8), 2).ok());
  std::vector<Row> rows;
  for (int i = 0; i < 300; ++i) rows.push_back({Value::Int(i), Value::Dbl(i)});
  ASSERT_TRUE(cluster.CommitInserts("t", rows).ok());

  ASSERT_TRUE(cluster.KillNode(0).ok());
  // Every live node loses its route to every log unit: backfills must fail.
  for (int n = 1; n < 4; ++n) {
    for (int u = 0; u < 3; ++u) cluster.network().Partition(n, LogUnitEndpoint(u));
  }
  EXPECT_TRUE(cluster.Rebalance().IsUnavailable());

  cluster.network().HealAll();
  ASSERT_TRUE(cluster.Rebalance().ok());
  ASSERT_TRUE(cluster.KillNode(1).ok());  // prove the rebuilt replicas serve
  AggSpec cnt{AggFunc::kCount, nullptr, "cnt"};
  AggSpec sum{AggFunc::kSum, Expr::Column(1), "sum"};
  auto rs = RunPlanned(&cluster, AggregateOf("t", {}, {cnt, sum}));
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows[0][0], Value::Int(300));  // exact: no lost or doubled rows
  EXPECT_DOUBLE_EQ(rs->rows[0][1].NumericValue(), 299.0 * 300 / 2);
}

// RDD actions recompute lost partitions from the shared log (lineage),
// where the plain cluster API surfaces Unavailable.
TEST(ChaosRegression, RddRecomputesLostPartitionFromLineage) {
  SoeCluster::Options opts;
  opts.num_nodes = 2;
  SoeCluster cluster(opts);
  Schema s({ColumnDef("k", DataType::kInt64), ColumnDef("v", DataType::kDouble)});
  ASSERT_TRUE(cluster.CreateTable("t", s, PartitionSpec::Hash("k", 4), 1).ok());
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) rows.push_back({Value::Int(i), Value::Dbl(i)});
  ASSERT_TRUE(cluster.CommitInserts("t", rows).ok());

  ASSERT_TRUE(cluster.KillNode(0).ok());
  AggSpec cnt{AggFunc::kCount, nullptr, "cnt"};
  EXPECT_TRUE(RunPlanned(&cluster, AggregateOf("t", {}, {cnt}))
                  .status()
                  .IsUnavailable());  // unreplicated: cluster API fails

  auto count = SoeRdd::FromTable(&cluster, "t").Count();
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, 100u);  // recomputed from the log onto the live node
}

// Single-node sibling: the redo log's IO-fault hook fails an append before
// any mutation, so a crashed append is invisible after recovery.
TEST(ChaosRegression, RedoLogFaultInjectorFailsCleanly) {
  RedoLog log;
  ASSERT_TRUE(log.Append("first").ok());
  int failures_left = 1;
  log.SetFaultInjector([&](const char* op) -> Status {
    if (std::string(op) == "append" && failures_left > 0) {
      --failures_left;
      return Status::IOError("injected disk failure");
    }
    return Status::OK();
  });
  EXPECT_EQ(log.Append("crashed").code(), StatusCode::kIOError);
  EXPECT_EQ(log.num_records(), 1u);  // nothing half-written
  EXPECT_TRUE(log.Append("second").ok());
  log.SetFaultInjector(nullptr);
  std::vector<std::string> replayed;
  ASSERT_TRUE(log.ForEach([&](const std::string& r) {
                   replayed.push_back(r);
                   return Status::OK();
                 })
                  .ok());
  EXPECT_EQ(replayed, (std::vector<std::string>{"first", "second"}));
}

// ---------- TSan target: the fabric + log under real concurrency ----------

TEST(ChaosConcurrency, FabricAndLogSurviveConcurrentChaos) {
  SimulatedNetwork::Options nopts;
  nopts.drop_probability = 0.1;
  SimulatedNetwork net(nopts);
  SharedLog log(SharedLog::Options{4, 2}, &net);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> appended{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 300; ++i) {
        if (log.Append("w" + std::to_string(t) + "-" + std::to_string(i)).ok()) {
          appended.fetch_add(1);
        }
      }
    });
  }
  threads.emplace_back([&] {  // reader tailing the log
    while (!stop.load()) {
      uint64_t tail = log.Tail();
      for (uint64_t off = 0; off < tail; ++off) (void)log.Read(off);
      std::this_thread::yield();
    }
  });
  threads.emplace_back([&] {  // chaos monkey: partitions + option flips
    for (int i = 0; i < 50; ++i) {
      net.Partition(i % 3, LogUnitEndpoint(i % 4));
      SimulatedNetwork::Options opts = net.options();
      opts.drop_probability = (i % 2) ? 0.3 : 0.05;
      net.set_options(opts);
      (void)net.CanReach(0, 1);
      net.Heal(i % 3, LogUnitEndpoint(i % 4));
      (void)log.records_stored(i % 4);
      std::this_thread::yield();
    }
    (void)log.ReReplicate();
  });
  for (int t = 0; t < 3; ++t) threads[t].join();
  stop.store(true);
  for (size_t t = 3; t < threads.size(); ++t) threads[t].join();

  net.HealAll();
  SimulatedNetwork::Options clean = net.options();
  clean.drop_probability = 0;
  net.set_options(clean);
  ASSERT_TRUE(log.ReReplicate().ok());
  EXPECT_EQ(log.Tail(), appended.load());  // dense: one offset per success
  for (uint64_t off = 0; off < log.Tail(); ++off) EXPECT_TRUE(log.Read(off).ok());
}

// ---------- The chaos oracle ----------

/// Sorts rows lexicographically so replica placement cannot affect the
/// comparison.
void SortRows(std::vector<Row>* rows) {
  std::sort(rows->begin(), rows->end(), [](const Row& a, const Row& b) {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
  });
}

/// One seeded chaos run: the same workload drives a faulty cluster and a
/// fault-free reference cluster; after heal + replay, committed state must
/// be identical. Values are integral doubles so sums are exact in any
/// accumulation order.
void RunChaosOracle(uint64_t seed) {
  SCOPED_TRACE("chaos seed " + std::to_string(seed) +
               " (replay: POLY_CHAOS_SEED=" + std::to_string(seed) +
               " poly_tests --gtest_filter='ChaosOracle.*')");
  Random rng(Random::Mix(seed, 0xc0ffee));
  constexpr int kNodes = 5;
  constexpr size_t kPartitions = 8;

  SoeCluster::Options faulty_opts;
  faulty_opts.num_nodes = kNodes;
  faulty_opts.log_units = 3;
  faulty_opts.log_replication = 2;
  faulty_opts.net.drop_probability = 0.02 + 0.18 * rng.NextDouble();
  faulty_opts.net.duplicate_probability = 0.10 * rng.NextDouble();
  faulty_opts.net.delay_probability = 0.2;
  faulty_opts.net.max_delay_nanos = 200 * 1000;
  faulty_opts.net.fault_seed = Random::Mix(seed, 1);
  faulty_opts.fault_seed = Random::Mix(seed, 2);
  faulty_opts.retry.max_attempts = 8;
  SoeCluster faulty(faulty_opts);

  SoeCluster::Options ref_opts;  // identical topology, zero faults
  ref_opts.num_nodes = kNodes;
  ref_opts.log_units = 3;
  ref_opts.log_replication = 2;
  SoeCluster reference(ref_opts);

  Schema schema({ColumnDef("k", DataType::kInt64), ColumnDef("v", DataType::kDouble)});
  PartitionSpec spec = PartitionSpec::Hash("k", kPartitions);
  ASSERT_TRUE(faulty.CreateTable("t", schema, spec, 2).ok());
  ASSERT_TRUE(reference.CreateTable("t", schema, spec, 2).ok());

  // Scripted network chaos on top of the probabilistic faults: transient
  // partitions and lossy phases fired by virtual time.
  faulty.InstallFaultSchedule(FaultSchedule::RandomSchedule(
      Random::Mix(seed, 3), kNodes, 3, /*horizon_nanos=*/200ull * 1000 * 1000,
      /*num_disruptions=*/5));

  uint64_t commits_ok = 0, commits_failed = 0, queries_ok = 0, queries_failed = 0;
  int64_t next_key = 0;
  for (int step = 0; step < 40; ++step) {
    uint64_t dice = rng.Uniform(100);
    if (dice < 50) {  // batch insert
      std::vector<Row> rows;
      size_t n = 1 + rng.Uniform(16);
      for (size_t i = 0; i < n; ++i) {
        rows.push_back({Value::Int(next_key++),
                        Value::Dbl(static_cast<double>(rng.Uniform(1000)))});
      }
      auto committed = faulty.CommitInserts("t", rows);
      if (committed.ok()) {
        ++commits_ok;
        // Mirror exactly what the faulty cluster durably committed.
        ASSERT_TRUE(reference.CommitInserts("t", rows).ok());
      } else {
        ++commits_failed;  // record reached no log replica: not committed
      }
    } else if (dice < 70) {  // distributed aggregate, compared when served
      AggSpec cnt{AggFunc::kCount, nullptr, "cnt"};
      AggSpec sum{AggFunc::kSum, Expr::Column(1), "sum"};
      auto got = RunPlanned(&faulty, AggregateOf("t", {}, {cnt, sum}));
      if (got.ok()) {
        ++queries_ok;
        auto want = RunPlanned(&reference, AggregateOf("t", {}, {cnt, sum}));
        ASSERT_TRUE(want.ok());
        EXPECT_EQ(got->rows[0][0], want->rows[0][0]) << "mid-run count diverged";
        EXPECT_DOUBLE_EQ(got->rows[0][1].NumericValue(), want->rows[0][1].NumericValue())
            << "mid-run sum diverged";
      } else {
        ++queries_failed;  // availability may dip; consistency may not
      }
    } else if (dice < 80) {  // crash a node (faulty side only; data is in the log)
      if (faulty.discovery().LiveNodes().size() > 3) {
        std::vector<int> live = faulty.discovery().LiveNodes();
        ASSERT_TRUE(faulty.KillNode(live[rng.Uniform(live.size())]).ok());
      }
    } else if (dice < 90) {  // restart a crashed node
      for (int n : faulty.discovery().AllNodes()) {
        if (!faulty.discovery().IsAlive(n)) {
          ASSERT_TRUE(faulty.RestartNode(n).ok());
          break;
        }
      }
    } else if (dice < 95) {  // opportunistic re-replication
      (void)faulty.Rebalance();
    } else {  // poll a random node
      (void)faulty.PollNode(static_cast<int>(rng.Uniform(kNodes)));
    }
  }

  // ---- heal: stop the chaos, restart everything, repair, catch up ----
  SimulatedNetwork::Options clean = faulty.network().options();
  clean.drop_probability = 0;
  clean.duplicate_probability = 0;
  clean.delay_probability = 0;
  faulty.network().set_options(clean);  // runtime-mutable options end the storm
  faulty.network().HealAll();
  for (int n : faulty.discovery().AllNodes()) {
    if (!faulty.discovery().IsAlive(n)) {
      ASSERT_TRUE(faulty.RestartNode(n).ok());
    }
  }
  ASSERT_TRUE(faulty.log().ReReplicate().ok());
  ASSERT_TRUE(faulty.Rebalance().ok());
  for (int n = 0; n < kNodes; ++n) {
    ASSERT_TRUE(faulty.PollNode(n).ok());
    EXPECT_EQ(faulty.Staleness(n), 0u);
  }

  // ---- converge check: identical committed state ----
  ASSERT_EQ(faulty.log().Tail(), reference.log().Tail())
      << "faulty committed " << faulty.log().Tail() << " records, reference "
      << reference.log().Tail();

  auto got_rows = RunPlanned(&faulty, ScanOf("t"));
  ASSERT_TRUE(got_rows.ok()) << got_rows.status().ToString();
  auto want_rows = RunPlanned(&reference, ScanOf("t"));
  ASSERT_TRUE(want_rows.ok());
  SortRows(&got_rows->rows);
  SortRows(&want_rows->rows);
  ASSERT_EQ(got_rows->num_rows(), want_rows->num_rows());
  for (size_t i = 0; i < got_rows->num_rows(); ++i) {
    ASSERT_EQ(got_rows->rows[i], want_rows->rows[i]) << "row " << i << " diverged";
  }

  // Per-partition row counts agree on every replica of the faulty cluster.
  auto info = faulty.catalog().Lookup("t");
  ASSERT_TRUE(info.ok());
  auto ref_info = reference.catalog().Lookup("t");
  ASSERT_TRUE(ref_info.ok());
  for (size_t p = 0; p < kPartitions; ++p) {
    uint64_t want = *reference.node((*ref_info)->placement[p][0])
                         ->PartitionRowCount("t", p);
    for (int n : (*info)->placement[p]) {
      auto have = faulty.node(n)->PartitionRowCount("t", p);
      ASSERT_TRUE(have.ok());
      EXPECT_EQ(*have, want) << "partition " << p << " replica on node " << n;
    }
  }

  // The run must have actually exercised the machinery.
  EXPECT_GT(commits_ok, 0u);
  if (faulty_opts.net.drop_probability > 0.05) {
    EXPECT_GT(faulty.network().dropped(), 0u);
  }
  (void)queries_ok;
  (void)queries_failed;
  (void)commits_failed;
}

// ---------- Metrics under chaos (DESIGN.md §10) ----------

// The registry is instrumented inside the same code paths the legacy
// counters live in, so the two can never drift: retries observed by the
// cluster == retries counted in the registry, and the fabric's own fault
// counters == their soe.net.* mirrors.
TEST(ChaosMetrics, RegistryAgreesWithLegacyCounters) {
  SoeCluster::Options opts;
  opts.num_nodes = 4;
  opts.net.drop_probability = 0.25;
  opts.net.duplicate_probability = 0.1;
  opts.net.delay_probability = 0.1;
  opts.net.fault_seed = 5;
  opts.retry.max_attempts = 10;
  SoeCluster cluster(opts);
  Schema s({ColumnDef("k", DataType::kInt64), ColumnDef("v", DataType::kDouble)});
  ASSERT_TRUE(cluster.CreateTable("t", s, PartitionSpec::Hash("k", 8), 2).ok());
  std::vector<Row> rows;
  for (int i = 0; i < 200; ++i) rows.push_back({Value::Int(i), Value::Dbl(i)});
  ASSERT_TRUE(cluster.CommitInserts("t", rows).ok());
  AggSpec cnt{AggFunc::kCount, nullptr, "cnt"};
  for (int q = 0; q < 5; ++q) {
    ASSERT_TRUE(RunPlanned(&cluster, AggregateOf("t", {}, {cnt})).ok());
  }

  metrics::RegistrySnapshot snap = cluster.metrics().TakeSnapshot();
  EXPECT_GT(cluster.total_retries(), 0u);
  EXPECT_EQ(snap.counter("soe.retry.count"), cluster.total_retries());
  EXPECT_EQ(snap.counter("soe.net.messages"), cluster.network().messages());
  EXPECT_EQ(snap.counter("soe.net.bytes"), cluster.network().bytes());
  EXPECT_GT(cluster.network().dropped(), 0u);
  EXPECT_EQ(snap.counter("soe.net.dropped"), cluster.network().dropped());
  EXPECT_EQ(snap.counter("soe.net.duplicated"), cluster.network().duplicated());
  EXPECT_EQ(snap.counter("soe.net.delayed"), cluster.network().delayed());
  EXPECT_EQ(snap.counter("soe.dqp.queries"), 5u);
  EXPECT_EQ(snap.counter("soe.txn.commits"), 1u);
  EXPECT_EQ(snap.counter("soe.txn.rows_committed"), 200u);
  // Every commit durably appended exactly one log record.
  EXPECT_EQ(snap.counter("soe.log.appends"), cluster.log().Tail());
  // Backoff waits advanced the virtual clock; the histogram saw each wait.
  EXPECT_EQ(snap.histograms.at("soe.retry.backoff_wait_nanos").count,
            cluster.total_retries());
  EXPECT_GT(snap.counter("soe.retry.backoff_nanos"), 0u);
  // v2stats derives from the same registry: per-node RPC counters sum to
  // the tasks the statistics service recorded.
  uint64_t rpc_total = 0;
  uint64_t stats_queries = 0;
  for (int n = 0; n < cluster.num_nodes(); ++n) {
    rpc_total += snap.counter("soe.rpc.node." + std::to_string(n) + ".tasks");
    stats_queries += cluster.statistics().Stats(n).queries;
  }
  EXPECT_GT(rpc_total, 0u);
  EXPECT_EQ(rpc_total, stats_queries);
}

TEST(ChaosMetrics, FaultScheduleEventsAreCounted) {
  SoeCluster::Options opts;
  opts.num_nodes = 3;
  SoeCluster cluster(opts);
  Schema s({ColumnDef("k", DataType::kInt64)});
  ASSERT_TRUE(cluster.CreateTable("t", s, PartitionSpec::Hash("k", 3), 2).ok());
  for (int i = 0; i < 30; ++i) ASSERT_TRUE(cluster.Insert("t", {Value::Int(i)}).ok());

  cluster.InstallFaultSchedule(FaultSchedule(
      {FaultEvent{0, FaultEvent::Kind::kCrashNode, 0},
       FaultEvent{0, FaultEvent::Kind::kPartition, kCoordinatorEndpoint, 1},
       FaultEvent{1, FaultEvent::Kind::kHealAll}}));
  ASSERT_TRUE(RunPlanned(&cluster, ScanOf("t")).ok());
  ASSERT_TRUE(cluster.Rebalance().ok());
  ASSERT_TRUE(cluster.RestartNode(0).ok());

  metrics::RegistrySnapshot snap = cluster.metrics().TakeSnapshot();
  EXPECT_EQ(snap.counter("soe.clustermgr.node_kills"), 1u);
  EXPECT_EQ(snap.counter("soe.clustermgr.node_restarts"), 1u);
  EXPECT_EQ(snap.counter("soe.net.partitions_installed"), 1u);
  EXPECT_GT(snap.counter("soe.clustermgr.partition_rebuilds"), 0u);
  // The cluster page renders every one of these without touching any
  // subsystem-private state.
  std::string page = cluster.metrics().TextPage();
  EXPECT_NE(page.find("soe_clustermgr_node_kills 1"), std::string::npos);
  EXPECT_NE(page.find("soe_net_messages"), std::string::npos);
}

/// Runs `oracle` on the seed POLY_CHAOS_SEED names, else on seeds
/// 1..POLY_CHAOS_SEEDS (default 50), stopping at the first fatal failure.
void RunOracleSeeds(void (*oracle)(uint64_t)) {
  if (const char* env = std::getenv("POLY_CHAOS_SEED")) {
    oracle(static_cast<uint64_t>(std::strtoull(env, nullptr, 10)));
    return;
  }
  int seeds = 50;
  if (const char* env = std::getenv("POLY_CHAOS_SEEDS")) {
    seeds = std::max(1, std::atoi(env));
  }
  for (int seed = 1; seed <= seeds; ++seed) {
    oracle(static_cast<uint64_t>(seed));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(ChaosOracle, FaultyAndReferenceClustersConverge) { RunOracleSeeds(RunChaosOracle); }

// ---------- Crash-point oracle: the redo log under IO faults ----------

/// One scripted transaction of the crash-point workload.
struct ScriptedTxn {
  int inserts = 1;    ///< fresh ids, 1-4
  int deletes = 0;    ///< visible rows to delete, 0-2
  bool abort = false;
  uint64_t pick = 0;  ///< seeds which visible rows the deletes hit
};

/// Ids of the rows of `t` visible to `view`.
std::set<int64_t> VisibleIdSet(const ColumnTable& t, const ReadView& view) {
  std::set<int64_t> ids;
  ColumnTable::ReadGuard g(&t);
  g.ScanVisible(view, [&](uint64_t r) { ids.insert(g.GetValue(r, 0).AsInt()); });
  return ids;
}

/// Runs the seed's script on a fresh file RedoLog whose k-th "append" or
/// "sync" fault-hook call fails (k = 0: none), reopens the file and
/// recovers it. The client ignores errors and keeps issuing its script.
/// The recovered rows must equal a serial replay of exactly the
/// transactions whose Commit returned OK, and nothing commits after a
/// failed sync. Returns the number of append/sync calls the run made.
int RunCrashPoint(uint64_t seed, int k, const std::string& path) {
  SCOPED_TRACE("crash point k=" + std::to_string(k));
  std::vector<ScriptedTxn> script(10);
  Random rng(Random::Mix(seed, 0x10f11e));
  for (ScriptedTxn& s : script) {
    s.inserts = 1 + static_cast<int>(rng.Uniform(4));
    s.deletes = static_cast<int>(rng.Uniform(3));
    s.abort = rng.Uniform(5) == 0;
    s.pick = rng.Next();
  }

  std::remove(path.c_str());
  std::set<int64_t> committed;  // the serial replay of acknowledged commits
  int calls = 0;
  {
    auto log = RedoLog::OpenFile(path);
    EXPECT_TRUE(log.ok()) << log.status().ToString();
    if (!log.ok()) return 0;
    bool sync_failed = false;
    (*log)->SetFaultInjector([&](const char* op) -> Status {
      std::string name(op);
      if (name != "append" && name != "sync") return Status::OK();
      if (++calls != k) return Status::OK();
      sync_failed = name == "sync";
      return Status::IOError("injected " + name + " failure");
    });
    Database db;
    TransactionManager tm(log->get());
    Schema schema({ColumnDef("id", DataType::kInt64)});
    (void)tm.LogCreateTable("t", schema);
    ColumnTable* t = *db.CreateTable("t", schema);
    int64_t next_id = 0;
    for (const ScriptedTxn& s : script) {
      auto txn = tm.Begin();
      std::set<int64_t> inserted, deleted;
      for (int i = 0; i < s.inserts; ++i) {
        int64_t id = next_id++;
        if (tm.Insert(txn.get(), t, {Value::Int(id)}).ok()) inserted.insert(id);
      }
      std::vector<uint64_t> visible;
      ColumnTable::ReadGuard g(t);
      g.ScanVisible(txn->View(), [&](uint64_t r) { visible.push_back(r); });
      Random pick(s.pick);
      for (int d = 0; d < s.deletes && !visible.empty(); ++d) {
        size_t i = pick.Uniform(visible.size());
        uint64_t row = visible[i];
        visible.erase(visible.begin() + static_cast<std::ptrdiff_t>(i));
        if (tm.Delete(txn.get(), t, row).ok()) deleted.insert(g.GetValue(row, 0).AsInt());
      }
      if (s.abort) {
        (void)tm.Abort(txn.get());
        continue;
      }
      bool after_failed_sync = sync_failed;
      if (!tm.Commit(txn.get()).ok()) continue;
      EXPECT_FALSE(after_failed_sync) << "a commit succeeded after a failed sync";
      committed.insert(inserted.begin(), inserted.end());
      for (int64_t id : deleted) committed.erase(id);
    }
    // Durable before visible: memory shows exactly the acknowledged commits.
    EXPECT_EQ(VisibleIdSet(*t, tm.AutoCommitView()), committed);
  }  // crash

  auto reopened = RedoLog::OpenFile(path);
  EXPECT_TRUE(reopened.ok()) << reopened.status().ToString();
  if (!reopened.ok()) return calls;
  std::vector<std::string> records;
  EXPECT_TRUE((*reopened)
                  ->ForEach([&](const std::string& r) {
                    records.push_back(r);
                    return Status::OK();
                  })
                  .ok());
  Database recovered;
  Status replayed = TransactionManager::Recover(records, &recovered);
  EXPECT_TRUE(replayed.ok()) << replayed.ToString();
  auto table = recovered.GetTable("t");
  std::set<int64_t> rows;
  if (table.ok()) rows = VisibleIdSet(**table, LatestCommittedView());
  EXPECT_EQ(rows, committed);
  return calls;
}

void RunRedoLogCrashPoints(uint64_t seed) {
  SCOPED_TRACE("crash-point seed " + std::to_string(seed) +
               " (replay: POLY_CHAOS_SEED=" + std::to_string(seed) +
               " poly_tests --gtest_filter='ChaosOracle.*')");
  std::string path = testing::TempDir() + "/poly_crash_points." + std::to_string(getpid()) +
                     ".log";
  int calls = RunCrashPoint(seed, 0, path);
  for (int k = 1; k <= calls && !::testing::Test::HasFailure(); ++k) {
    RunCrashPoint(seed, k, path);
  }
  std::remove(path.c_str());
}

TEST(ChaosOracle, RedoLogCrashPointsRecoverExactlyTheAcknowledgedCommits) {
  RunOracleSeeds(RunRedoLogCrashPoints);
}

}  // namespace
}  // namespace poly
