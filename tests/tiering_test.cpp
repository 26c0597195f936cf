#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "aging/aging.h"
#include "aging/extended_storage.h"
#include "common/random.h"
#include "hadoop/dfs.h"
#include "hadoop/dfs_tier_store.h"
#include "query/compiled.h"
#include "query/executor.h"
#include "tiering/daemon.h"
#include "tiering/heat.h"
#include "tiering/policy.h"
#include "txn/transaction_manager.h"

namespace poly {
namespace {

using tiering::AccessHeatTracker;
using tiering::ColumnHeatSample;
using tiering::EpochReport;
using tiering::HeatSample;
using tiering::PartitionState;
using tiering::Residency;
using tiering::TierAction;
using tiering::TieringDaemon;
using tiering::TieringDecision;
using tiering::TieringPolicy;

AccessEvent Scan(const std::string& partition, uint64_t rows = 100) {
  AccessEvent e;
  e.partition = partition;
  e.rows_scanned = rows;
  e.bytes = rows * 8;
  return e;
}

AccessEvent PointRead(const std::string& partition) {
  AccessEvent e;
  e.partition = partition;
  e.rows_scanned = 1;
  e.bytes = 8;
  e.point_read = true;
  return e;
}

// ----------------------------------------------------------- heat tracker --

TEST(HeatTrackerTest, FoldsEpochCountsWithDecay) {
  AccessHeatTracker::Options opts;
  opts.decay = 0.5;
  opts.point_read_weight = 4.0;
  AccessHeatTracker tracker(opts);

  for (int i = 0; i < 3; ++i) tracker.OnAccess(Scan("p"));
  tracker.OnAccess(PointRead("p"));
  EXPECT_DOUBLE_EQ(tracker.HeatOf("p"), 0.0);  // raw counts fold at the epoch

  EXPECT_EQ(tracker.AdvanceEpoch(), 1u);
  EXPECT_DOUBLE_EQ(tracker.HeatOf("p"), 3.0 + 4.0);  // scans + weighted points

  // Idle epochs decay geometrically.
  tracker.AdvanceEpoch();
  EXPECT_DOUBLE_EQ(tracker.HeatOf("p"), 3.5);
  tracker.AdvanceEpoch();
  EXPECT_DOUBLE_EQ(tracker.HeatOf("p"), 1.75);
}

TEST(HeatTrackerTest, SnapshotSortedWithLifetimeTotals) {
  AccessHeatTracker tracker;
  tracker.OnAccess(Scan("b"));
  tracker.OnAccess(Scan("a"));
  tracker.OnAccess(PointRead("a"));
  tracker.AdvanceEpoch();
  tracker.OnAccess(Scan("a"));

  std::vector<HeatSample> snap = tracker.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].partition, "a");
  EXPECT_EQ(snap[1].partition, "b");
  EXPECT_EQ(snap[0].total_scans, 2u);       // never decayed
  EXPECT_EQ(snap[0].total_point_reads, 1u);
  EXPECT_EQ(snap[0].epoch_scans, 1u);       // since the last fold

  tracker.Forget("a");
  EXPECT_DOUBLE_EQ(tracker.HeatOf("a"), 0.0);
  EXPECT_EQ(tracker.Snapshot().size(), 1u);
}

TEST(HeatTrackerTest, ConcurrentObserversCountExactly) {
  AccessHeatTracker tracker;
  constexpr int kThreads = 8, kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracker] {
      for (int i = 0; i < kPerThread; ++i) tracker.OnAccess(Scan("shared"));
    });
  }
  for (auto& t : threads) t.join();
  tracker.AdvanceEpoch();
  EXPECT_DOUBLE_EQ(tracker.HeatOf("shared"),
                   static_cast<double>(kThreads * kPerThread));
}

TEST(HeatTrackerTest, ForgetWhileObserversRunIsSafe) {
  // Forget erases the map entry while reader threads are inside OnAccess;
  // the shared cell handle must keep their counts landing on live memory
  // (TSan/ASan guard the use-after-free this test exists for).
  AccessHeatTracker tracker;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&tracker, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        tracker.OnAccess(Scan("doomed"));
        tracker.OnAccess(PointRead("doomed"));
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    tracker.Forget("doomed");
    tracker.AdvanceEpoch();
  }
  stop.store(true);
  for (auto& t : threads) t.join();

  tracker.Forget("doomed");
  EXPECT_DOUBLE_EQ(tracker.HeatOf("doomed"), 0.0);
  EXPECT_TRUE(tracker.Snapshot().empty());
}

TEST(HeatTrackerTest, PerColumnCountersFoldIndependently) {
  AccessHeatTracker::Options opts;
  opts.decay = 0.5;
  opts.point_read_weight = 4.0;
  AccessHeatTracker tracker(opts);

  AccessEvent wide = Scan("p");
  wide.columns = {"a", "b"};
  tracker.OnAccess(wide);
  AccessEvent point = PointRead("p");
  point.columns = {"a"};
  tracker.OnAccess(point);

  tracker.AdvanceEpoch();
  EXPECT_DOUBLE_EQ(tracker.ColumnHeatOf("p", "a"), 1.0 + 4.0);
  EXPECT_DOUBLE_EQ(tracker.ColumnHeatOf("p", "b"), 1.0);
  EXPECT_DOUBLE_EQ(tracker.ColumnHeatOf("p", "never"), 0.0);
  // Column heat decays on the same cadence as partition heat.
  tracker.AdvanceEpoch();
  EXPECT_DOUBLE_EQ(tracker.ColumnHeatOf("p", "a"), 2.5);

  std::vector<ColumnHeatSample> cols = tracker.ColumnSnapshot("p");
  ASSERT_EQ(cols.size(), 2u);
  EXPECT_EQ(cols[0].column, "a");  // name-sorted
  EXPECT_EQ(cols[1].column, "b");
  EXPECT_EQ(cols[0].total_scans, 1u);
  EXPECT_EQ(cols[0].total_point_reads, 1u);
  EXPECT_EQ(cols[1].total_point_reads, 0u);

  // Forget drops the partition's column cells with it.
  tracker.Forget("p");
  EXPECT_TRUE(tracker.ColumnSnapshot("p").empty());
  EXPECT_DOUBLE_EQ(tracker.ColumnHeatOf("p", "a"), 0.0);
}

TEST(HeatTrackerTest, ColumnlessEventsStillHeatThePartition) {
  AccessHeatTracker tracker;
  tracker.OnAccess(Scan("p"));  // no columns named (e.g. older call sites)
  tracker.AdvanceEpoch();
  EXPECT_GT(tracker.HeatOf("p"), 0.0);
  EXPECT_TRUE(tracker.ColumnSnapshot("p").empty());
}

// ----------------------------------------------------------------- policy --

PartitionState State(const std::string& name, Residency residency, double heat,
                     uint64_t bytes = 1000, bool rule_aged = false,
                     uint64_t last_move = 0) {
  PartitionState s;
  s.partition = name;
  s.residency = residency;
  s.heat = heat;
  s.bytes = bytes;
  s.rule_aged = rule_aged;
  s.last_move_epoch = last_move;
  return s;
}

TieringPolicy::Options PolicyOpts() {
  TieringPolicy::Options o;
  o.promote_threshold = 8.0;
  o.demote_threshold = 2.0;
  o.aged_bias = 1.0;
  o.epoch_budget_bytes = 0;  // unlimited unless the test says otherwise
  o.cooldown_epochs = 0;
  return o;
}

const TieringDecision* FindDecision(const std::vector<TieringDecision>& ds,
                                    const std::string& name) {
  for (const auto& d : ds) {
    if (d.partition == name) return &d;
  }
  return nullptr;
}

TEST(TieringPolicyTest, HysteresisBandKeepsBothSides) {
  TieringPolicy policy(PolicyOpts());
  // Heat 5 sits inside the (2, 8) band: resident stays resident, demoted
  // stays demoted — no oscillation for mid-band partitions.
  auto ds = policy.Decide(1, {State("resident", Residency::kHot, 5.0),
                             State("demoted", Residency::kWarm, 5.0),
                             State("hot", Residency::kWarm, 9.0),
                             State("cold", Residency::kHot, 1.0)});
  EXPECT_EQ(FindDecision(ds, "resident")->action, TierAction::kKeep);
  EXPECT_EQ(FindDecision(ds, "demoted")->action, TierAction::kKeep);
  EXPECT_EQ(FindDecision(ds, "hot")->action, TierAction::kPromote);
  EXPECT_EQ(FindDecision(ds, "cold")->action, TierAction::kDemote);
}

TEST(TieringPolicyTest, AgedBiasRaisesTheBar) {
  TieringPolicy policy(PolicyOpts());
  // Effective heat = 8.5 - 1.0 = 7.5 < 8: the rule-aged partition misses
  // promotion where an unaged one at the same heat earns it.
  auto ds =
      policy.Decide(1, {State("aged", Residency::kWarm, 8.5, 1000, /*rule_aged=*/true),
                        State("plain", Residency::kWarm, 8.5)});
  EXPECT_EQ(FindDecision(ds, "aged")->action, TierAction::kKeep);
  EXPECT_EQ(FindDecision(ds, "plain")->action, TierAction::kPromote);
}

TEST(TieringPolicyTest, BudgetAdmitsMostValuableMovesFirst) {
  auto opts = PolicyOpts();
  opts.epoch_budget_bytes = 1500;
  TieringPolicy policy(opts);
  // Three hot promotions of 1000B each: only the hottest fits (1000), the
  // second needs 1000 > 500 left. Demotes come after promotes in the order.
  auto ds = policy.Decide(1, {State("warm1", Residency::kWarm, 10.0, 1000),
                             State("warm2", Residency::kWarm, 20.0, 1000),
                             State("warm3", Residency::kWarm, 15.0, 1000)});
  ASSERT_EQ(ds.size(), 3u);
  EXPECT_EQ(ds[0].partition, "warm2");  // hottest first
  EXPECT_EQ(ds[0].action, TierAction::kPromote);
  EXPECT_EQ(ds[1].partition, "warm3");
  EXPECT_EQ(ds[1].action, TierAction::kDeferredBudget);
  EXPECT_EQ(ds[2].partition, "warm1");
  EXPECT_EQ(ds[2].action, TierAction::kDeferredBudget);
}

TEST(TieringPolicyTest, CooldownDefersRecentMovers) {
  auto opts = PolicyOpts();
  opts.cooldown_epochs = 3;
  TieringPolicy policy(opts);
  // Moved at epoch 4; epochs 5 and 6 are inside the cooldown window,
  // epoch 7 is out.
  auto at = [&](uint64_t epoch) {
    return policy.Decide(epoch,
                         {State("p", Residency::kHot, 0.0, 1000, false, 4)})[0]
        .action;
  };
  EXPECT_EQ(at(5), TierAction::kDeferredCooldown);
  EXPECT_EQ(at(6), TierAction::kDeferredCooldown);
  EXPECT_EQ(at(7), TierAction::kDemote);
}

TEST(TieringPolicyTest, InvertedBandIsNormalizedInAllBuilds) {
  auto opts = PolicyOpts();
  opts.promote_threshold = 2.0;  // inverted: promote below demote
  opts.demote_threshold = 8.0;
  TieringPolicy policy(opts);
  // Normalized to a zero-width band at promote_threshold in every build —
  // an assert would vanish under NDEBUG and ship promote/demote thrash.
  EXPECT_DOUBLE_EQ(policy.options().demote_threshold, 2.0);

  // Heat 5 sat between the inverted thresholds: the raw options would
  // demote it while resident and promote it while demoted, every epoch.
  // After normalization it moves at most once and then stays put.
  auto resident = policy.Decide(1, {State("p", Residency::kHot, 5.0)});
  EXPECT_EQ(resident[0].action, TierAction::kKeep);
  auto demoted = policy.Decide(2, {State("p", Residency::kWarm, 5.0)});
  EXPECT_EQ(demoted[0].action, TierAction::kPromote);
}

TEST(TieringPolicyTest, DeterministicTieBreakByName) {
  TieringPolicy policy(PolicyOpts());
  auto ds = policy.Decide(1, {State("b", Residency::kHot, 0.0),
                             State("a", Residency::kHot, 0.0),
                             State("c", Residency::kWarm, 9.0)});
  // Promotes first, then demotes coldest-first with name tie-break.
  EXPECT_EQ(ds[0].partition, "c");
  EXPECT_EQ(ds[1].partition, "a");
  EXPECT_EQ(ds[2].partition, "b");
}

TEST(TieringPolicyTest, ThreeBandPlacementTable) {
  auto opts = PolicyOpts();  // bands: promote 8 / demote 2, cold 1 / 0.25
  TieringPolicy policy(opts);
  auto ds = policy.Decide(
      1, {State("warm_mid", Residency::kWarm, 5.0),    // inside hot/warm band
          State("warm_low", Residency::kWarm, 0.1),    // below cold-demote
          State("cold_mid", Residency::kCold, 0.5),    // inside warm/cold band
          State("cold_warming", Residency::kCold, 2.0),// re-crossed cold-promote
          State("cold_blazing", Residency::kCold, 9.0)});  // clears the HOT band
  EXPECT_EQ(FindDecision(ds, "warm_mid")->action, TierAction::kKeep);
  EXPECT_EQ(FindDecision(ds, "warm_low")->action, TierAction::kDemoteToCold);
  EXPECT_EQ(FindDecision(ds, "cold_mid")->action, TierAction::kKeep);
  EXPECT_EQ(FindDecision(ds, "cold_warming")->action, TierAction::kPromoteFromCold);
  // Hot enough to skip the warm stopover: cold -> hot directly.
  EXPECT_EQ(FindDecision(ds, "cold_blazing")->action, TierAction::kPromote);
  EXPECT_EQ(FindDecision(ds, "cold_blazing")->from, Residency::kCold);
}

TEST(TieringPolicyTest, SharedBudgetAdmitsPromotesBeforeColdEvictions) {
  auto opts = PolicyOpts();
  opts.epoch_budget_bytes = 1000;
  TieringPolicy policy(opts);
  // One warm->hot promotion and one warm->cold eviction, 1000B each, on a
  // budget that fits only one: the promote is admitted, the cold eviction
  // defers — hot data earns memory before cold data is evicted.
  auto ds = policy.Decide(1, {State("rising", Residency::kWarm, 10.0, 1000),
                             State("fading", Residency::kWarm, 0.1, 1000)});
  ASSERT_EQ(ds.size(), 2u);
  EXPECT_EQ(ds[0].partition, "rising");  // promotes ordered first
  EXPECT_EQ(ds[0].action, TierAction::kPromote);
  EXPECT_EQ(ds[1].partition, "fading");
  EXPECT_EQ(ds[1].action, TierAction::kDeferredBudget);
}

TEST(TieringPolicyTest, ColdMovesPricedByCostFactor) {
  auto opts = PolicyOpts();
  opts.cold_move_cost_factor = 3.0;
  opts.epoch_budget_bytes = 2500;
  TieringPolicy policy(opts);

  EXPECT_EQ(policy.PricedBytes(1000, Residency::kHot, Residency::kWarm), 1000u);
  EXPECT_EQ(policy.PricedBytes(1000, Residency::kWarm, Residency::kCold), 3000u);
  EXPECT_EQ(policy.PricedBytes(1000, Residency::kCold, Residency::kHot), 3000u);

  // Both partitions want to move 1000 raw bytes down. The hot->warm demote
  // is priced 1000 and fits; the warm->cold demote is priced 3000 > 1500
  // left and defers, even though its raw bytes would have fit.
  auto ds = policy.Decide(1, {State("tepid", Residency::kHot, 0.0, 1000),
                             State("frozen", Residency::kWarm, 0.0, 1000)});
  const TieringDecision* tepid = FindDecision(ds, "tepid");
  const TieringDecision* frozen = FindDecision(ds, "frozen");
  EXPECT_EQ(tepid->action, TierAction::kDemote);
  EXPECT_EQ(tepid->priced_bytes, 1000u);
  EXPECT_EQ(frozen->action, TierAction::kDeferredBudget);
  EXPECT_NE(frozen->reason.find("priced move"), std::string::npos);
}

TEST(TieringPolicyTest, ColdBandCooldownOutlastsWarmCooldown) {
  auto opts = PolicyOpts();
  opts.cooldown_epochs = 2;
  opts.cold_cooldown_epochs = 4;
  TieringPolicy policy(opts);
  // Both moved at epoch 4 with heat 0. The hot partition (hot->warm, warm
  // band) frees up at epoch 6; the warm partition (warm->cold, cold band)
  // must wait until epoch 8 — a chain hot->warm->cold can never outrun the
  // cold band's cooldown.
  auto at = [&](uint64_t epoch, Residency res) {
    return policy.Decide(epoch, {State("p", res, 0.0, 1000, false, 4)})[0].action;
  };
  EXPECT_EQ(at(5, Residency::kHot), TierAction::kDeferredCooldown);
  EXPECT_EQ(at(6, Residency::kHot), TierAction::kDemote);
  EXPECT_EQ(at(6, Residency::kWarm), TierAction::kDeferredCooldown);
  EXPECT_EQ(at(7, Residency::kWarm), TierAction::kDeferredCooldown);
  EXPECT_EQ(at(8, Residency::kWarm), TierAction::kDemoteToCold);
}

TEST(TieringPolicyTest, InvertedColdBandIsNormalizedInAllBuilds) {
  auto opts = PolicyOpts();
  opts.cold_promote_threshold = 0.2;  // inverted: below cold_demote
  opts.cold_demote_threshold = 1.0;
  TieringPolicy policy(opts);
  // Same normalization as the hot/warm band: zero-width at cold_promote.
  EXPECT_DOUBLE_EQ(policy.options().cold_demote_threshold, 0.2);
  // Heat 0.5 sat between the inverted thresholds; normalized, a cold
  // partition promotes once and then keeps — no warm<->cold oscillation.
  auto cold = policy.Decide(1, {State("p", Residency::kCold, 0.5)});
  EXPECT_EQ(cold[0].action, TierAction::kPromoteFromCold);
  auto warm = policy.Decide(2, {State("p", Residency::kWarm, 0.5)});
  EXPECT_EQ(warm[0].action, TierAction::kKeep);
}

// ----------------------------------------------------------------- daemon --

class TieringDaemonFixture : public ::testing::Test {
 protected:
  static constexpr int kPartitions = 16;
  static constexpr int kRowsPerPartition = 64;

  void SetUp() override {
    for (int p = 0; p < kPartitions; ++p) {
      std::string name = PartName(p);
      ColumnTable* t = *db_.CreateTable(
          name, Schema({ColumnDef("id", DataType::kInt64),
                        ColumnDef("amount", DataType::kDouble)}));
      auto txn = tm_.Begin();
      for (int r = 0; r < kRowsPerPartition; ++r) {
        ASSERT_TRUE(tm_.Insert(txn.get(), t,
                               {Value::Int(p * 1000 + r), Value::Dbl(r * 1.5)})
                        .ok());
      }
      ASSERT_TRUE(tm_.Commit(txn.get()).ok());
    }
  }

  static std::string PartName(int p) {
    return "part" + std::string(p < 10 ? "0" : "") + std::to_string(p);
  }

  /// One foreground scan of a partition through the interpreted executor
  /// (drives the access observer exactly like production queries).
  Status QueryPartition(const std::string& name) {
    Executor exec(&db_, tm_.AutoCommitView());
    return exec.Execute(PlanBuilder::Scan(name).Build()).status();
  }

  TieringDaemon::Options DaemonOpts() {
    TieringDaemon::Options o;
    o.heat.decay = 0.5;
    o.policy.promote_threshold = 4.0;
    o.policy.demote_threshold = 1.0;
    o.policy.epoch_budget_bytes = 0;
    o.policy.cooldown_epochs = 0;
    return o;
  }

  Database db_;
  TransactionManager tm_;
  ExtendedStorage storage_;
  SimulatedDfs dfs_;
  DfsTierStore cold_{&dfs_};
};

TEST_F(TieringDaemonFixture, ConvergesOnSkewedWorkloadWithinKEpochs) {
  auto opts = DaemonOpts();
  // With 100 queries/epoch and decay 0.5, steady-state heat is ~2x the
  // per-epoch scan count: rank 0 of the Zipf (~30% of traffic) sits near 60,
  // the tail (a few percent each) well under 15.
  opts.policy.promote_threshold = 30.0;
  opts.policy.demote_threshold = 15.0;
  TieringDaemon daemon(&db_, &storage_, opts);
  for (int p = 0; p < kPartitions; ++p) daemon.Manage(PartName(p));

  // Seeded Zipf workload over the partitions: ranks 0-1 absorb most of the
  // skewed traffic (theta .99), the tail is nearly idle.
  ZipfGenerator zipf(kPartitions, 0.99, /*seed=*/7);
  constexpr int kEpochs = 4;  // "within K epochs"
  constexpr int kQueriesPerEpoch = 100;
  for (int e = 0; e < kEpochs; ++e) {
    for (int q = 0; q < kQueriesPerEpoch; ++q) {
      ASSERT_TRUE(QueryPartition(PartName(static_cast<int>(zipf.Next()))).ok());
    }
    auto report = daemon.RunEpoch();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
  }

  // The hot head of the Zipf distribution must still be resident; the cold
  // tail must have been demoted to warm storage.
  int resident = 0, demoted = 0;
  for (int p = 0; p < kPartitions; ++p) {
    if (db_.GetTable(PartName(p)).ok()) {
      ++resident;
    } else {
      EXPECT_TRUE(storage_.Contains(PartName(p))) << PartName(p);
      ++demoted;
    }
  }
  EXPECT_TRUE(db_.GetTable(PartName(0)).ok());  // hottest rank stays hot
  EXPECT_GE(demoted, kPartitions / 2) << "cold tail should be demoted";
  EXPECT_GE(resident, 1);

  // A query against a demoted partition is a hot-tier miss: the daemon
  // promotes it back on demand and the query succeeds.
  std::string cold;
  for (int p = kPartitions - 1; p >= 0; --p) {
    if (!db_.GetTable(PartName(p)).ok()) {
      cold = PartName(p);
      break;
    }
  }
  ASSERT_FALSE(cold.empty());
  ASSERT_TRUE(QueryPartition(cold).ok());
  EXPECT_TRUE(db_.GetTable(cold).ok());
  EXPECT_GE(metrics::Default().counter("tier.daemon.miss_promotes")->Value(), 1u);
}

TEST_F(TieringDaemonFixture, HysteresisPreventsOscillationInsideBand) {
  auto opts = DaemonOpts();
  opts.policy.promote_threshold = 8.0;
  opts.policy.demote_threshold = 2.0;
  TieringDaemon daemon(&db_, &storage_, opts);
  daemon.Manage(PartName(0));

  // Constant 3 scans/epoch with decay 0.5 converges to heat 6: always inside
  // the (2, 8) band, so the partition must never move in either direction.
  uint64_t moves = 0;
  for (int e = 0; e < 10; ++e) {
    for (int q = 0; q < 3; ++q) ASSERT_TRUE(QueryPartition(PartName(0)).ok());
    auto report = daemon.RunEpoch();
    ASSERT_TRUE(report.ok());
    moves += report->promotes + report->demotes;
    const TieringDecision* d = FindDecision(report->decisions, PartName(0));
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->action, TierAction::kKeep) << "epoch " << e << ": " << d->reason;
  }
  EXPECT_EQ(moves, 0u);
  EXPECT_TRUE(db_.GetTable(PartName(0)).ok());
}

TEST_F(TieringDaemonFixture, MigrationBudgetCapsPerEpochBytes) {
  auto opts = DaemonOpts();
  // Budget below two partitions' worth: every epoch moves at most that many
  // bytes, deferring the rest, and drains the cold set over several epochs.
  uint64_t one_partition = (*db_.GetTable(PartName(0)))->MemoryBytes();
  ASSERT_GT(one_partition, 0u);
  opts.policy.epoch_budget_bytes = one_partition + one_partition / 2;
  TieringDaemon daemon(&db_, &storage_, opts);
  for (int p = 0; p < 6; ++p) daemon.Manage(PartName(p));

  uint64_t total_demoted = 0;
  int epochs_with_deferrals = 0;
  for (int e = 0; e < 8 && total_demoted < 6; ++e) {
    auto report = daemon.RunEpoch();  // nothing queried: all six are cold
    ASSERT_TRUE(report.ok());
    EXPECT_LE(report->moved_bytes, opts.policy.epoch_budget_bytes)
        << "epoch " << e << " blew the migration budget";
    total_demoted += report->demotes;
    if (report->deferred_budget > 0) ++epochs_with_deferrals;
  }
  EXPECT_EQ(total_demoted, 6u) << "budget must rate-limit, not starve";
  EXPECT_GE(epochs_with_deferrals, 1);
}

TEST_F(TieringDaemonFixture, ExplainAndDecisionLogAnswerWhy) {
  TieringDaemon daemon(&db_, &storage_, DaemonOpts());
  daemon.Manage(PartName(3));

  std::string before = daemon.Explain(PartName(3));
  EXPECT_NE(before.find("tier=hot"), std::string::npos);
  EXPECT_NE(before.find("last decision: none"), std::string::npos);

  ASSERT_TRUE(daemon.RunEpoch().ok());  // cold partition: demoted

  std::string after = daemon.Explain(PartName(3));
  EXPECT_NE(after.find("tier=warm"), std::string::npos);
  EXPECT_NE(after.find("demote"), std::string::npos);
  EXPECT_NE(after.find("demote threshold"), std::string::npos);

  auto log = daemon.DecisionLog();
  ASSERT_FALSE(log.empty());
  EXPECT_EQ(log.back().partition, PartName(3));
  EXPECT_EQ(log.back().action, TierAction::kDemote);
}

TEST_F(TieringDaemonFixture, AgingRulesFeedTheDaemon) {
  // An aged partition created by the rule engine is discovered and managed
  // automatically; the rule_aged bias shows up in its decisions.
  ColumnTable* orders = *db_.CreateTable(
      "orders", Schema({ColumnDef("id", DataType::kInt64),
                        ColumnDef("year", DataType::kInt64)}));
  auto txn = tm_.Begin();
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(
        tm_.Insert(txn.get(), orders, {Value::Int(i), Value::Int(i < 24 ? 2020 : 2026)})
            .ok());
  }
  ASSERT_TRUE(tm_.Commit(txn.get()).ok());

  AgingManager aging(&db_, &tm_);
  AgingRule rule;
  rule.name = "orders_rule";
  rule.table = "orders";
  rule.predicate =
      Expr::Compare(CmpOp::kLt, Expr::Column(1), Expr::Literal(Value::Int(2026)));
  rule.guarantee = {"year", CmpOp::kLt, Value::Int(2026)};
  ASSERT_TRUE(aging.AddRule(rule).ok());

  auto opts = DaemonOpts();
  opts.run_aging = true;
  TieringDaemon daemon(&db_, &storage_, opts, &aging);

  auto report = daemon.RunEpoch();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->rows_aged, 24u);
  // The freshly created, untouched aged partition is cold -> demoted by the
  // same epoch's decision pass.
  ASSERT_NE(FindDecision(report->decisions, "orders$aged"), nullptr);
  EXPECT_EQ(FindDecision(report->decisions, "orders$aged")->action,
            TierAction::kDemote);
  EXPECT_FALSE(db_.GetTable("orders$aged").ok());
  EXPECT_TRUE(storage_.Contains("orders$aged"));
  EXPECT_TRUE(db_.GetTable("orders").ok());  // the hot base table never moves
}

TEST_F(TieringDaemonFixture, ConcurrentQueriesWhileDaemonMovesPartitions) {
  auto opts = DaemonOpts();
  opts.policy.promote_threshold = 4.0;
  opts.policy.demote_threshold = 3.0;
  TieringDaemon daemon(&db_, &storage_, opts);
  for (int p = 0; p < kPartitions; ++p) daemon.Manage(PartName(p));

  // Query threads hammer a mixed hot/cold partition set while epoch runs
  // demote and miss-promotes re-promote concurrently. Every query must
  // succeed (pinning + demand paging), and the tree must be TSan-clean.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([this, t, &stop, &failures] {
      Random rng(1000 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        int p = static_cast<int>(rng.Uniform(kPartitions));
        if (!QueryPartition(PartName(p)).ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int e = 0; e < 20; ++e) {
    auto report = daemon.RunEpoch();
    EXPECT_TRUE(report.ok()) << report.status().ToString();
  }
  stop.store(true);
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0u);

  // Quiesced: every partition is somewhere (hot or warm), none lost.
  for (int p = 0; p < kPartitions; ++p) {
    EXPECT_TRUE(db_.GetTable(PartName(p)).ok() || storage_.Contains(PartName(p)))
        << PartName(p);
  }
}

TEST_F(TieringDaemonFixture, ColdDemotionAndDemandPageIn) {
  auto opts = DaemonOpts();
  opts.policy.cold_promote_threshold = 0.5;
  opts.policy.cold_demote_threshold = 0.25;
  opts.policy.cold_cooldown_epochs = 0;
  TieringDaemon daemon(&db_, &storage_, &cold_, opts);
  daemon.Manage(PartName(0));

  // The cold cost factor was derived from the two cost models:
  // 2 * 10 ns/B (DFS read) / (2 + 4) ns/B (warm round trip) = 10/3.
  EXPECT_NEAR(daemon.policy().options().cold_move_cost_factor, 10.0 / 3.0, 1e-9);

  uint64_t page_ins_before =
      metrics::Default().counter("tier.cold.page_ins")->Value();

  // Never queried: epoch 1 demotes hot->warm, epoch 2 sinks warm->cold.
  auto r1 = daemon.RunEpoch();
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->demotes, 1u);
  ASSERT_TRUE(storage_.Contains(PartName(0)));
  auto r2 = daemon.RunEpoch();
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->cold_demotes, 1u);
  EXPECT_GT(r2->priced_bytes, r2->moved_bytes);  // cold move priced > raw
  EXPECT_FALSE(storage_.Contains(PartName(0)));
  EXPECT_TRUE(cold_.Contains(PartName(0)));
  EXPECT_TRUE(dfs_.Exists(DfsTierStore::ColdPath(PartName(0))));

  std::string explain = daemon.Explain(PartName(0));
  EXPECT_NE(explain.find("tier=cold"), std::string::npos);
  EXPECT_NE(explain.find("demote-to-cold"), std::string::npos);

  // A query against the cold partition demand-pages it straight back to hot
  // with its MVCC stamps intact: every committed row is visible.
  Executor exec(&db_, tm_.AutoCommitView());
  auto rs = exec.Execute(PlanBuilder::Scan(PartName(0)).Build());
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows.size(), static_cast<size_t>(kRowsPerPartition));
  EXPECT_TRUE(db_.GetTable(PartName(0)).ok());
  // Moving out of the cold tier deletes the DFS file: residency stays
  // unambiguous.
  EXPECT_FALSE(cold_.Contains(PartName(0)));
  EXPECT_FALSE(dfs_.Exists(DfsTierStore::ColdPath(PartName(0))));
  EXPECT_EQ(metrics::Default().counter("tier.cold.page_ins")->Value(),
            page_ins_before + 1);
  std::string after = daemon.Explain(PartName(0));
  EXPECT_NE(after.find("tier=hot"), std::string::npos);
  EXPECT_NE(after.find("demand-paged in from cold"), std::string::npos);
}

TEST_F(TieringDaemonFixture, ModerateHeatRaisesColdToWarmOnly) {
  auto opts = DaemonOpts();  // promote threshold 4.0
  opts.policy.cold_promote_threshold = 0.5;
  opts.policy.cold_demote_threshold = 0.25;
  opts.policy.cold_cooldown_epochs = 0;
  TieringDaemon daemon(&db_, &storage_, &cold_, opts);
  daemon.Manage(PartName(1));

  // Place the partition cold by hand, then warm it gently — one scan folds
  // to heat 1.0, above cold-promote (0.5) but far below promote (4.0).
  ASSERT_TRUE(storage_.Demote(&db_, PartName(1)).ok());
  ASSERT_TRUE(cold_.Sink(&storage_, PartName(1)).ok());
  daemon.heat().OnAccess(Scan(PartName(1)));

  auto report = daemon.RunEpoch();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->cold_promotes, 1u);
  EXPECT_EQ(report->promotes, 0u);  // warm stopover, not hot
  EXPECT_TRUE(storage_.Contains(PartName(1)));
  EXPECT_FALSE(cold_.Contains(PartName(1)));
  EXPECT_FALSE(db_.GetTable(PartName(1)).ok());
  const TieringDecision* d = FindDecision(report->decisions, PartName(1));
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->action, TierAction::kPromoteFromCold);
}

TEST_F(TieringDaemonFixture, WithoutColdStoreDaemonStaysTwoBand) {
  auto opts = DaemonOpts();
  // Thresholds that would sink everything to cold if the band were active.
  opts.policy.cold_promote_threshold = 5.0;
  opts.policy.cold_demote_threshold = 4.0;
  TieringDaemon daemon(&db_, &storage_, opts);  // no DfsTierStore attached
  daemon.Manage(PartName(2));

  ASSERT_TRUE(daemon.RunEpoch().ok());  // hot -> warm (heat 0)
  auto report = daemon.RunEpoch();      // would be warm -> cold, but disabled
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->cold_demotes, 0u);
  EXPECT_TRUE(storage_.Contains(PartName(2)));
  const TieringDecision* d = FindDecision(report->decisions, PartName(2));
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->action, TierAction::kKeep);
}

TEST_F(TieringDaemonFixture, ExecutorsFeedPerColumnHeat) {
  TieringDaemon daemon(&db_, &storage_, &cold_, DaemonOpts());

  // An unpruned interpreted scan emits whole rows: both schema columns heat.
  ASSERT_TRUE(QueryPartition(PartName(1)).ok());
  // Compiled executor only touches its kernel's slots: SUM(amount) reads
  // "amount" but never "id".
  AggSpec total{AggFunc::kSum, Expr::Column(1), "total"};
  auto plan = PlanBuilder::Scan(PartName(2)).Aggregate({}, {total}).Build();
  QueryCompiler qc(&db_, tm_.AutoCommitView());
  ASSERT_TRUE(qc.CanCompile(plan));
  ASSERT_TRUE(qc.Execute(plan).ok());
  // SQL through the interpreted executor: the pruned scan reads (and
  // reports) only "amount".
  ASSERT_TRUE(db_.Execute("SELECT SUM(amount) AS s FROM " + PartName(3)).ok());

  daemon.heat().AdvanceEpoch();
  EXPECT_GT(daemon.heat().ColumnHeatOf(PartName(1), "id"), 0.0);
  EXPECT_GT(daemon.heat().ColumnHeatOf(PartName(1), "amount"), 0.0);
  EXPECT_GT(daemon.heat().ColumnHeatOf(PartName(2), "amount"), 0.0);
  EXPECT_DOUBLE_EQ(daemon.heat().ColumnHeatOf(PartName(2), "id"), 0.0);
  EXPECT_GT(daemon.heat().ColumnHeatOf(PartName(3), "amount"), 0.0);
  EXPECT_DOUBLE_EQ(daemon.heat().ColumnHeatOf(PartName(3), "id"), 0.0);

  std::string explain = daemon.Explain(PartName(1));
  EXPECT_NE(explain.find("column heat:"), std::string::npos);
  EXPECT_NE(explain.find("amount="), std::string::npos);
}

TEST_F(TieringDaemonFixture, ConcurrentScansSurviveColdDemotion) {
  // The §11.4/§12 safety argument, exercised across all THREE bands: query
  // threads hammer partitions while epochs demote hot->warm->cold and
  // misses demand-page cold->hot concurrently. Pinning + the movement lock
  // must keep every query succeeding, TSan-clean.
  auto opts = DaemonOpts();
  opts.policy.promote_threshold = 4.0;
  opts.policy.demote_threshold = 3.0;
  opts.policy.cold_promote_threshold = 2.0;
  opts.policy.cold_demote_threshold = 1.0;
  opts.policy.cold_cooldown_epochs = 0;
  TieringDaemon daemon(&db_, &storage_, &cold_, opts);
  for (int p = 0; p < kPartitions; ++p) daemon.Manage(PartName(p));

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([this, t, &stop, &failures] {
      Random rng(2000 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        int p = static_cast<int>(rng.Uniform(kPartitions));
        if (!QueryPartition(PartName(p)).ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int e = 0; e < 20; ++e) {
    auto report = daemon.RunEpoch();
    EXPECT_TRUE(report.ok()) << report.status().ToString();
  }
  stop.store(true);
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0u);

  // Quiesced: every partition is in exactly one tier, none lost.
  for (int p = 0; p < kPartitions; ++p) {
    int homes = (db_.GetTable(PartName(p)).ok() ? 1 : 0) +
                (storage_.Contains(PartName(p)) ? 1 : 0) +
                (cold_.Contains(PartName(p)) ? 1 : 0);
    EXPECT_EQ(homes, 1) << PartName(p);
  }

  // With queries gone, heat decays geometrically and everything must drain
  // hot -> warm -> cold: the full three-band descent for every partition.
  for (int e = 0; e < 40; ++e) {
    ASSERT_TRUE(daemon.RunEpoch().ok());
    bool all_cold = true;
    for (int p = 0; p < kPartitions; ++p) all_cold &= cold_.Contains(PartName(p));
    if (all_cold) break;
  }
  for (int p = 0; p < kPartitions; ++p) {
    EXPECT_TRUE(cold_.Contains(PartName(p))) << PartName(p);
  }
  // And a final query revives one straight from DFS.
  ASSERT_TRUE(QueryPartition(PartName(5)).ok());
  EXPECT_TRUE(db_.GetTable(PartName(5)).ok());
}

TEST_F(TieringDaemonFixture, EpochSizesHotPartitionBesideWriter) {
  // Every epoch sizes each hot partition (ColumnTable::MemoryBytes) while a
  // writer commits into it; a negative demote threshold keeps it hot, so
  // each epoch reads its dictionaries beside the writer's appends.
  auto opts = DaemonOpts();
  opts.policy.demote_threshold = -1.0;
  TieringDaemon daemon(&db_, &storage_, opts);
  daemon.Manage(PartName(0));
  ColumnTable* t = *db_.GetTable(PartName(0));

  constexpr int kWrites = 3000;
  std::atomic<bool> done{false};
  std::atomic<int> failed_writes{0};
  std::thread writer([&] {
    for (int r = 0; r < kWrites; ++r) {
      auto txn = tm_.Begin();
      if (!tm_.Insert(txn.get(), t, {Value::Int(100000 + r), Value::Dbl(r * 0.5)}).ok() ||
          !tm_.Commit(txn.get()).ok()) {
        failed_writes.fetch_add(1);
      }
    }
    done.store(true);
  });
  do {
    auto report = daemon.RunEpoch();
    EXPECT_TRUE(report.ok()) << report.status().ToString();
  } while (!done.load());
  writer.join();
  EXPECT_EQ(failed_writes.load(), 0);
  ASSERT_TRUE(db_.GetTable(PartName(0)).ok());  // stayed hot
  EXPECT_EQ(t->Read().size(), static_cast<uint64_t>(kRowsPerPartition + kWrites));
}

TEST_F(TieringDaemonFixture, BackgroundThreadStartStop) {
  TieringDaemon daemon(&db_, &storage_, DaemonOpts());
  daemon.Manage(PartName(0));
  EXPECT_FALSE(daemon.running());
  daemon.Start(std::chrono::milliseconds(1));
  EXPECT_TRUE(daemon.running());
  // Let a few wall-clock epochs fire, then stop; Stop must join cleanly and
  // be idempotent.
  for (int spins = 0; daemon.heat().epoch() < 3 && spins < 5000; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  daemon.Stop();
  EXPECT_FALSE(daemon.running());
  daemon.Stop();  // idempotent
  EXPECT_GE(daemon.heat().epoch(), 3u);
}

}  // namespace
}  // namespace poly
