// E22: workload-driven adaptive tiering (the daemon closing Fig. 1's loop)
// vs static rule-based placement, under a seeded Zipf workload over 16
// partition tables whose access skew does NOT line up with their age.
//
// Rows reproduced:
//   Adaptive_StaticRules   - age-based placement fixed up front (the older
//     half lives in warm storage). Every query to a warm partition pays a
//     promote+demote round trip (counter modeled_storage_ms); hot_hit_rate
//     is the fraction of queries that found their partition resident.
//   Adaptive_Daemon        - same initial placement, but the TieringDaemon
//     observes the queries and runs an epoch every 200 of them: hot
//     partitions promoted (and kept), cold ones demoted. Hit rate climbs to
//     ~the Zipf head mass and modeled storage time collapses after the
//     first epochs. moved_mb meters the migration traffic.
//   Tiering_ScanNoTracker / Tiering_ScanWithTracker - foreground scan cost
//     without and with the access-heat observer attached (the <3% overhead
//     budget of DESIGN.md §11: one virtual call + a few relaxed atomic adds
//     per (query, partition)).
//
// Expected shape: the daemon beats static rules by a wide margin on
// hot_hit_rate (it places by observed heat, the static rule by age) at the
// cost of bounded early migration traffic; the two Tiering_Scan* rows are
// within noise of each other.
//
// E24 adds the third band (DFS cold tier, DESIGN.md §11.4):
//   Adaptive_ThreeBand_TwoBandBaseline - the same Zipf workload on a daemon
//     WITHOUT a cold store: the idle tail piles up in warm storage forever.
//   Adaptive_ThreeBand_Daemon          - cold store attached: the tail sinks
//     on to DFS (cold_demotes), rare tail queries demand-page back
//     (cold_reads), and the budget prices those moves by the DFS cost model.
// Expected shape: hot_hit_rate within noise of the two-band baseline (the
// Zipf head never leaves memory, so the cold band must not cost hits) and
// hot_mb identical, while warm_mb collapses toward zero as the tail drains
// to cold_mb.
//
// The placement rows run exactly one iteration: placement state carries
// over between iterations, so an iteration count picked by host speed
// would change every counter. One iteration is one fixed query stream.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "aging/extended_storage.h"
#include "common/random.h"
#include "hadoop/dfs.h"
#include "hadoop/dfs_tier_store.h"
#include "query/executor.h"
#include "tiering/daemon.h"
#include "workloads.h"

namespace poly {
namespace {

constexpr int kPartitions = 16;
constexpr int kRowsPerPartition = 2000;
constexpr int kQueriesPerBatch = 2000;
constexpr int kEpochEvery = 200;  // daemon cadence, in queries

std::string PartName(int p) {
  return "orders_p" + std::string(p < 10 ? "0" : "") + std::to_string(p);
}

void LoadPartitions(Database* db, TransactionManager* tm) {
  for (int p = 0; p < kPartitions; ++p) {
    bench::LoadOrders(db, tm, PartName(p), kRowsPerPartition,
                      /*seed=*/100 + p);
  }
}

/// Rank -> partition mapping that decorrelates Zipf hotness from partition
/// age (a fixed Fisher-Yates shuffle): rank 0's traffic lands on an "old"
/// partition the static rule keeps in warm storage.
std::vector<int> RankToPartition() {
  std::vector<int> perm(kPartitions);
  for (int i = 0; i < kPartitions; ++i) perm[i] = i;
  Random rng(1234);
  for (int i = kPartitions - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng.Uniform(static_cast<uint64_t>(i + 1))]);
  }
  return perm;
}

PlanPtr SumPlan(const std::string& table) {
  AggSpec sum{AggFunc::kSum, Expr::Column(3), "revenue"};
  return PlanBuilder::Scan(table).Aggregate({}, {sum}).Build();
}

/// Static rule-based placement: the "older" half (p >= 8) is demoted once
/// and placement never changes. A query to a warm partition promotes it,
/// runs, and demotes it back — the rule says it does not belong in memory.
void Adaptive_StaticRules(benchmark::State& state) {
  Database db;
  TransactionManager tm;
  ExtendedStorage warm;
  LoadPartitions(&db, &tm);
  for (int p = kPartitions / 2; p < kPartitions; ++p) {
    (void)warm.Demote(&db, PartName(p));
  }
  std::vector<int> perm = RankToPartition();
  std::vector<PlanPtr> plans;
  for (int p = 0; p < kPartitions; ++p) plans.push_back(SumPlan(PartName(p)));

  uint64_t hits = 0, queries = 0;
  double storage_nanos = 0;
  ZipfGenerator zipf(kPartitions, 0.99, /*seed=*/7);
  for (auto _ : state) {
    for (int q = 0; q < kQueriesPerBatch; ++q) {
      int p = perm[zipf.Next()];
      ++queries;
      bool resident = db.GetTable(PartName(p)).ok();
      if (resident) {
        ++hits;
      } else {
        double before = warm.simulated_nanos();
        (void)*warm.Promote(&db, PartName(p));
        storage_nanos += warm.simulated_nanos() - before;
      }
      Executor exec(&db, tm.AutoCommitView());
      benchmark::DoNotOptimize(exec.Execute(plans[p])->rows[0][0].NumericValue());
      if (!resident) (void)warm.Demote(&db, PartName(p));  // rule says: warm
    }
  }
  state.counters["hot_hit_rate"] = static_cast<double>(hits) / queries;
  state.counters["modeled_storage_ms"] =
      storage_nanos / 1e6 / state.iterations();
}
BENCHMARK(Adaptive_StaticRules)->Unit(benchmark::kMillisecond)->Iterations(1);

/// Daemon-driven placement: same initial age-based demotion, but the daemon
/// watches the workload and re-places partitions every kEpochEvery queries.
/// Hot-tier misses promote on demand (and stay until the policy cools them).
void Adaptive_Daemon(benchmark::State& state) {
  Database db;
  TransactionManager tm;
  ExtendedStorage warm;
  LoadPartitions(&db, &tm);
  for (int p = kPartitions / 2; p < kPartitions; ++p) {
    (void)warm.Demote(&db, PartName(p));
  }
  tiering::TieringDaemon::Options opts;
  opts.heat.decay = 0.5;
  // kEpochEvery Zipf(0.99) queries/epoch: the head ranks see dozens of
  // scans, the tail single digits; the band splits them.
  opts.policy.promote_threshold = 30.0;
  opts.policy.demote_threshold = 15.0;
  opts.policy.cooldown_epochs = 1;
  tiering::TieringDaemon daemon(&db, &warm, opts);
  for (int p = 0; p < kPartitions; ++p) daemon.Manage(PartName(p));
  std::vector<int> perm = RankToPartition();
  std::vector<PlanPtr> plans;
  for (int p = 0; p < kPartitions; ++p) plans.push_back(SumPlan(PartName(p)));

  uint64_t hits = 0, queries = 0, moved_bytes = 0;
  double storage_nanos = 0;
  ZipfGenerator zipf(kPartitions, 0.99, /*seed=*/7);
  for (auto _ : state) {
    for (int q = 0; q < kQueriesPerBatch; ++q) {
      int p = perm[zipf.Next()];
      ++queries;
      if (db.GetTable(PartName(p)).ok()) ++hits;
      double before = warm.simulated_nanos();
      Executor exec(&db, tm.AutoCommitView());
      // A miss is resolved inside the executor (hot-tier miss -> promote).
      benchmark::DoNotOptimize(exec.Execute(plans[p])->rows[0][0].NumericValue());
      storage_nanos += warm.simulated_nanos() - before;
      if (queries % kEpochEvery == 0) {
        auto report = daemon.RunEpoch();
        if (report.ok()) moved_bytes += report->moved_bytes;
      }
    }
  }
  state.counters["hot_hit_rate"] = static_cast<double>(hits) / queries;
  state.counters["modeled_storage_ms"] =
      storage_nanos / 1e6 / state.iterations();
  state.counters["moved_mb"] =
      static_cast<double>(moved_bytes) / 1e6 / state.iterations();
}
BENCHMARK(Adaptive_Daemon)->Unit(benchmark::kMillisecond)->Iterations(1);

/// E24 core: the Adaptive_Daemon workload plus kHistory aged "history"
/// partitions the Zipf never touches — only a rare audit query (1 in
/// kAuditEvery) reads one. With a cold store the idle history drains to DFS
/// and audits demand-page it back; without one (the two-band baseline,
/// identical loop and thresholds otherwise) it squats in warm storage
/// forever.
constexpr int kHistory = 8;
constexpr int kAuditEvery = 400;

void ThreeBandRun(benchmark::State& state, bool with_cold) {
  Database db;
  TransactionManager tm;
  ExtendedStorage warm;
  SimulatedDfs dfs;
  DfsTierStore cold(&dfs);
  LoadPartitions(&db, &tm);
  for (int p = kPartitions; p < kPartitions + kHistory; ++p) {
    bench::LoadOrders(&db, &tm, PartName(p), kRowsPerPartition, /*seed=*/100 + p);
  }
  // Age-based initial placement: the older active half AND all history
  // partitions start warm.
  for (int p = kPartitions / 2; p < kPartitions + kHistory; ++p) {
    (void)warm.Demote(&db, PartName(p));
  }
  tiering::TieringDaemon::Options opts;
  opts.heat.decay = 0.5;
  opts.policy.promote_threshold = 30.0;
  opts.policy.demote_threshold = 15.0;
  // Active-tail partitions hold steady-state heat ~8 (a few Zipf-tail scans
  // per epoch) and stay warm; history decays toward 0, falls through the
  // (2, 4) band, and sinks to DFS.
  opts.policy.cold_promote_threshold = 4.0;
  opts.policy.cold_demote_threshold = 2.0;
  opts.policy.cooldown_epochs = 1;
  opts.policy.cold_cooldown_epochs = 2;
  tiering::TieringDaemon daemon(&db, &warm, with_cold ? &cold : nullptr, opts);
  for (int p = 0; p < kPartitions + kHistory; ++p) daemon.Manage(PartName(p));
  std::vector<int> perm = RankToPartition();
  std::vector<PlanPtr> plans;
  for (int p = 0; p < kPartitions + kHistory; ++p) {
    plans.push_back(SumPlan(PartName(p)));
  }

  uint64_t hits = 0, queries = 0, moved_bytes = 0, priced_bytes = 0;
  uint64_t cold_demotes = 0, cold_promotes = 0, cold_reads = 0;
  ZipfGenerator zipf(kPartitions, 0.99, /*seed=*/7);
  Random audit_rng(99);
  for (auto _ : state) {
    for (int q = 0; q < kQueriesPerBatch; ++q) {
      ++queries;
      int p = queries % kAuditEvery == 0
                  ? kPartitions + static_cast<int>(audit_rng.Uniform(kHistory))
                  : perm[zipf.Next()];
      if (db.GetTable(PartName(p)).ok()) {
        ++hits;
      } else if (cold.Contains(PartName(p))) {
        ++cold_reads;  // this miss will demand-page from DFS
      }
      Executor exec(&db, tm.AutoCommitView());
      benchmark::DoNotOptimize(exec.Execute(plans[p])->rows[0][0].NumericValue());
      if (queries % kEpochEvery == 0) {
        auto report = daemon.RunEpoch();
        if (report.ok()) {
          moved_bytes += report->moved_bytes;
          priced_bytes += report->priced_bytes;
          cold_demotes += report->cold_demotes;
          cold_promotes += report->cold_promotes;
        }
      }
    }
  }

  uint64_t hot_bytes = 0;
  int cold_parts = 0;
  for (int p = 0; p < kPartitions + kHistory; ++p) {
    if (auto t = db.GetTable(PartName(p)); t.ok()) hot_bytes += (*t)->MemoryBytes();
    if (cold.Contains(PartName(p))) ++cold_parts;
  }
  state.counters["hot_hit_rate"] = static_cast<double>(hits) / queries;
  state.counters["hot_mb"] = static_cast<double>(hot_bytes) / 1e6;
  state.counters["warm_mb"] = static_cast<double>(warm.bytes_stored()) / 1e6;
  state.counters["cold_mb"] = static_cast<double>(cold.bytes_stored()) / 1e6;
  state.counters["cold_parts"] = cold_parts;
  state.counters["cold_reads"] = static_cast<double>(cold_reads);
  state.counters["cold_demotes"] = static_cast<double>(cold_demotes);
  state.counters["cold_promotes"] = static_cast<double>(cold_promotes);
  state.counters["moved_mb"] =
      static_cast<double>(moved_bytes) / 1e6 / state.iterations();
  state.counters["priced_mb"] =
      static_cast<double>(priced_bytes) / 1e6 / state.iterations();
}

void Adaptive_ThreeBand_TwoBandBaseline(benchmark::State& state) {
  ThreeBandRun(state, /*with_cold=*/false);
}
BENCHMARK(Adaptive_ThreeBand_TwoBandBaseline)->Unit(benchmark::kMillisecond)->Iterations(1);

void Adaptive_ThreeBand_Daemon(benchmark::State& state) {
  ThreeBandRun(state, /*with_cold=*/true);
}
BENCHMARK(Adaptive_ThreeBand_Daemon)->Unit(benchmark::kMillisecond)->Iterations(1);

/// Foreground scan, no observer attached: the AccessEvent branch in the
/// executor short-circuits on a null observer pointer.
void Tiering_ScanNoTracker(benchmark::State& state) {
  Database db;
  TransactionManager tm;
  bench::LoadOrders(&db, &tm, "orders", 50000);
  PlanPtr plan = SumPlan("orders");
  for (auto _ : state) {
    Executor exec(&db, tm.AutoCommitView());
    benchmark::DoNotOptimize(exec.Execute(plan)->rows[0][0].NumericValue());
  }
}
BENCHMARK(Tiering_ScanNoTracker)->Unit(benchmark::kMicrosecond);

/// Same scan with the daemon's heat tracker observing every access: the
/// delta against Tiering_ScanNoTracker is the whole foreground cost of the
/// tiering subsystem (budget: <3%).
void Tiering_ScanWithTracker(benchmark::State& state) {
  Database db;
  TransactionManager tm;
  ExtendedStorage warm;
  bench::LoadOrders(&db, &tm, "orders", 50000);
  tiering::TieringDaemon daemon(&db, &warm);  // attaches the observer
  daemon.Manage("orders");
  PlanPtr plan = SumPlan("orders");
  for (auto _ : state) {
    Executor exec(&db, tm.AutoCommitView());
    benchmark::DoNotOptimize(exec.Execute(plan)->rows[0][0].NumericValue());
  }
}
BENCHMARK(Tiering_ScanWithTracker)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace poly
