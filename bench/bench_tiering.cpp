// E1 (Figure 1): the data-temperature pyramid — hot in-memory, warm
// extended storage, cold DFS — "transactional data may age and [be] moved
// to extended storage and potentially into HDFS-based systems".
//
// Rows reproduced (same aggregate query against the same data per tier):
//   Tier_Hot_InMemory       - query the resident column table
//   Tier_Warm_Extended      - promote from extended storage, then query
//     (counter modeled_disk_ms: the simulated disk cost)
//   Tier_Cold_Dfs           - promote from the DFS cold store, then query
//     (counter modeled_dfs_ms: simulated cold-storage cost)
// Expected shape: orders of magnitude between tiers on the modeled
// counters; real time also rises with the deserialize work.

#include <benchmark/benchmark.h>

#include "aging/extended_storage.h"
#include "hadoop/dfs_tier_store.h"
#include "query/executor.h"
#include "workloads.h"

namespace poly {
namespace {

PlanPtr SumPlan(const std::string& table) {
  AggSpec sum{AggFunc::kSum, Expr::Column(3), "revenue"};
  return PlanBuilder::Scan(table).Aggregate({}, {sum}).Build();
}

void Tier_Hot_InMemory(benchmark::State& state) {
  Database db;
  TransactionManager tm;
  bench::LoadOrders(&db, &tm, "orders", static_cast<int>(state.range(0)));
  PlanPtr plan = SumPlan("orders");
  for (auto _ : state) {
    Executor exec(&db, tm.AutoCommitView());
    benchmark::DoNotOptimize(exec.Execute(plan)->rows[0][0].NumericValue());
  }
  state.counters["modeled_storage_ms"] = 0;
}
BENCHMARK(Tier_Hot_InMemory)->Arg(50000)->Unit(benchmark::kMillisecond);

void Tier_Warm_Extended(benchmark::State& state) {
  Database db;
  TransactionManager tm;
  bench::LoadOrders(&db, &tm, "orders", static_cast<int>(state.range(0)));
  ExtendedStorage warm;
  (void)warm.Demote(&db, "orders");
  PlanPtr plan = SumPlan("orders");
  double storage_nanos = 0;
  for (auto _ : state) {
    double before = warm.simulated_nanos();
    ColumnTable* t = *warm.Promote(&db, "orders");
    (void)t;
    storage_nanos += warm.simulated_nanos() - before;
    Executor exec(&db, tm.AutoCommitView());
    benchmark::DoNotOptimize(exec.Execute(plan)->rows[0][0].NumericValue());
    // Promote moves (no warm copy stays behind), so demote for the next
    // round; its write cost lands outside the measured promote window.
    (void)warm.Demote(&db, "orders");
  }
  state.counters["modeled_storage_ms"] = storage_nanos / 1e6 / state.iterations();
}
BENCHMARK(Tier_Warm_Extended)->Arg(50000)->Unit(benchmark::kMillisecond);

void Tier_Cold_Dfs(benchmark::State& state) {
  Database db;
  TransactionManager tm;
  bench::LoadOrders(&db, &tm, "orders", static_cast<int>(state.range(0)));
  SimulatedDfs::Options dfs_opts;
  dfs_opts.block_size = 256 * 1024;
  SimulatedDfs dfs(dfs_opts);
  ExtendedStorage warm;
  DfsTierStore cold(&dfs);
  (void)warm.Demote(&db, "orders");
  std::string payload = *warm.TakePayload("orders");
  PlanPtr plan = SumPlan("orders");
  double dfs_nanos = 0;
  for (auto _ : state) {
    // PageIn moves (the DFS file is deleted), so sink the payload again
    // for every round, outside the timed window.
    state.PauseTiming();
    (void)warm.AdoptPayload("orders", payload);
    (void)cold.Sink(&warm, "orders");
    state.ResumeTiming();
    double before = dfs.simulated_read_nanos();
    ColumnTable* t = *cold.PageIn(&db, "orders");
    (void)t;
    dfs_nanos += dfs.simulated_read_nanos() - before;
    Executor exec(&db, tm.AutoCommitView());
    benchmark::DoNotOptimize(exec.Execute(plan)->rows[0][0].NumericValue());
    (void)db.DropTable("orders");
  }
  state.counters["modeled_storage_ms"] = dfs_nanos / 1e6 / state.iterations();
}
BENCHMARK(Tier_Cold_Dfs)->Arg(50000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace poly
