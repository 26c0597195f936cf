// E14 (§IV-B, Figure 3): the scale-out extension. "These plans can lead to
// strong speedup results compared to single machine execution" [13];
// CORFU-style shared log [15]; OLTP vs OLAP node consistency.
//
// Rows reproduced:
//   Soe_ScaleOut/<nodes>          - same distributed aggregate (planned as
//     partial-per-partition -> final fragments) over 1..8 nodes; counter
//     makespan_ms models the parallel cluster (max per-node work), wall
//     time on one core is the serial sum
//   Soe_SharedLogAppend/<units>   - log append throughput vs replication
//   Soe_InsertCommit              - end-to-end commit through the broker
//   Soe_OlapStaleness             - staleness (log offsets) an OLAP node
//     accumulates under write load, and the Poll cost to catch up
//
// E20 (fault model, DESIGN.md §9): availability and recovery under chaos.
//   Soe_ChaosAvailability/<drop%> - distributed aggregates on a cluster
//     whose fabric drops <drop%> of messages; counters report the fraction
//     of queries that still succeed, the retry volume paying for it, and
//     the modeled (virtual-clock) latency per query
//   Soe_ChaosRecovery             - kill a node, Rebalance (log replay onto
//     the survivors), then prove the cluster answers — the timed region is
//     the whole crash-to-served-query recovery

#include <benchmark/benchmark.h>

#include "soe/cluster.h"
#include "workloads.h"

namespace poly {
namespace {

Schema ReadingsSchema() {
  return Schema({ColumnDef("sensor", DataType::kInt64),
                 ColumnDef("value", DataType::kDouble)});
}

/// One global aggregate over `readings`, lowered by the distributed planner
/// and run through the coordinator's fragment runner.
StatusOr<ResultSet> AggregateReadings(SoeCluster* cluster, std::vector<AggSpec> aggs) {
  PlanPtr plan = PlanBuilder::Scan("readings").Aggregate({}, std::move(aggs)).Build();
  DistributedPlanner planner(&cluster->catalog(), &cluster->discovery());
  POLY_ASSIGN_OR_RETURN(DistributedPlan dplan, planner.Plan(plan));
  return cluster->RunFragments(dplan);
}

void Soe_ScaleOut(benchmark::State& state) {
  int nodes = static_cast<int>(state.range(0));
  SoeCluster::Options opts;
  opts.num_nodes = nodes;
  opts.log_units = 3;
  opts.log_replication = 1;
  SoeCluster cluster(opts);
  // Partitions = 2 per node so placement is balanced.
  (void)cluster.CreateTable("readings", ReadingsSchema(),
                            PartitionSpec::Hash("sensor", nodes * 2));
  const int kRows = 200000;
  std::vector<Row> rows;
  rows.reserve(kRows);
  Random rng(3);
  for (int i = 0; i < kRows; ++i) {
    rows.push_back({Value::Int(static_cast<int64_t>(rng.Uniform(100000))),
                    Value::Dbl(rng.NextDouble() * 100)});
  }
  (void)cluster.CommitInserts("readings", rows);

  AggSpec cnt{AggFunc::kCount, nullptr, "cnt"};
  AggSpec sum{AggFunc::kSum, Expr::Column(1), "sum"};
  uint64_t makespan = 0;
  for (auto _ : state) {
    auto rs = AggregateReadings(&cluster, {cnt, sum});
    makespan = cluster.last_query_stats().makespan_nanos;
    benchmark::DoNotOptimize(rs->rows[0][1].NumericValue());
  }
  state.counters["makespan_ms"] = static_cast<double>(makespan) / 1e6;
  state.counters["modeled_speedup_vs_serial"] =
      static_cast<double>(cluster.last_query_stats().total_exec_nanos) /
      static_cast<double>(makespan == 0 ? 1 : makespan);
  state.counters["network_msgs"] = static_cast<double>(cluster.network().messages());
}
BENCHMARK(Soe_ScaleOut)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

void Soe_SharedLogAppend(benchmark::State& state) {
  SharedLog log(SharedLog::Options{4, static_cast<int>(state.range(0))});
  std::string record(128, 'r');
  for (auto _ : state) {
    benchmark::DoNotOptimize(*log.Append(record));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["replication"] = static_cast<double>(state.range(0));
}
BENCHMARK(Soe_SharedLogAppend)->Arg(1)->Arg(2)->Arg(4);

void Soe_InsertCommit(benchmark::State& state) {
  SoeCluster::Options opts;
  opts.num_nodes = 4;
  SoeCluster cluster(opts);
  (void)cluster.CreateTable("readings", ReadingsSchema(),
                            PartitionSpec::Hash("sensor", 8), /*replication=*/2);
  Random rng(3);
  for (auto _ : state) {
    Row row = {Value::Int(static_cast<int64_t>(rng.Uniform(100000))),
               Value::Dbl(rng.NextDouble())};
    benchmark::DoNotOptimize(*cluster.Insert("readings", row));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(Soe_InsertCommit);

void Soe_OlapStaleness(benchmark::State& state) {
  SoeCluster::Options opts;
  opts.num_nodes = 2;
  opts.default_mode = NodeMode::kOlap;
  SoeCluster cluster(opts);
  (void)cluster.CreateTable("readings", ReadingsSchema(),
                            PartitionSpec::Hash("sensor", 4));
  Random rng(3);
  uint64_t max_staleness = 0;
  for (auto _ : state) {
    // A burst of 100 commits lands in the log without touching the nodes...
    for (int i = 0; i < 100; ++i) {
      (void)cluster.Insert("readings",
                           {Value::Int(static_cast<int64_t>(rng.Uniform(1000))),
                            Value::Dbl(1.0)});
    }
    max_staleness = std::max(max_staleness, cluster.Staleness(0));
    // ...then the OLAP node polls and catches up (the timed portion is the
    // full produce+poll cycle).
    (void)cluster.PollNode(0);
    (void)cluster.PollNode(1);
  }
  state.counters["max_staleness_offsets"] = static_cast<double>(max_staleness);
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(Soe_OlapStaleness);

void Soe_ChaosAvailability(benchmark::State& state) {
  SoeCluster::Options opts;
  opts.num_nodes = 4;
  opts.net.drop_probability = static_cast<double>(state.range(0)) / 100.0;
  opts.net.delay_probability = 0.2;
  opts.retry.max_attempts = 6;
  SoeCluster cluster(opts);
  (void)cluster.CreateTable("readings", ReadingsSchema(),
                            PartitionSpec::Hash("sensor", 8), /*replication=*/2);
  std::vector<Row> rows;
  Random rng(3);
  for (int i = 0; i < 20000; ++i) {
    rows.push_back({Value::Int(static_cast<int64_t>(rng.Uniform(100000))),
                    Value::Dbl(rng.NextDouble() * 100)});
  }
  (void)cluster.CommitInserts("readings", rows);

  AggSpec cnt{AggFunc::kCount, nullptr, "cnt"};
  AggSpec sum{AggFunc::kSum, Expr::Column(1), "sum"};
  uint64_t served = 0, failed = 0;
  uint64_t virtual_start = cluster.network().virtual_nanos();
  uint64_t retries_start = cluster.total_retries();
  for (auto _ : state) {
    auto rs = AggregateReadings(&cluster, {cnt, sum});
    if (rs.ok()) {
      ++served;
      benchmark::DoNotOptimize(rs->rows[0][1].NumericValue());
    } else {
      ++failed;
    }
  }
  double queries = static_cast<double>(served + failed);
  state.counters["drop_pct"] = static_cast<double>(state.range(0));
  state.counters["availability"] = queries == 0 ? 0 : static_cast<double>(served) / queries;
  state.counters["retries_per_query"] =
      queries == 0 ? 0
                   : static_cast<double>(cluster.total_retries() - retries_start) / queries;
  state.counters["virtual_us_per_query"] =
      queries == 0
          ? 0
          : static_cast<double>(cluster.network().virtual_nanos() - virtual_start) /
                queries / 1e3;
  state.counters["dropped_msgs"] = static_cast<double>(cluster.network().dropped());
}
BENCHMARK(Soe_ChaosAvailability)->Arg(0)->Arg(5)->Arg(10)->Arg(25);

void Soe_ChaosRecovery(benchmark::State& state) {
  AggSpec cnt{AggFunc::kCount, nullptr, "cnt"};
  uint64_t replayed = 0;
  for (auto _ : state) {
    state.PauseTiming();  // cluster + data setup is not part of recovery
    SoeCluster::Options opts;
    opts.num_nodes = 4;
    SoeCluster cluster(opts);
    (void)cluster.CreateTable("readings", ReadingsSchema(),
                              PartitionSpec::Hash("sensor", 8), /*replication=*/2);
    Random rng(3);
    for (int batch = 0; batch < 200; ++batch) {  // 200 commits of 100 rows
      std::vector<Row> rows;
      for (int i = 0; i < 100; ++i) {
        rows.push_back({Value::Int(static_cast<int64_t>(rng.Uniform(100000))),
                        Value::Dbl(rng.NextDouble())});
      }
      (void)cluster.CommitInserts("readings", rows);
    }
    state.ResumeTiming();

    // Crash-to-served-query: kill, rebuild replicas from the log, answer.
    (void)cluster.KillNode(0);
    (void)cluster.Rebalance();
    auto rs = AggregateReadings(&cluster, {cnt});
    benchmark::DoNotOptimize(rs->rows[0][0]);
    replayed = cluster.log().Tail();
  }
  state.counters["log_records_replayed"] = static_cast<double>(replayed);
}
BENCHMARK(Soe_ChaosRecovery)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace poly
