// E15 (§IV-C, Figure 4): Hadoop integration. "The most simple way of
// integration is a federated approach which is pushing down SQL statements
// [...] the scale-out option provides a significantly deeper integration."
//
// Rows reproduced:
//   Hadoop_Federated_PullAll/<rows>   - raw-file federation: the whole DFS
//     file ships to the engine, filter runs locally (counter: mb_shipped)
//   Hadoop_Federated_Pushdown/<rows>  - pushdown-capable remote source:
//     only matches ship
//   Hadoop_MapReduceLocal/<rows>      - the deep integration: the job runs
//     next to the data, only aggregates leave
//   Hadoop_ImportToEngine/<rows>      - bulk load DFS -> column store

#include <benchmark/benchmark.h>

#include "common/string_util.h"
#include "federation/federation.h"
#include "hadoop/mapreduce.h"
#include "hadoop/table_connector.h"
#include "workloads.h"

namespace poly {
namespace {

/// Writes `rows` sensor readings to the DFS as TSV and mirrors them in a
/// "remote" engine for the pushdown variant.
struct HadoopSetup {
  SimulatedDfs dfs;
  Database remote_db;
  TransactionManager remote_tm;
  std::string path = "/lake/readings.tsv";

  explicit HadoopSetup(int rows) {
    ColumnTable* t = *remote_db.CreateTable(
        "readings", Schema({ColumnDef("sensor", DataType::kInt64),
                            ColumnDef("value", DataType::kDouble)}));
    Random rng(21);
    auto txn = remote_tm.Begin();
    std::string tsv = "sensor:INT64\tvalue:DOUBLE\n";
    for (int i = 0; i < rows; ++i) {
      int64_t sensor = static_cast<int64_t>(rng.Uniform(1000));
      double value = rng.NextDouble() * 100;
      (void)remote_tm.Insert(txn.get(), t, {Value::Int(sensor), Value::Dbl(value)});
      tsv += std::to_string(sensor) + "\t" + std::to_string(value) + "\n";
    }
    (void)remote_tm.Commit(txn.get());
    t->Merge();
    (void)dfs.Write(path, tsv);
  }

  ExprPtr HotSensorPredicate() {  // ~1% selectivity
    return Expr::Compare(CmpOp::kLt, Expr::Column(0), Expr::Literal(Value::Int(10)));
  }
};

void Hadoop_Federated_PullAll(benchmark::State& state) {
  HadoopSetup setup(static_cast<int>(state.range(0)));
  FederationEngine fed;
  auto src = DfsFileSource::Open(&setup.dfs, setup.path);
  (void)fed.RegisterSource("v", std::move(src.value()));
  size_t hits = 0;
  for (auto _ : state) {
    auto rs = fed.ScanVirtual("v", setup.HotSensorPredicate());
    hits = rs->num_rows();
    benchmark::DoNotOptimize(hits);
  }
  state.counters["mb_shipped"] =
      static_cast<double>((*fed.Source("v"))->bytes_transferred()) / 1e6 /
      state.iterations();
  state.counters["hits"] = static_cast<double>(hits);
}
BENCHMARK(Hadoop_Federated_PullAll)->Arg(100000)->Unit(benchmark::kMillisecond);

void Hadoop_Federated_Pushdown(benchmark::State& state) {
  HadoopSetup setup(static_cast<int>(state.range(0)));
  FederationEngine fed;
  (void)fed.RegisterSource("v", std::make_unique<RemoteTableSource>(
                                    &setup.remote_db, &setup.remote_tm, "readings",
                                    /*supports_pushdown=*/true));
  size_t hits = 0;
  for (auto _ : state) {
    auto rs = fed.ScanVirtual("v", setup.HotSensorPredicate());
    hits = rs->num_rows();
    benchmark::DoNotOptimize(hits);
  }
  state.counters["mb_shipped"] =
      static_cast<double>((*fed.Source("v"))->bytes_transferred()) / 1e6 /
      state.iterations();
  state.counters["hits"] = static_cast<double>(hits);
}
BENCHMARK(Hadoop_Federated_Pushdown)->Arg(100000)->Unit(benchmark::kMillisecond);

void Hadoop_MapReduceLocal(benchmark::State& state) {
  HadoopSetup setup(static_cast<int>(state.range(0)));
  ThreadPool pool(4);
  MapReduceJob job(&setup.dfs, &pool);
  for (auto _ : state) {
    auto stats = job.Run(
        setup.path, "/lake/out",
        [](const std::string& line) {
          std::vector<KeyValue> out;
          auto f = SplitString(line, '\t');
          if (f.size() == 2 && f[0] != "sensor:INT64" && std::stol(f[0]) < 10) {
            out.push_back(KeyValue{f[0], f[1]});
          }
          return out;
        },
        [](const std::string& key, const std::vector<std::string>& values) {
          double sum = 0;
          for (const auto& v : values) sum += std::stod(v);
          return std::vector<std::string>{key + "\t" + std::to_string(sum)};
        });
    benchmark::DoNotOptimize(stats->map_output_pairs);
  }
  // Only the per-sensor aggregates cross the boundary (10 lines).
  state.counters["mb_shipped"] =
      static_cast<double>(*setup.dfs.FileSize("/lake/out")) / 1e6;
}
BENCHMARK(Hadoop_MapReduceLocal)->Arg(100000)->Unit(benchmark::kMillisecond);

void Hadoop_ImportToEngine(benchmark::State& state) {
  HadoopSetup setup(static_cast<int>(state.range(0)));
  DfsTableConnector conn(&setup.dfs);
  int round = 0;
  for (auto _ : state) {
    Database db;
    TransactionManager tm;
    auto t = conn.Import(setup.path, "local_" + std::to_string(round++), &db, &tm);
    benchmark::DoNotOptimize((*t)->Read().size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(Hadoop_ImportToEngine)->Arg(100000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace poly
