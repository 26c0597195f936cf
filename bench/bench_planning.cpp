// E17 (§II-D): "the planning process requires heavy CPU based database
// functionality like disaggregation or copy processes, providing logical
// snapshots or versioning [...] integrated directly into the relational
// engine".
//
// Rows reproduced:
//   Plan_CopyVersion/<rows>          - the in-engine copy operator (one
//     transaction, whole version)
//   Plan_CopyVersion_RowAtATime/<rows> - app-layer pattern: one transaction
//     per row (what a client driving the copy remotely pays)
//   Plan_DisaggregateVersion/<rows>  - retarget a version total in place
//   Plan_DisaggregateKernel/<cells>  - raw largest-remainder disaggregation

#include <benchmark/benchmark.h>

#include "engines/planning/planning.h"
#include "workloads.h"

namespace poly {
namespace {

Schema PlanSchema() {
  return Schema({ColumnDef("version", DataType::kInt64),
                 ColumnDef("key", DataType::kInt64),
                 ColumnDef("value", DataType::kDouble)});
}

ColumnTable* LoadPlan(Database* db, TransactionManager* tm, int rows) {
  ColumnTable* t = *db->CreateTable("plan", PlanSchema());
  Random rng(12);
  auto txn = tm->Begin();
  for (int i = 0; i < rows; ++i) {
    (void)tm->Insert(txn.get(), t,
                     {Value::Int(1), Value::Int(i), Value::Dbl(rng.NextDouble() * 100)});
  }
  (void)tm->Commit(txn.get());
  return t;
}

void Plan_CopyVersion(benchmark::State& state) {
  int rows = static_cast<int>(state.range(0));
  int64_t next_version = 2;
  Database db;
  TransactionManager tm;
  LoadPlan(&db, &tm, rows);
  PlanningEngine engine = *PlanningEngine::Create(&tm, *db.GetTable("plan"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(*engine.CopyVersion(1, next_version++, 1.05));
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(Plan_CopyVersion)->Arg(5000)->Unit(benchmark::kMillisecond);

void Plan_CopyVersion_RowAtATime(benchmark::State& state) {
  int rows = static_cast<int>(state.range(0));
  int64_t next_version = 2;
  Database db;
  TransactionManager tm;
  ColumnTable* t = LoadPlan(&db, &tm, rows);
  for (auto _ : state) {
    // Client-driven copy: read each row "out", write it back one commit at
    // a time (round trips modeled by the per-row transaction overhead).
    std::vector<Row> source;
    ReadView now = tm.AutoCommitView();
    ColumnTable::ReadGuard g(t);
    g.ScanVisible(now, [&](uint64_t r) {
      Row row = g.GetRow(r);
      if (row[0].AsInt() == 1) source.push_back(std::move(row));
    });
    for (Row& row : source) {
      row[0] = Value::Int(next_version);
      row[2] = Value::Dbl(row[2].AsDouble() * 1.05);
      auto txn = tm.Begin();
      (void)tm.Insert(txn.get(), t, row);
      (void)tm.Commit(txn.get());
    }
    ++next_version;
    benchmark::DoNotOptimize(source.size());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(Plan_CopyVersion_RowAtATime)->Arg(5000)->Unit(benchmark::kMillisecond);

void Plan_DisaggregateVersion(benchmark::State& state) {
  int rows = static_cast<int>(state.range(0));
  Database db;
  TransactionManager tm;
  LoadPlan(&db, &tm, rows);
  PlanningEngine engine = *PlanningEngine::Create(&tm, *db.GetTable("plan"));
  double target = 1e6;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.DisaggregateVersion(1, target).ok());
    target *= 1.01;
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(Plan_DisaggregateVersion)->Arg(5000)->Unit(benchmark::kMillisecond);

void Plan_DisaggregateKernel(benchmark::State& state) {
  int cells = static_cast<int>(state.range(0));
  Random rng(8);
  std::vector<double> weights(cells);
  for (double& w : weights) w = rng.NextDouble();
  for (auto _ : state) {
    auto parts = DisaggregateInt(1000000, weights);
    benchmark::DoNotOptimize((*parts)[0]);
  }
  state.SetItemsProcessed(state.iterations() * cells);
}
BENCHMARK(Plan_DisaggregateKernel)->Arg(100000);

}  // namespace
}  // namespace poly
