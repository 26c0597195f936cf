// E2 (§II-A): "the main memory column store is also used for heavy
// transactional load [...] The combination of both workloads in one system
// allows to avoid the expensive replication costs between OLTP and OLAP
// systems and provides access for all analytic questions in real time."
//
// Rows reproduced:
//   HTAP_OltpInsert/{column,row}       - write path on both engines
//   HTAP_OlapQuery/{column,row}        - analytics on both engines
//   HTAP_TwoSystems_WithReplication    - classic row-OLTP + replicate +
//                                        column-OLAP pipeline (the baseline
//                                        the paper retires)
//   HTAP_SingleSystem_Mixed            - same mixed load on one column store
//   HTAP_Parallel{Scan,Aggregate,JoinAggregate}/threads - E19's morsel
//                                        parallelism over 1M orders
// Expected shape: column OLAP >> row OLAP; single system avoids the
// replication cost entirely and serves fresh data.

#include <benchmark/benchmark.h>

#include "query/executor.h"
#include "types/value_serde.h"
#include "query/optimizer.h"
#include "workloads.h"

namespace poly {
namespace {

PlanPtr RevenueByRegionPlan(const std::string& table) {
  AggSpec cnt{AggFunc::kCount, nullptr, "cnt"};
  AggSpec sum{AggFunc::kSum, Expr::Column(3), "revenue"};
  return PlanBuilder::Scan(table).Aggregate({2}, {cnt, sum}).Build();
}

void HTAP_OltpInsert_Column(benchmark::State& state) {
  Database db;
  TransactionManager tm;
  ColumnTable* t = *db.CreateTable("orders", bench::OrdersSchema());
  Random rng(1);
  ZipfGenerator customers(10000, 0.99, 2);
  int64_t id = 0;
  for (auto _ : state) {
    auto txn = tm.Begin();
    benchmark::DoNotOptimize(tm.Insert(txn.get(), t, bench::MakeOrder(id++, &rng, &customers)));
    (void)tm.Commit(txn.get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(HTAP_OltpInsert_Column);

void HTAP_OltpInsert_Row(benchmark::State& state) {
  Database db;
  TransactionManager tm;
  RowTable* t = *db.CreateRowTable("orders", bench::OrdersSchema());
  Random rng(1);
  ZipfGenerator customers(10000, 0.99, 2);
  int64_t id = 0;
  for (auto _ : state) {
    auto txn = tm.Begin();
    benchmark::DoNotOptimize(tm.Insert(txn.get(), t, bench::MakeOrder(id++, &rng, &customers)));
    (void)tm.Commit(txn.get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(HTAP_OltpInsert_Row);

void HTAP_OlapQuery_Column(benchmark::State& state) {
  Database db;
  TransactionManager tm;
  bench::LoadOrders(&db, &tm, "orders", static_cast<int>(state.range(0)));
  PlanPtr plan = RevenueByRegionPlan("orders");
  for (auto _ : state) {
    Executor exec(&db, tm.AutoCommitView());
    auto rs = exec.Execute(plan);
    benchmark::DoNotOptimize(rs->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(HTAP_OlapQuery_Column)->Arg(20000)->Arg(100000);

void HTAP_OlapQuery_Row(benchmark::State& state) {
  Database db;
  TransactionManager tm;
  RowTable* t = *db.CreateRowTable("orders", bench::OrdersSchema());
  Random rng(42);
  ZipfGenerator customers(10000, 0.99, 43);
  auto txn = tm.Begin();
  for (int i = 0; i < state.range(0); ++i) {
    (void)tm.Insert(txn.get(), t, bench::MakeOrder(i, &rng, &customers));
  }
  (void)tm.Commit(txn.get());
  // Row-store OLAP baseline: manual scan + group-by over full rows.
  for (auto _ : state) {
    std::unordered_map<std::string, std::pair<int64_t, double>> groups;
    ReadView now = tm.AutoCommitView();
    RowTable::ReadGuard rows(t);
    rows.ScanVisible(now, [&](uint64_t r) {
      const Row& row = rows.row(r);
      auto& g = groups[row[2].AsString()];
      g.first += 1;
      g.second += row[3].AsDouble();
    });
    benchmark::DoNotOptimize(groups.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(HTAP_OlapQuery_Row)->Arg(20000)->Arg(100000);

// The two-architecture comparison: each "tick" is a batch of 500 inserts
// followed by one analytic query.
void HTAP_TwoSystems_WithReplication(benchmark::State& state) {
  Database db;
  TransactionManager tm;
  RowTable* oltp = *db.CreateRowTable("oltp", bench::OrdersSchema());
  ColumnTable* olap = *db.CreateTable("olap", bench::OrdersSchema());
  Random rng(5);
  ZipfGenerator customers(10000, 0.99, 6);
  int64_t id = 0;
  PlanPtr plan = RevenueByRegionPlan("olap");
  uint64_t replicated_rows = 0;
  for (auto _ : state) {
    // OLTP side.
    auto txn = tm.Begin();
    uint64_t first_new = oltp->Read().size();
    for (int i = 0; i < 500; ++i) {
      (void)tm.Insert(txn.get(), oltp, bench::MakeOrder(id++, &rng, &customers));
    }
    (void)tm.Commit(txn.get());
    // ETL replication to the OLAP system (the cost the paper eliminates).
    // Real replication crosses a process boundary: rows serialize out of
    // the OLTP store and deserialize into the OLAP store.
    auto repl = tm.Begin();
    RowTable::ReadGuard rows(oltp);
    for (uint64_t r = first_new; r < rows.size(); ++r) {
      Serializer wire;
      Row row = rows.row(r);
      wire.PutVarint(row.size());
      for (const Value& v : row) WriteValue(&wire, v);
      Deserializer rd(wire.data());
      uint64_t width = *rd.GetVarint();
      Row decoded;
      decoded.reserve(width);
      for (uint64_t c = 0; c < width; ++c) decoded.push_back(*ReadValue(&rd));
      (void)tm.Insert(repl.get(), olap, decoded);
      ++replicated_rows;
    }
    (void)tm.Commit(repl.get());
    // OLAP side.
    Executor exec(&db, tm.AutoCommitView());
    benchmark::DoNotOptimize(exec.Execute(plan)->num_rows());
  }
  state.counters["replicated_rows"] = static_cast<double>(replicated_rows);
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(HTAP_TwoSystems_WithReplication);

void HTAP_SingleSystem_Mixed(benchmark::State& state) {
  Database db;
  TransactionManager tm;
  ColumnTable* t = *db.CreateTable("orders", bench::OrdersSchema());
  Random rng(5);
  ZipfGenerator customers(10000, 0.99, 6);
  int64_t id = 0;
  PlanPtr plan = RevenueByRegionPlan("orders");
  for (auto _ : state) {
    auto txn = tm.Begin();
    for (int i = 0; i < 500; ++i) {
      (void)tm.Insert(txn.get(), t, bench::MakeOrder(id++, &rng, &customers));
    }
    (void)tm.Commit(txn.get());
    Executor exec(&db, tm.AutoCommitView());
    benchmark::DoNotOptimize(exec.Execute(plan)->num_rows());
  }
  state.counters["replicated_rows"] = 0;  // the point of the architecture
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(HTAP_SingleSystem_Mixed);

// Morsel-driven parallel executor: the same analytic plans, dispatched over
// a thread pool in fixed-size row ranges. Arg is the thread count; Arg(1)
// is the serial baseline, so `benchmark_filter=HTAP_Parallel` prints the
// per-thread-count speedup directly. Results are bit-identical to serial
// (fragments merge in morsel order), so only time should move.
struct ParallelFixture {
  Database db;
  TransactionManager tm;
  ParallelFixture() {
    bench::LoadOrders(&db, &tm, "orders", 1000000);
    // customers(c_id, c_segment): one row per customer id orders draw.
    static const char* kSegments[] = {"auto", "building", "furniture", "household",
                                      "machinery"};
    ColumnTable* customers = *db.CreateTable(
        "customers", Schema({ColumnDef("c_id", DataType::kInt64),
                             ColumnDef("c_segment", DataType::kString)}));
    auto txn = tm.Begin();
    for (int64_t id = 0; id < 10000; ++id) {
      (void)tm.Insert(txn.get(), customers, {Value::Int(id), Value::Str(kSegments[id % 5])});
    }
    (void)tm.Commit(txn.get());
    customers->Merge();
  }
  static ParallelFixture& Get() {
    static ParallelFixture f;
    return f;
  }
};

void HTAP_ParallelScan(benchmark::State& state) {
  ParallelFixture& f = ParallelFixture::Get();
  ExecOptions opts;
  opts.num_threads = static_cast<size_t>(state.range(0));
  opts.morsel_rows = 65536;
  // region == "east" with a pushed-down predicate: the scan is the work.
  PlanPtr plan = PlanBuilder::Scan("orders")
                     .Filter(Expr::Compare(CmpOp::kEq, Expr::Column(2),
                                           Expr::Literal(Value::Str("east"))))
                     .Build();
  for (auto _ : state) {
    Executor exec(&f.db, f.tm.AutoCommitView(), opts);
    auto rs = exec.Execute(plan);
    benchmark::DoNotOptimize(rs->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * 1000000);
}
BENCHMARK(HTAP_ParallelScan)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void HTAP_ParallelAggregate(benchmark::State& state) {
  ParallelFixture& f = ParallelFixture::Get();
  ExecOptions opts;
  opts.num_threads = static_cast<size_t>(state.range(0));
  opts.morsel_rows = 65536;
  PlanPtr plan = RevenueByRegionPlan("orders");
  for (auto _ : state) {
    Executor exec(&f.db, f.tm.AutoCommitView(), opts);
    auto rs = exec.Execute(plan);
    benchmark::DoNotOptimize(rs->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * 1000000);
}
BENCHMARK(HTAP_ParallelAggregate)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// orders ⋈ customers ON customer = c_id, GROUP BY c_segment: the join reads
// both scans in place (the probe looks up each customer id once, not each
// order) and the aggregate folds the match pairs.
void HTAP_ParallelJoinAggregate(benchmark::State& state) {
  ParallelFixture& f = ParallelFixture::Get();
  ExecOptions opts;
  opts.num_threads = static_cast<size_t>(state.range(0));
  opts.morsel_rows = 65536;
  AggSpec cnt{AggFunc::kCount, nullptr, "cnt"};
  AggSpec sum{AggFunc::kSum, Expr::Column(3), "revenue"};
  PlanPtr plan = PlanBuilder::Scan("orders")
                     .HashJoin(PlanBuilder::Scan("customers").Build(), /*left_key=*/1,
                               /*right_key=*/0)
                     .Aggregate({7}, {cnt, sum})
                     .Build();
  for (auto _ : state) {
    Executor exec(&f.db, f.tm.AutoCommitView(), opts);
    auto rs = exec.Execute(plan);
    benchmark::DoNotOptimize(rs->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * 1000000);
}
BENCHMARK(HTAP_ParallelJoinAggregate)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace poly
