// Cross-module integration tests: each test wires several subsystems
// together the way the paper's scenarios (§V) do, asserting end-to-end
// behaviour rather than per-module contracts.

#include <gtest/gtest.h>

#include "aging/aging.h"
#include "common/string_util.h"
#include "aging/extended_storage.h"
#include "bfl/business_functions.h"
#include "engines/geo/geo_index.h"
#include "engines/graph/graph_view.h"
#include "engines/text/text_engine.h"
#include "engines/timeseries/ts_ops.h"
#include "federation/federation.h"
#include "hadoop/mapreduce.h"
#include "hadoop/table_connector.h"
#include "query/compiled.h"
#include "query/executor.h"
#include "query/optimizer.h"
#include "soe/cluster.h"
#include "soe_test_util.h"

namespace poly {
namespace {

// DFS file -> import -> column store -> query -> export -> re-import:
// the full data-refinement loop of Figure 1.
TEST(Integration, DfsImportQueryExportRoundTrip) {
  Database db;
  TransactionManager tm;
  SimulatedDfs dfs;
  DfsTableConnector conn(&dfs);

  std::string tsv = "sensor:INT64\tvalue:DOUBLE\n";
  for (int i = 0; i < 300; ++i) {
    tsv += std::to_string(i % 10) + "\t" + std::to_string(i * 0.5) + "\n";
  }
  ASSERT_TRUE(dfs.Write("/in.tsv", tsv).ok());
  ColumnTable* t = *conn.Import("/in.tsv", "readings", &db, &tm);

  // Aggregate in the engine.
  AggSpec avg{AggFunc::kAvg, Expr::Column(1), "avg_v"};
  auto plan = PlanBuilder::Scan("readings").Aggregate({0}, {avg}).Build();
  Executor exec(&db, tm.AutoCommitView());
  auto rs = exec.Execute(plan);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->num_rows(), 10u);

  // Export and re-import: same row count, same values.
  ASSERT_TRUE(conn.Export(*t, tm.AutoCommitView(), "/out.tsv").ok());
  ColumnTable* t2 = *conn.Import("/out.tsv", "readings2", &db, &tm);
  EXPECT_EQ(t2->Read().CountVisible(tm.AutoCommitView()),
            t->Read().CountVisible(tm.AutoCommitView()));
}

// Aging + extended storage + pruned queries: Fig. 1 top-to-bottom. Aged
// partition is demoted to warm storage; a recent-only query still works
// without it (pruned), and promoting it restores full-history queries.
TEST(Integration, AgeDowntierQueryPromote) {
  Database db;
  TransactionManager tm;
  ColumnTable* orders = *db.CreateTable(
      "orders", Schema({ColumnDef("id", DataType::kInt64),
                        ColumnDef("year", DataType::kInt64),
                        ColumnDef("open", DataType::kBool)}));
  auto txn = tm.Begin();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(tm.Insert(txn.get(), orders,
                          {Value::Int(i), Value::Int(i < 70 ? 2022 : 2026),
                           Value::Boolean(i >= 70)})
                    .ok());
  }
  ASSERT_TRUE(tm.Commit(txn.get()).ok());

  AgingManager aging(&db, &tm);
  AgingRule rule;
  rule.name = "r";
  rule.table = "orders";
  rule.predicate =
      Expr::Compare(CmpOp::kLt, Expr::Column(1), Expr::Literal(Value::Int(2026)));
  rule.guarantee = {"year", CmpOp::kLt, Value::Int(2026)};
  ASSERT_TRUE(aging.AddRule(rule).ok());
  auto stats = aging.RunAging();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rows_aged, 70u);

  ExtendedStorage warm;
  ASSERT_TRUE(warm.Demote(&db, "orders$aged").ok());

  // Recent-only query: pruner limits the scan to the hot partition, so the
  // demoted partition is never touched.
  Optimizer opt(&aging);
  auto recent = opt.Optimize(
      PlanBuilder::Scan("orders")
          .Filter(Expr::Compare(CmpOp::kGe, Expr::Column(1),
                                Expr::Literal(Value::Int(2026))))
          .Build());
  Executor exec(&db, tm.AutoCommitView());
  auto rs = exec.Execute(recent);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->num_rows(), 30u);

  // Full-history query needs the warm partition back.
  auto all = opt.Optimize(PlanBuilder::Scan("orders").Build());
  Executor exec_fail(&db, tm.AutoCommitView());
  EXPECT_FALSE(exec_fail.Execute(all).ok());  // aged partition not resident
  ASSERT_TRUE(warm.Promote(&db, "orders$aged").ok());
  Executor exec_ok(&db, tm.AutoCommitView());
  auto full = exec_ok.Execute(all);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->num_rows(), 100u);
}

// Text entities land in a relational table and join with master data.
TEST(Integration, TextEntitiesJoinMasterData) {
  Database db;
  TransactionManager tm;
  ColumnTable* notes = *db.CreateTable(
      "notes", Schema({ColumnDef("id", DataType::kInt64),
                       ColumnDef("body", DataType::kString)}));
  ColumnTable* entities = *db.CreateTable(
      "entities", Schema({ColumnDef("doc_row", DataType::kInt64),
                          ColumnDef("kind", DataType::kString),
                          ColumnDef("entity", DataType::kString)}));
  ColumnTable* companies = *db.CreateTable(
      "companies", Schema({ColumnDef("name", DataType::kString),
                           ColumnDef("segment", DataType::kString)}));
  auto txn = tm.Begin();
  ASSERT_TRUE(tm.Insert(txn.get(), notes,
                        {Value::Int(1),
                         Value::Str("meeting with Acme Corp about the new valves")})
                  .ok());
  ASSERT_TRUE(tm.Insert(txn.get(), companies,
                        {Value::Str("Acme Corp"), Value::Str("industrial")}).ok());
  ASSERT_TRUE(tm.Commit(txn.get()).ok());

  TextEngine engine = *TextEngine::Create(notes, "body");
  engine.Refresh();
  ASSERT_TRUE(engine.ExtractEntitiesTo(&tm, entities).ok());

  // Join extracted entity names against the company master table.
  auto plan = PlanBuilder::Scan("entities")
                  .Filter(Expr::Compare(CmpOp::kEq, Expr::Column(1),
                                        Expr::Literal(Value::Str("COMPANY"))))
                  .HashJoin(PlanBuilder::Scan("companies").Build(), 2, 0)
                  .Build();
  Executor exec(&db, tm.AutoCommitView());
  auto rs = exec.Execute(plan);
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->num_rows(), 1u);
  EXPECT_EQ(rs->rows[0][4], Value::Str("industrial"));
}

// SOE cluster fed from a DFS file through the connector path, then a
// distributed aggregate — the Figure 4 "deep integration" flow.
TEST(Integration, DfsToSoeDistributedQuery) {
  SimulatedDfs dfs;
  std::string tsv = "sensor:INT64\tvalue:DOUBLE\n";
  for (int i = 0; i < 400; ++i) {
    tsv += std::to_string(i % 20) + "\t" + std::to_string(1.0 * i) + "\n";
  }
  ASSERT_TRUE(dfs.Write("/lake/r.tsv", tsv).ok());
  auto parsed = DfsTableConnector::ParseTsv(*dfs.Read("/lake/r.tsv"));
  ASSERT_TRUE(parsed.ok());

  SoeCluster::Options opts;
  opts.num_nodes = 3;
  SoeCluster cluster(opts);
  ASSERT_TRUE(cluster.CreateTable("readings", parsed->first,
                                  PartitionSpec::Hash("sensor", 6), 2)
                  .ok());
  ASSERT_TRUE(cluster.CommitInserts("readings", parsed->second).ok());

  AggSpec cnt{AggFunc::kCount, nullptr, "cnt"};
  AggSpec sum{AggFunc::kSum, Expr::Column(1), "sum"};
  auto rs = RunPlanned(&cluster, AggregateOf("readings", {}, {cnt, sum}));
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows[0][0], Value::Int(400));
  EXPECT_DOUBLE_EQ(rs->rows[0][1].NumericValue(), 399.0 * 400 / 2);

  // Node failure mid-flight: replicated table still answers.
  ASSERT_TRUE(cluster.KillNode(1).ok());
  auto rs2 = RunPlanned(&cluster, AggregateOf("readings", {}, {cnt}));
  ASSERT_TRUE(rs2.ok());
  EXPECT_EQ(rs2->rows[0][0], Value::Int(400));
}

// Federation + currency conversion: remote sales in multiple currencies,
// pushdown-filtered, converted in the "hub" engine (SDA + BFL together).
TEST(Integration, FederatedSalesConvertedTotal) {
  Database remote_db;
  TransactionManager remote_tm;
  ColumnTable* sales = *remote_db.CreateTable(
      "sales", Schema({ColumnDef("amount", DataType::kDouble),
                       ColumnDef("currency", DataType::kString),
                       ColumnDef("year", DataType::kInt64)}));
  auto txn = remote_tm.Begin();
  ASSERT_TRUE(remote_tm.Insert(txn.get(), sales,
                               {Value::Dbl(100), Value::Str("USD"), Value::Int(2026)}).ok());
  ASSERT_TRUE(remote_tm.Insert(txn.get(), sales,
                               {Value::Dbl(50), Value::Str("EUR"), Value::Int(2026)}).ok());
  ASSERT_TRUE(remote_tm.Insert(txn.get(), sales,
                               {Value::Dbl(999), Value::Str("EUR"), Value::Int(2020)}).ok());
  ASSERT_TRUE(remote_tm.Commit(txn.get()).ok());

  FederationEngine fed;
  ASSERT_TRUE(fed.RegisterSource("v_sales",
                                 std::make_unique<RemoteTableSource>(
                                     &remote_db, &remote_tm, "sales", true))
                  .ok());
  auto rs = fed.ScanVirtual(
      "v_sales",
      Expr::Compare(CmpOp::kEq, Expr::Column(2), Expr::Literal(Value::Int(2026))));
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->num_rows(), 2u);

  CurrencyConverter fx;
  fx.AddRate("USD", "EUR", 0, 0.9);
  double total = 0;
  for (const Row& row : rs->rows) {
    total += *fx.Convert(row[0].AsDouble(), row[1].AsString(), "EUR", 1);
  }
  EXPECT_DOUBLE_EQ(total, 100 * 0.9 + 50);
}

// MapReduce output consumed by the time-series engine: the machine-
// maintenance pipeline in miniature.
TEST(Integration, MapReduceToTimeSeries) {
  SimulatedDfs dfs;
  ThreadPool pool(2);
  std::string raw;
  for (int minute = 0; minute < 600; ++minute) {
    raw += "m1\t" + std::to_string(minute) + "\t" +
           std::to_string(10.0 + minute * 0.01) + "\n";
  }
  ASSERT_TRUE(dfs.Write("/raw", raw).ok());
  MapReduceJob job(&dfs, &pool);
  auto stats = job.Run(
      "/raw", "/hourly",
      [](const std::string& line) {
        auto f = SplitString(line, '\t');
        std::vector<KeyValue> out;
        if (f.size() == 3) {
          out.push_back(KeyValue{std::to_string(std::stol(f[1]) / 60), f[2]});
        }
        return out;
      },
      [](const std::string& key, const std::vector<std::string>& values) {
        double sum = 0;
        for (const auto& v : values) sum += std::stod(v);
        return std::vector<std::string>{key + "\t" +
                                        std::to_string(sum / values.size())};
      });
  ASSERT_TRUE(stats.ok());

  TimeSeries hourly;
  std::vector<std::pair<int64_t, double>> points;
  for (const auto& line : SplitString(*dfs.Read("/hourly"), '\n')) {
    if (line.empty()) continue;
    auto kv = SplitString(line, '\t');
    points.emplace_back(std::stoll(kv[0]), std::stod(kv[1]));
  }
  std::sort(points.begin(), points.end());
  for (auto [t, v] : points) hourly.Append(t, v);
  ASSERT_EQ(hourly.size(), 10u);
  // The upward drift survives the two-stage aggregation.
  EXPECT_GT(hourly.values.back(), hourly.values.front());
  TimeSeries diff = Difference(hourly);
  for (double v : diff.values) EXPECT_GT(v, 0);
}

// Optimizer + compiled execution + aging pruning compose: a pruned,
// pushed-down aggregate still takes the fused-kernel path and matches the
// interpreted result.
TEST(Integration, CompiledQueryOverPrunedPartitions) {
  Database db;
  TransactionManager tm;
  ColumnTable* orders = *db.CreateTable(
      "orders", Schema({ColumnDef("id", DataType::kInt64),
                        ColumnDef("year", DataType::kInt64),
                        ColumnDef("amount", DataType::kDouble)}));
  auto txn = tm.Begin();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(tm.Insert(txn.get(), orders,
                          {Value::Int(i), Value::Int(i < 150 ? 2021 : 2026),
                           Value::Dbl(1.0 * i)})
                    .ok());
  }
  ASSERT_TRUE(tm.Commit(txn.get()).ok());

  AgingManager aging(&db, &tm);
  AgingRule rule;
  rule.name = "r";
  rule.table = "orders";
  rule.predicate =
      Expr::Compare(CmpOp::kLt, Expr::Column(1), Expr::Literal(Value::Int(2026)));
  rule.guarantee = {"year", CmpOp::kLt, Value::Int(2026)};
  ASSERT_TRUE(aging.AddRule(rule).ok());
  ASSERT_TRUE(aging.RunAging().ok());

  AggSpec sum{AggFunc::kSum, Expr::Column(2), "s"};
  Optimizer opt(&aging);
  auto plan = opt.Optimize(
      PlanBuilder::Scan("orders")
          .Filter(Expr::Compare(CmpOp::kGe, Expr::Column(1),
                                Expr::Literal(Value::Int(2026))))
          .Aggregate({}, {sum})
          .Build());

  Executor exec(&db, tm.AutoCommitView());
  auto interp = exec.Execute(plan);
  ASSERT_TRUE(interp.ok());
  EXPECT_EQ(exec.stats().partitions_scanned, 1u);  // aged partition pruned

  QueryCompiler qc(&db, tm.AutoCommitView());
  ASSERT_TRUE(qc.CanCompile(plan));
  auto compiled = qc.Execute(plan);
  ASSERT_TRUE(compiled.ok());
  double expect = 0;
  for (int i = 150; i < 200; ++i) expect += i;
  EXPECT_DOUBLE_EQ(interp->rows[0][0].NumericValue(), expect);
  EXPECT_DOUBLE_EQ(compiled->rows[0][0].NumericValue(), expect);
}

// Graph + geo combined: route costs as a graph, positions filtered by a
// polygon (pipeline scenario shape).
TEST(Integration, GraphAndGeoCombine) {
  Database db;
  TransactionManager tm;
  ColumnTable* nodes = *db.CreateTable(
      "nodes", Schema({ColumnDef("id", DataType::kInt64),
                       ColumnDef("pos", DataType::kGeoPoint)}));
  ColumnTable* edges = *db.CreateTable(
      "edges", Schema({ColumnDef("src", DataType::kInt64),
                       ColumnDef("dst", DataType::kInt64),
                       ColumnDef("w", DataType::kDouble)}));
  auto txn = tm.Begin();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(tm.Insert(txn.get(), nodes,
                          {Value::Int(i), Value::GeoPoint(10.0 + i * 0.1, 50.0)}).ok());
    if (i > 0) {
      ASSERT_TRUE(tm.Insert(txn.get(), edges,
                            {Value::Int(i - 1), Value::Int(i), Value::Dbl(1.0)}).ok());
    }
  }
  ASSERT_TRUE(tm.Commit(txn.get()).ok());
  ReadView now = tm.AutoCommitView();
  GraphView g = *GraphView::Build(*edges, now, "src", "dst", "w");
  GeoIndex idx = *GeoIndex::Build(*nodes, now, "pos", 0.05);

  // Nodes inside the polygon AND within graph distance 3 of node 0.
  GeoPolygon area({{9.95, 49.9}, {10.45, 49.9}, {10.45, 50.1}, {9.95, 50.1}});
  auto in_area = idx.ContainedIn(area);                 // nodes 0..4 by lon
  auto reachable = g.NodesWithinCost(0, 3.0);           // nodes 0..3 by hops
  std::vector<int64_t> both;
  ColumnTable::ReadGuard node_rows(nodes);
  for (uint64_t row : in_area) {
    int64_t id = node_rows.GetValue(row, 0).AsInt();
    if (std::find(reachable.begin(), reachable.end(), id) != reachable.end()) {
      both.push_back(id);
    }
  }
  EXPECT_EQ(both, (std::vector<int64_t>{0, 1, 2, 3}));
}

}  // namespace
}  // namespace poly
