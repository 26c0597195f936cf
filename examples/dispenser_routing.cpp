// Scenario V-3 from the paper: a soap producer plans refill routes for
// washroom dispensers.
//
//  * fill-level sensor readings land in the (simulated) Hadoop DFS,
//  * event notices are unstructured text mined with the text engine,
//  * dispenser locations live in the geo engine,
//  * the service road network is a graph view over a relational edge table,
//  * ERP master data stays relational,
// and one program combines all engines — the paper's "polyphonic data
// management" demonstration.

#include <cstdio>
#include <set>

#include "engines/geo/geo_index.h"
#include "engines/graph/graph_view.h"
#include "engines/text/text_engine.h"
#include "engines/timeseries/ts_ops.h"
#include "hadoop/table_connector.h"
#include "txn/transaction_manager.h"

using namespace poly;

int main() {
  Database db;
  TransactionManager tm;
  SimulatedDfs dfs;

  // ---- ERP master data: dispensers with locations (relational + geo) ----
  ColumnTable* dispensers = *db.CreateTable(
      "dispensers", Schema({ColumnDef("id", DataType::kInt64),
                            ColumnDef("site", DataType::kString),
                            ColumnDef("road_node", DataType::kInt64),
                            ColumnDef("location", DataType::kGeoPoint)}));
  {
    auto txn = tm.Begin();
    const char* sites[] = {"airport", "mall", "stadium", "office"};
    for (int i = 0; i < 12; ++i) {
      double lon = 8.40 + (i % 4) * 0.05;
      double lat = 49.00 + (i / 4) * 0.04;
      (void)tm.Insert(txn.get(), dispensers,
                      {Value::Int(i), Value::Str(sites[i % 4]), Value::Int(i),
                       Value::GeoPoint(lon, lat)});
    }
    (void)tm.Commit(txn.get());
  }

  // ---- Sensor data: fill levels arrive as a DFS file (IoT ingest) ----
  {
    std::string tsv = "dispenser:INT64\tts:TIMESTAMP\tfill:DOUBLE\n";
    for (int d = 0; d < 12; ++d) {
      double fill = 100;
      for (int t = 0; t < 48; ++t) {
        fill -= (d % 5 == 0 ? 2.0 : 0.7);  // some dispensers drain fast
        if (fill < 0) fill = 0;
        tsv += std::to_string(d) + "\t" + std::to_string(t * 3600000000LL) + "\t" +
               std::to_string(fill) + "\n";
      }
    }
    (void)dfs.Write("/iot/fill_levels.tsv", tsv);
  }
  DfsTableConnector connector(&dfs);
  ColumnTable* readings = *connector.Import("/iot/fill_levels.tsv", "readings", &db, &tm);
  std::printf("imported %llu sensor readings from DFS\n",
              static_cast<unsigned long long>(
                  readings->Read().CountVisible(tm.AutoCommitView())));

  // ---- Event notices: unstructured text, mined for sites ----
  ColumnTable* notices = *db.CreateTable(
      "notices", Schema({ColumnDef("id", DataType::kInt64),
                         ColumnDef("body", DataType::kString)}));
  {
    auto txn = tm.Begin();
    (void)tm.Insert(txn.get(), notices,
                    {Value::Int(1), Value::Str("Big concert at the stadium this weekend, "
                                               "huge crowds expected")});
    (void)tm.Insert(txn.get(), notices,
                    {Value::Int(2), Value::Str("quarterly earnings call scheduled")});
    (void)tm.Commit(txn.get());
  }
  TextEngine text = *TextEngine::Create(notices, "body");
  text.Refresh();
  bool stadium_event = !text.Search("stadium crowds").empty();
  std::printf("event mining: stadium event expected = %s\n",
              stadium_event ? "yes" : "no");

  // ---- Decide which dispensers need a refill ----
  ReadView now = tm.AutoCommitView();
  ColumnTable::ReadGuard dispenser_rows(dispensers);
  std::set<int64_t> to_refill;
  for (int d = 0; d < 12; ++d) {
    TimeSeries series = *SeriesFromTable(*readings, now, "ts", "fill", "dispenser", d);
    double last_fill = series.values.back();
    // Proactive refill threshold rises for event sites (the paper's
    // "fill them earlier, if they have notice of a major event").
    Value site = dispenser_rows.GetValue(static_cast<uint64_t>(d), 1);
    double threshold = (stadium_event && site.AsString() == "stadium") ? 80.0 : 25.0;
    if (last_fill < threshold) to_refill.insert(d);
  }
  std::printf("dispensers needing refill: %zu of 12\n", to_refill.size());

  // ---- Service road network: graph view over a relational edge table ----
  ColumnTable* roads = *db.CreateTable(
      "roads", Schema({ColumnDef("src", DataType::kInt64),
                       ColumnDef("dst", DataType::kInt64),
                       ColumnDef("km", DataType::kDouble)}));
  {
    auto txn = tm.Begin();
    // Chain 0-1-2-...-11 plus a few shortcuts; node 100 is the depot.
    for (int i = 0; i < 11; ++i) {
      (void)tm.Insert(txn.get(), roads,
                      {Value::Int(i), Value::Int(i + 1), Value::Dbl(2.0)});
    }
    (void)tm.Insert(txn.get(), roads, {Value::Int(100), Value::Int(0), Value::Dbl(1.0)});
    (void)tm.Insert(txn.get(), roads, {Value::Int(100), Value::Int(6), Value::Dbl(3.0)});
    (void)tm.Commit(txn.get());
  }
  GraphView road_graph =
      *GraphView::Build(*roads, tm.AutoCommitView(), "src", "dst", "km",
                        /*directed=*/false);

  // ---- Route: nearest-neighbour tour over refill targets ----
  std::printf("\nrefill tour from depot (node 100):\n");
  int64_t position = 100;
  double total_km = 0;
  std::set<int64_t> remaining = to_refill;
  while (!remaining.empty()) {
    double best_cost = 1e18;
    int64_t best = -1;
    std::vector<int64_t> best_path;
    for (int64_t target : remaining) {
      double cost;
      auto path = road_graph.ShortestPath(position, target, &cost);
      if (!path.empty() && cost < best_cost) {
        best_cost = cost;
        best = target;
        best_path = path;
      }
    }
    if (best < 0) break;
    Value site = dispenser_rows.GetValue(static_cast<uint64_t>(best), 1);
    std::printf("  -> dispenser %lld at %s (%.1f km, %zu hops)\n",
                static_cast<long long>(best), site.AsString().c_str(), best_cost,
                best_path.size() - 1);
    total_km += best_cost;
    position = best;
    remaining.erase(best);
  }
  std::printf("tour length: %.1f km\n", total_km);

  // ---- Geo check: which dispensers sit within 5 km of the stadium? ----
  GeoIndex geo = *GeoIndex::Build(*dispensers, tm.AutoCommitView(), "location", 0.05);
  GeoPointValue stadium_gate{8.50, 49.04};
  auto nearby = geo.WithinDistance(stadium_gate, 5000);
  std::printf("dispensers within 5 km of the stadium gate: %zu\n", nearby.size());

  std::printf("\nscenario complete: sensor (DFS) + text + geo + graph + ERP combined.\n");
  return 0;
}
