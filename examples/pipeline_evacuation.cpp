// Scenario V-5 from the paper: a gas-pipeline operator computes an
// evacuation plan in real time when a leak is detected.
//
//  * the pipeline is "a huge graph" stored relationally and interpreted
//    through a graph view,
//  * "in addition to the logical perspective [...] the location information
//    for the graph is stored" — every node carries a geo position,
//  * a leak event triggers: find the affected pipeline section (graph
//    reachability along flow direction), find everyone nearby (geo), and
//    compute evacuation routes to shelters (weighted shortest paths).

#include <cstdio>

#include "engines/geo/geo_index.h"
#include "engines/graph/graph_view.h"
#include "engines/graph/hierarchy.h"
#include "txn/transaction_manager.h"

using namespace poly;

int main() {
  Database db;
  TransactionManager tm;

  // ---- Pipeline topology: 40-node grid-ish network with flow direction --
  ColumnTable* pipes = *db.CreateTable(
      "pipes", Schema({ColumnDef("src", DataType::kInt64),
                       ColumnDef("dst", DataType::kInt64),
                       ColumnDef("length_km", DataType::kDouble)}));
  ColumnTable* stations = *db.CreateTable(
      "stations", Schema({ColumnDef("id", DataType::kInt64),
                          ColumnDef("kind", DataType::kString),
                          ColumnDef("pos", DataType::kGeoPoint)}));
  {
    auto txn = tm.Begin();
    // Main trunk 0->1->...->19, two branches.
    for (int i = 0; i < 19; ++i) {
      (void)tm.Insert(txn.get(), pipes,
                      {Value::Int(i), Value::Int(i + 1), Value::Dbl(5.0)});
    }
    for (int i = 0; i < 10; ++i) {
      (void)tm.Insert(txn.get(), pipes,
                      {Value::Int(5), Value::Int(20 + i), Value::Dbl(3.0)});
    }
    for (int i = 0; i < 10; ++i) {
      (void)tm.Insert(txn.get(), pipes,
                      {Value::Int(12), Value::Int(30 + i), Value::Dbl(4.0)});
    }
    // Station positions roughly along a line; branches fan out north.
    for (int i = 0; i < 40; ++i) {
      double lon = 10.0 + (i < 20 ? i * 0.05 : (i < 30 ? 5 * 0.05 : 12 * 0.05));
      double lat = 50.0 + (i < 20 ? 0.0 : 0.03 * (i % 10 + 1));
      const char* kind = i % 7 == 0 ? "compressor" : "valve";
      (void)tm.Insert(txn.get(), stations,
                      {Value::Int(i), Value::Str(kind), Value::GeoPoint(lon, lat)});
    }
    (void)tm.Commit(txn.get());
  }
  ReadView now = tm.AutoCommitView();
  GraphView flow = *GraphView::Build(*pipes, now, "src", "dst", "length_km",
                                     /*directed=*/true);
  std::printf("pipeline graph: %zu stations, %zu segments\n", flow.num_nodes(),
              flow.num_edges());

  // ---- Leak detected at station 5: what is downstream? ----
  int64_t leak_at = 5;
  auto downstream = flow.NodesWithinCost(leak_at, 1e18);
  std::printf("leak at station %lld: %zu stations downstream must be shut\n",
              static_cast<long long>(leak_at), downstream.size() - 1);

  // Sections within 10 km of gas flow from the leak are the hot zone.
  auto hot_zone = flow.NodesWithinCost(leak_at, 10.0);
  std::printf("hot zone (<= 10 km of pipe from the leak): %zu stations\n",
              hot_zone.size());

  // ---- Geo: population sites near the hot zone ----
  ColumnTable* sites = *db.CreateTable(
      "sites", Schema({ColumnDef("id", DataType::kInt64),
                       ColumnDef("people", DataType::kInt64),
                       ColumnDef("pos", DataType::kGeoPoint)}));
  {
    auto txn = tm.Begin();
    for (int i = 0; i < 30; ++i) {
      double lon = 10.0 + (i % 10) * 0.09;
      double lat = 49.98 + (i / 10) * 0.05;
      (void)tm.Insert(txn.get(), sites,
                      {Value::Int(i), Value::Int(50 + 10 * (i % 7)),
                       Value::GeoPoint(lon, lat)});
    }
    (void)tm.Commit(txn.get());
  }
  now = tm.AutoCommitView();
  GeoIndex site_index = *GeoIndex::Build(*sites, now, "pos", 0.05);

  int64_t people_affected = 0;
  std::vector<uint64_t> affected_sites;
  ColumnTable::ReadGuard station_rows(stations);
  ColumnTable::ReadGuard site_rows(sites);
  for (int64_t station : hot_zone) {
    GeoPointValue pos =
        station_rows.GetValue(static_cast<uint64_t>(station), 2).AsGeoPoint();
    for (uint64_t site_row : site_index.WithinDistance(pos, 4000)) {
      if (std::find(affected_sites.begin(), affected_sites.end(), site_row) ==
          affected_sites.end()) {
        affected_sites.push_back(site_row);
        people_affected += site_rows.GetValue(site_row, 1).AsInt();
      }
    }
  }
  std::printf("evacuation needed for %zu sites, %lld people\n", affected_sites.size(),
              static_cast<long long>(people_affected));

  // ---- Evacuation routes on the road network (undirected graph) ----
  ColumnTable* roads = *db.CreateTable(
      "roads", Schema({ColumnDef("src", DataType::kInt64),
                       ColumnDef("dst", DataType::kInt64),
                       ColumnDef("minutes", DataType::kDouble)}));
  {
    auto txn = tm.Begin();
    // Site i connects to neighbours i-1/i+1 and to one of two shelters
    // (900 west, 901 east) at varying cost.
    for (int i = 0; i < 29; ++i) {
      (void)tm.Insert(txn.get(), roads,
                      {Value::Int(i), Value::Int(i + 1), Value::Dbl(6.0)});
    }
    (void)tm.Insert(txn.get(), roads, {Value::Int(0), Value::Int(900), Value::Dbl(10.0)});
    (void)tm.Insert(txn.get(), roads, {Value::Int(29), Value::Int(901), Value::Dbl(10.0)});
    (void)tm.Commit(txn.get());
  }
  GraphView road = *GraphView::Build(*roads, tm.AutoCommitView(), "src", "dst",
                                     "minutes", /*directed=*/false);
  std::printf("\nevacuation routes:\n");
  for (uint64_t site_row : affected_sites) {
    int64_t site = site_rows.GetValue(site_row, 0).AsInt();
    double west_cost, east_cost;
    auto west = road.ShortestPath(site, 900, &west_cost);
    auto east = road.ShortestPath(site, 901, &east_cost);
    const char* shelter = west_cost <= east_cost ? "west" : "east";
    double minutes = std::min(west_cost, east_cost);
    std::printf("  site %lld -> %s shelter, %.0f min, %zu waypoints\n",
                static_cast<long long>(site), shelter, minutes,
                (west_cost <= east_cost ? west : east).size());
  }

  // ---- Bonus: the shutdown command cascade is a hierarchy query ----
  ColumnTable* org = *db.CreateTable(
      "command_chain", Schema({ColumnDef("id", DataType::kInt64),
                               ColumnDef("parent", DataType::kInt64)}));
  {
    auto txn = tm.Begin();
    (void)tm.Insert(txn.get(), org, {Value::Int(1), Value::Null()});       // control room
    (void)tm.Insert(txn.get(), org, {Value::Int(2), Value::Int(1)});       // region A
    (void)tm.Insert(txn.get(), org, {Value::Int(3), Value::Int(1)});       // region B
    for (int i = 4; i < 10; ++i) {
      (void)tm.Insert(txn.get(), org, {Value::Int(i), Value::Int(i % 2 == 0 ? 2 : 3)});
    }
    (void)tm.Commit(txn.get());
  }
  HierarchyView chain = *HierarchyView::Build(*org, tm.AutoCommitView(), "id", "parent");
  std::printf("\nshutdown cascade: control room notifies %lld teams transitively\n",
              static_cast<long long>(*chain.CountDescendants(1)));

  std::printf("\nscenario complete: graph + geo + hierarchy combined in one engine.\n");
  return 0;
}
