// Scenario V-4 from the paper: an insurance company prices policies from
// hurricane history.
//
//  * historical hurricane tracks live on the (simulated) Hadoop store,
//  * customers and premiums live in the ERP (relational engine),
//  * customer locations live in the geospatial engine,
//  * the predictive engine fits a hurricane-frequency trend,
// and the computed risk profile flows back into the ERP table — "computed
// models have to go back to the ERP for consumption".

#include <cstdio>
#include <map>

#include "common/random.h"
#include "engines/geo/geo_index.h"
#include "engines/predictive/forecast.h"
#include "hadoop/table_connector.h"
#include "txn/transaction_manager.h"

using namespace poly;

int main() {
  Database db;
  TransactionManager tm;
  SimulatedDfs dfs;
  Random rng(2026);

  // ---- Hurricane history: 30 seasons of tracks, stored on the DFS ----
  // Each track is a sequence of (lon, lat) points moving roughly north-west
  // across a coastal band.
  {
    std::string tsv = "year:INT64\tstorm:INT64\tpoint:GEO_POINT\n";
    for (int year = 1995; year < 2025; ++year) {
      // Mild upward trend in storms per season.
      int storms = 4 + (year - 1995) / 8 + static_cast<int>(rng.Uniform(3));
      for (int s = 0; s < storms; ++s) {
        double lon = -80.0 - rng.NextDouble() * 3.0;
        double lat = 24.0 + rng.NextDouble() * 2.0;
        for (int step = 0; step < 10; ++step) {
          tsv += std::to_string(year) + "\t" + std::to_string(s) + "\t" +
                 std::to_string(lon) + ";" + std::to_string(lat) + "\n";
          lon -= 0.15 + rng.NextDouble() * 0.1;
          lat += 0.25 + rng.NextDouble() * 0.15;
        }
      }
    }
    (void)dfs.Write("/weather/hurricanes.tsv", tsv);
  }
  DfsTableConnector connector(&dfs);
  ColumnTable* tracks = *connector.Import("/weather/hurricanes.tsv", "tracks", &db, &tm);
  ReadView now = tm.AutoCommitView();
  std::printf("loaded %llu hurricane track points from DFS\n",
              static_cast<unsigned long long>(tracks->Read().CountVisible(now)));

  // ---- ERP: customers with premiums and locations ----
  ColumnTable* customers = *db.CreateTable(
      "customers", Schema({ColumnDef("id", DataType::kInt64),
                           ColumnDef("premium", DataType::kDouble),
                           ColumnDef("home", DataType::kGeoPoint),
                           ColumnDef("risk_score", DataType::kDouble)}));
  {
    auto txn = tm.Begin();
    for (int i = 0; i < 200; ++i) {
      double lon = -84.0 + rng.NextDouble() * 5.0;
      double lat = 25.0 + rng.NextDouble() * 5.0;
      (void)tm.Insert(txn.get(), customers,
                      {Value::Int(i), Value::Dbl(800.0), Value::GeoPoint(lon, lat),
                       Value::Null()});
    }
    (void)tm.Commit(txn.get());
  }

  // ---- Predictive engine: storms-per-season trend + forecast ----
  std::map<int64_t, std::map<int64_t, bool>> season_storms;
  size_t year_col = 0, storm_col = 1;
  {
    ColumnTable::ReadGuard track_rows(tracks);
    track_rows.ScanVisible(now, [&](uint64_t r) {
      season_storms[track_rows.GetValue(r, year_col).AsInt()]
                   [track_rows.GetValue(r, storm_col).AsInt()] = true;
    });
  }
  std::vector<double> per_season;
  for (const auto& [year, storms] : season_storms) {
    per_season.push_back(static_cast<double>(storms.size()));
  }
  LinearFit fit = *FitLinearTrend(per_season);
  auto forecast = *HoltLinear(per_season, 0.4, 0.2, 3);
  std::printf("storm seasons analysed: %zu, trend %+0.2f storms/season (r2=%.2f)\n",
              per_season.size(), fit.slope, fit.r2);
  std::printf("forecast next 3 seasons: %.1f, %.1f, %.1f storms\n", forecast[0],
              forecast[1], forecast[2]);

  // ---- Geo: exposure = historical track points near each customer ----
  GeoIndex track_index = *GeoIndex::Build(*tracks, now, "point", 0.25);
  auto txn = tm.Begin();
  uint64_t high_risk = 0;
  double scale = forecast[0] / (per_season.empty() ? 1.0 : per_season.back());
  std::vector<std::pair<uint64_t, Row>> updates;
  ColumnTable::ReadGuard customer_rows(customers);
  customer_rows.ScanVisible(now, [&](uint64_t r) {
    GeoPointValue home = customer_rows.GetValue(r, 2).AsGeoPoint();
    size_t hits = track_index.WithinDistance(home, 100000).size();  // 100 km
    double risk = static_cast<double>(hits) / 30.0 * scale;  // per forecast season
    Row row = customer_rows.GetRow(r);
    row[3] = Value::Dbl(risk);
    row[1] = Value::Dbl(800.0 * (1.0 + risk * 0.10));  // re-price premium
    updates.emplace_back(r, std::move(row));
    if (risk > 1.0) ++high_risk;
  });
  for (auto& [r, row] : updates) {
    (void)tm.Update(txn.get(), customers, r, row);
  }
  (void)tm.Commit(txn.get());
  std::printf("risk profile written back to ERP: %llu of 200 customers high-risk\n",
              static_cast<unsigned long long>(high_risk));

  // ---- Report: premium uplift stats ----
  ReadView after = tm.AutoCommitView();
  double total_premium = 0;
  ColumnTable::ReadGuard repriced(customers);
  repriced.ScanVisible(after, [&](uint64_t r) {
    total_premium += repriced.GetValue(r, 1).AsDouble();
  });
  std::printf("total annual premium after re-pricing: %.0f (was %.0f)\n", total_premium,
              200 * 800.0);
  std::printf("\nscenario complete: DFS history + geo exposure + forecast -> ERP.\n");
  return 0;
}
