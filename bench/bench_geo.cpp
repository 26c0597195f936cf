// E6 (§II-F): the SQL surface operators WithinDistance / Contains served by
// an engine-native geo index vs the scan-everything baseline.
//
// Rows reproduced:
//   Geo_WithinDistance_FullScan/<points>   - haversine over every row
//   Geo_WithinDistance_GridIndex/<points>  - grid cells prefilter
//     (counter: candidate_fraction — share of points even considered)
//   Geo_PolygonContains_GridIndex/<points> - Contains() with bbox prefilter
//   Geo_IndexBuild/<points>                - index construction cost

#include <benchmark/benchmark.h>

#include "engines/geo/geo_index.h"
#include "workloads.h"

namespace poly {
namespace {

struct GeoSetup {
  Database db;
  TransactionManager tm;
  ColumnTable* sites;

  explicit GeoSetup(int n) {
    sites = *db.CreateTable("sites", Schema({ColumnDef("id", DataType::kInt64),
                                             ColumnDef("pos", DataType::kGeoPoint)}));
    Random rng(41);
    auto txn = tm.Begin();
    for (int i = 0; i < n; ++i) {
      // Continental spread: lon [-10, 30], lat [35, 65].
      double lon = -10 + rng.NextDouble() * 40;
      double lat = 35 + rng.NextDouble() * 30;
      (void)tm.Insert(txn.get(), sites, {Value::Int(i), Value::GeoPoint(lon, lat)});
    }
    (void)tm.Commit(txn.get());
    sites->Merge();
  }
};

void Geo_WithinDistance_FullScan(benchmark::State& state) {
  GeoSetup setup(static_cast<int>(state.range(0)));
  Random rng(2);
  size_t hits = 0;
  for (auto _ : state) {
    GeoPointValue center{-10 + rng.NextDouble() * 40, 35 + rng.NextDouble() * 30};
    size_t count = 0;
    ReadView now = setup.tm.AutoCommitView();
    ColumnTable::ReadGuard g(setup.sites);
    g.ScanVisible(now, [&](uint64_t r) {
      if (HaversineMeters(g.GetValue(r, 1).AsGeoPoint(), center) <= 50000) {
        ++count;
      }
    });
    hits = count;
    benchmark::DoNotOptimize(hits);
  }
  state.counters["candidate_fraction"] = 1.0;
}
BENCHMARK(Geo_WithinDistance_FullScan)->Arg(20000)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

void Geo_WithinDistance_GridIndex(benchmark::State& state) {
  GeoSetup setup(static_cast<int>(state.range(0)));
  GeoIndex idx = *GeoIndex::Build(*setup.sites, setup.tm.AutoCommitView(), "pos", 0.5);
  Random rng(2);
  size_t hits = 0;
  uint64_t candidates = 0;
  uint64_t queries = 0;
  for (auto _ : state) {
    GeoPointValue center{-10 + rng.NextDouble() * 40, 35 + rng.NextDouble() * 30};
    hits = idx.WithinDistance(center, 50000).size();
    candidates += idx.last_candidates();
    ++queries;
    benchmark::DoNotOptimize(hits);
  }
  state.counters["candidate_fraction"] =
      static_cast<double>(candidates) / queries / static_cast<double>(idx.num_points());
}
BENCHMARK(Geo_WithinDistance_GridIndex)->Arg(20000)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

void Geo_PolygonContains_GridIndex(benchmark::State& state) {
  GeoSetup setup(static_cast<int>(state.range(0)));
  GeoIndex idx = *GeoIndex::Build(*setup.sites, setup.tm.AutoCommitView(), "pos", 0.5);
  // A lightning-bolt shaped sales territory.
  GeoPolygon territory({{5, 45}, {12, 45}, {10, 50}, {15, 50}, {8, 58}, {9, 51}, {4, 51}});
  size_t hits = 0;
  for (auto _ : state) {
    hits = idx.ContainedIn(territory).size();
    benchmark::DoNotOptimize(hits);
  }
  state.counters["hits"] = static_cast<double>(hits);
}
BENCHMARK(Geo_PolygonContains_GridIndex)->Arg(100000)->Unit(benchmark::kMicrosecond);

void Geo_IndexBuild(benchmark::State& state) {
  GeoSetup setup(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto idx = GeoIndex::Build(*setup.sites, setup.tm.AutoCommitView(), "pos", 0.5);
    benchmark::DoNotOptimize(idx->num_points());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(Geo_IndexBuild)->Arg(100000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace poly
