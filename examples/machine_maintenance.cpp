// Scenario V-2 from the paper: predictive maintenance. "A customer
// institution collects massive sensor data within a large Hadoop
// installation [...] the ERP system shows the state of the current
// production [...] correlate the sensor data with events in the production
// process in order to analyze and predict machine failures."
//
//  * raw vibration readings live on the simulated DFS and are first
//    aggregated THERE with MapReduce (compute moves to the data),
//  * refined per-hour aggregates flow into the in-memory column store
//    (the paper's "data refinement process into the In-Memory structures"),
//  * the time-series engine correlates vibration with ERP failure events,
//  * the predictive engine forecasts the next failure window.

#include <cstdio>

#include "common/random.h"
#include "common/string_util.h"
#include "engines/predictive/forecast.h"
#include "engines/timeseries/ts_codec.h"
#include "engines/timeseries/ts_ops.h"
#include "hadoop/mapreduce.h"
#include "hadoop/table_connector.h"
#include "txn/transaction_manager.h"

using namespace poly;

int main() {
  Database db;
  TransactionManager tm;
  SimulatedDfs dfs;
  ThreadPool pool(4);
  Random rng(7);

  // ---- Raw sensor stream on DFS: machine \t minute \t vibration ----
  const int kMachines = 4, kHours = 72;
  {
    std::string raw;
    for (int m = 0; m < kMachines; ++m) {
      double wear = 0;
      for (int minute = 0; minute < kHours * 60; ++minute) {
        wear += (m == 2 ? 0.0008 : 0.0001);  // machine 2 degrades fast
        double vibration = 1.0 + wear + rng.NextGaussian() * 0.05;
        raw += std::to_string(m) + "\t" + std::to_string(minute) + "\t" +
               std::to_string(vibration) + "\n";
      }
    }
    (void)dfs.Write("/sensors/vibration.raw", raw);
    std::printf("raw sensor file: %zu bytes on DFS\n", raw.size());
  }

  // ---- Refine on the Hadoop side: MapReduce computes per-hour means ----
  MapReduceJob job(&dfs, &pool);
  auto stats = job.Run(
      "/sensors/vibration.raw", "/sensors/vibration.hourly",
      [](const std::string& line) {
        auto f = SplitString(line, '\t');
        std::vector<KeyValue> out;
        if (f.size() == 3) {
          long minute = std::stol(f[1]);
          out.push_back(KeyValue{f[0] + ":" + std::to_string(minute / 60), f[2]});
        }
        return out;
      },
      [](const std::string& key, const std::vector<std::string>& values) {
        double sum = 0;
        for (const auto& v : values) sum += std::stod(v);
        return std::vector<std::string>{key + "\t" +
                                        std::to_string(sum / values.size())};
      },
      /*num_reducers=*/4);
  std::printf("MapReduce refinement: %zu map tasks, %llu pairs -> hourly means\n",
              stats->map_tasks, static_cast<unsigned long long>(stats->map_output_pairs));

  // ---- Load the refined aggregates into the in-memory store ----
  ColumnTable* hourly = *db.CreateTable(
      "vibration_hourly", Schema({ColumnDef("machine", DataType::kInt64),
                                  ColumnDef("hour", DataType::kInt64),
                                  ColumnDef("mean_vibration", DataType::kDouble)}));
  {
    std::string refined = *dfs.Read("/sensors/vibration.hourly");
    auto txn = tm.Begin();
    for (const auto& line : SplitString(refined, '\n')) {
      if (line.empty()) continue;
      auto kv = SplitString(line, '\t');
      auto mk = SplitString(kv[0], ':');
      (void)tm.Insert(txn.get(), hourly,
                      {Value::Int(std::stoll(mk[0])), Value::Int(std::stoll(mk[1])),
                       Value::Dbl(std::stod(kv[1]))});
    }
    (void)tm.Commit(txn.get());
    hourly->Merge();
  }
  ReadView now = tm.AutoCommitView();
  std::printf("in-memory hourly table: %llu rows\n",
              static_cast<unsigned long long>(hourly->Read().CountVisible(now)));

  // ---- ERP: production incidents (machine 2 had quality dips) ----
  ColumnTable* incidents = *db.CreateTable(
      "incidents", Schema({ColumnDef("machine", DataType::kInt64),
                           ColumnDef("hour", DataType::kInt64),
                           ColumnDef("defect_rate", DataType::kDouble)}));
  {
    auto txn = tm.Begin();
    for (int h = 0; h < kHours; ++h) {
      for (int m = 0; m < kMachines; ++m) {
        double base = m == 2 ? 0.01 + 0.0008 * 60 * h / 25.0 : 0.01;
        (void)tm.Insert(txn.get(), incidents,
                        {Value::Int(m), Value::Int(h),
                         Value::Dbl(base + rng.NextDouble() * 0.003)});
      }
    }
    (void)tm.Commit(txn.get());
  }
  now = tm.AutoCommitView();

  // ---- Correlate sensor vs ERP per machine (time-series engine) ----
  std::printf("\nvibration <-> defect-rate correlation per machine:\n");
  int worst_machine = -1;
  double worst_corr = -2;
  for (int m = 0; m < kMachines; ++m) {
    TimeSeries vib = *SeriesFromTable(*hourly, now, "hour", "mean_vibration",
                                      "machine", m);
    TimeSeries def = *SeriesFromTable(*incidents, now, "hour", "defect_rate",
                                      "machine", m);
    double corr = Correlation(vib, def, 1);
    std::printf("  machine %d: corr=%.2f\n", m, corr);
    if (corr > worst_corr) {
      worst_corr = corr;
      worst_machine = m;
    }
  }
  std::printf("machine %d shows the strongest wear signal (corr %.2f)\n", worst_machine,
              worst_corr);

  // ---- Forecast: when does the worst machine cross the failure limit? --
  TimeSeries vib = *SeriesFromTable(*hourly, now, "hour", "mean_vibration", "machine",
                                    worst_machine);
  auto forecast = *HoltLinear(vib.values, 0.3, 0.2, 48);
  const double kFailureLimit = 4.0;
  int hours_to_limit = -1;
  for (size_t h = 0; h < forecast.size(); ++h) {
    if (forecast[h] >= kFailureLimit) {
      hours_to_limit = static_cast<int>(h) + 1;
      break;
    }
  }
  if (hours_to_limit > 0) {
    std::printf("forecast: vibration limit %.1f reached in ~%d h -> schedule service\n",
                kFailureLimit, hours_to_limit);
  } else {
    std::printf("forecast: no failure within 48 h (last forecast %.2f)\n",
                forecast.back());
  }

  // ---- Archive: compress the hourly series for cheap retention ----
  CompressedSeries archive = CompressedSeries::FromSeries(vib);
  std::printf("archived machine %d series: %zu points, %.1fx compression\n",
              worst_machine, archive.num_points(), archive.CompressionRatio());

  std::printf("\nscenario complete: Hadoop refinement -> in-memory correlation -> "
              "forecast.\n");
  return 0;
}
