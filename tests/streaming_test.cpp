#include <gtest/gtest.h>

#include "common/random.h"
#include "engines/timeseries/ts_ops.h"
#include "streaming/streaming.h"

namespace poly {
namespace {

StreamEvent Ev(int64_t ts, int64_t key, double value) {
  return StreamEvent{ts, {Value::Int(key), Value::Dbl(value)}};
}

TEST(TumblingWindowTest, ClosesWindowsOnWatermark) {
  TumblingWindow w(/*window_micros=*/100, /*value_index=*/1);
  EXPECT_TRUE(w.OnEvent(Ev(10, 0, 1.0)).empty());
  EXPECT_TRUE(w.OnEvent(Ev(50, 0, 3.0)).empty());
  // Crossing into the next window closes [0, 100).
  auto closed = w.OnEvent(Ev(110, 0, 9.0));
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].window_start, 0);
  EXPECT_EQ(closed[0].count, 2u);
  EXPECT_EQ(closed[0].sum, 4.0);
  EXPECT_EQ(closed[0].min, 1.0);
  EXPECT_EQ(closed[0].max, 3.0);
  // Flush closes the remaining [100, 200).
  auto rest = w.Flush();
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].window_start, 100);
  EXPECT_EQ(rest[0].count, 1u);
}

TEST(TumblingWindowTest, GroupedByKey) {
  TumblingWindow w(100, 1, /*key_index=*/0);
  (void)w.OnEvent(Ev(10, 7, 1.0));
  (void)w.OnEvent(Ev(20, 8, 2.0));
  (void)w.OnEvent(Ev(30, 7, 3.0));
  auto closed = w.OnEvent(Ev(150, 7, 0.0));
  ASSERT_EQ(closed.size(), 2u);  // one result per key
  double sum7 = 0, sum8 = 0;
  for (const auto& r : closed) {
    if (r.key == Value::Int(7)) sum7 = r.sum;
    if (r.key == Value::Int(8)) sum8 = r.sum;
  }
  EXPECT_EQ(sum7, 4.0);
  EXPECT_EQ(sum8, 2.0);
}

TEST(TumblingWindowTest, AllowedLatenessAcceptsStragglers) {
  TumblingWindow strict(100, 1, -1, /*allowed_lateness=*/0);
  (void)strict.OnEvent(Ev(150, 0, 1.0));
  (void)strict.OnEvent(Ev(90, 0, 1.0));  // window [0,100) already past watermark
  EXPECT_EQ(strict.late_events(), 1u);

  TumblingWindow lenient(100, 1, -1, /*allowed_lateness=*/100);
  (void)lenient.OnEvent(Ev(150, 0, 1.0));
  (void)lenient.OnEvent(Ev(90, 0, 5.0));  // within lateness: accepted
  EXPECT_EQ(lenient.late_events(), 0u);
  auto closed = lenient.Flush();
  ASSERT_EQ(closed.size(), 2u);
  EXPECT_EQ(closed[0].window_start, 0);
  EXPECT_EQ(closed[0].sum, 5.0);
}

TEST(StreamPipelineTest, FilterMapWindowSink) {
  StreamPipeline pipeline;
  std::vector<WindowResult> windows;
  std::vector<StreamEvent> passed;
  pipeline
      .Filter([](const StreamEvent& e) { return e.values[1].NumericValue() >= 0; })
      .Map([](const StreamEvent& e) {
        StreamEvent out = e;
        out.values[1] = Value::Dbl(e.values[1].NumericValue() * 10);
        return out;
      })
      .Window(std::make_unique<TumblingWindow>(100, 1),
              [&](const WindowResult& r) { windows.push_back(r); })
      .Sink([&](const StreamEvent& e) { passed.push_back(e); });

  pipeline.PushBatch({Ev(10, 0, 1.0), Ev(20, 0, -5.0), Ev(30, 0, 2.0), Ev(120, 0, 4.0)});
  pipeline.Finish();

  EXPECT_EQ(pipeline.events_in(), 4u);
  EXPECT_EQ(pipeline.events_out(), 3u);  // one filtered out
  ASSERT_EQ(passed.size(), 3u);
  EXPECT_EQ(passed[0].values[1], Value::Dbl(10.0));
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].sum, 30.0);  // (1+2)*10 in [0,100)
  EXPECT_EQ(windows[1].sum, 40.0);
}

TEST(StreamPipelineTest, TableSinkLandsEventsInColumnStore) {
  Database db;
  TransactionManager tm;
  ColumnTable* readings = *db.CreateTable(
      "readings", Schema({ColumnDef("ts", DataType::kTimestamp),
                          ColumnDef("sensor", DataType::kInt64),
                          ColumnDef("value", DataType::kDouble)}));
  TableStreamSink sink(&tm, readings);
  StreamPipeline pipeline;
  pipeline
      .Filter([](const StreamEvent& e) { return e.values[0].AsInt() < 5; })
      .Sink(sink.AsSink());

  for (int i = 0; i < 20; ++i) {
    pipeline.Push(Ev(i * 1000, i % 10, 1.5 * i));
  }
  EXPECT_TRUE(sink.status().ok());
  EXPECT_EQ(sink.rows_written(), 10u);
  EXPECT_EQ(readings->Read().CountVisible(tm.AutoCommitView()), 10u);

  // The landed stream is a first-class time series.
  auto series = SeriesFromTable(*readings, tm.AutoCommitView(), "ts", "value", "sensor", 1);
  ASSERT_TRUE(series.ok());
  EXPECT_EQ(series->size(), 2u);  // events 1 and 11
}

TEST(StreamPipelineTest, SinkSchemaMismatchSurfaces) {
  Database db;
  TransactionManager tm;
  ColumnTable* narrow = *db.CreateTable(
      "narrow", Schema({ColumnDef("ts", DataType::kTimestamp)}));
  TableStreamSink sink(&tm, narrow);
  StreamPipeline pipeline;
  pipeline.Sink(sink.AsSink());
  pipeline.Push(Ev(1, 2, 3.0));  // event has 2 extra values -> width mismatch
  EXPECT_FALSE(sink.status().ok());
  EXPECT_EQ(sink.rows_written(), 0u);
}

TEST(AnomalyTest, DetectsSpikes) {
  TimeSeries ts;
  Random rng(5);
  for (int i = 0; i < 500; ++i) {
    double v = 10.0 + rng.NextGaussian() * 0.1;
    if (i == 250 || i == 400) v += 5.0;  // injected spikes
    ts.Append(i, v);
  }
  auto anomalies = DetectAnomalies(ts, 50, 6.0);
  ASSERT_EQ(anomalies.size(), 2u);
  EXPECT_EQ(anomalies[0], 250u);
  EXPECT_EQ(anomalies[1], 400u);
  // Flat series with a tiny blip.
  TimeSeries flat;
  for (int i = 0; i < 100; ++i) flat.Append(i, 1.0);
  flat.values[80] = 1.5;
  auto blips = DetectAnomalies(flat, 20, 3.0);
  ASSERT_EQ(blips.size(), 1u);
  EXPECT_EQ(blips[0], 80u);
  EXPECT_TRUE(DetectAnomalies(flat, 1, 3.0).empty());  // degenerate window
}

}  // namespace
}  // namespace poly
