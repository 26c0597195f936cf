#include "engines/timeseries/ts_ops.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace poly {

TimeSeries Resample(const TimeSeries& ts, int64_t bucket_micros, ResampleAgg agg) {
  TimeSeries out;
  if (ts.empty() || bucket_micros <= 0) return out;
  size_t i = 0;
  while (i < ts.size()) {
    int64_t bucket = ts.timestamps[i] / bucket_micros * bucket_micros;
    double acc = 0, mn = ts.values[i], mx = ts.values[i], last = 0;
    size_t count = 0;
    while (i < ts.size() && ts.timestamps[i] / bucket_micros * bucket_micros == bucket) {
      double v = ts.values[i];
      acc += v;
      mn = std::min(mn, v);
      mx = std::max(mx, v);
      last = v;
      ++count;
      ++i;
    }
    double result = 0;
    switch (agg) {
      case ResampleAgg::kMean: result = acc / static_cast<double>(count); break;
      case ResampleAgg::kSum: result = acc; break;
      case ResampleAgg::kMin: result = mn; break;
      case ResampleAgg::kMax: result = mx; break;
      case ResampleAgg::kLast: result = last; break;
      case ResampleAgg::kCount: result = static_cast<double>(count); break;
    }
    out.Append(bucket, result);
  }
  return out;
}

double Correlation(const TimeSeries& a, const TimeSeries& b, int64_t bucket_micros) {
  TimeSeries ra = Resample(a, bucket_micros, ResampleAgg::kMean);
  TimeSeries rb = Resample(b, bucket_micros, ResampleAgg::kMean);
  // Merge-join on bucket timestamps.
  std::vector<std::pair<double, double>> pairs;
  size_t i = 0, j = 0;
  while (i < ra.size() && j < rb.size()) {
    if (ra.timestamps[i] < rb.timestamps[j]) {
      ++i;
    } else if (ra.timestamps[i] > rb.timestamps[j]) {
      ++j;
    } else {
      pairs.emplace_back(ra.values[i], rb.values[j]);
      ++i;
      ++j;
    }
  }
  if (pairs.size() < 2) return 0;
  double n = static_cast<double>(pairs.size());
  double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
  for (auto [x, y] : pairs) {
    sx += x;
    sy += y;
    sxx += x * x;
    syy += y * y;
    sxy += x * y;
  }
  double cov = sxy - sx * sy / n;
  double vx = sxx - sx * sx / n;
  double vy = syy - sy * sy / n;
  if (vx <= 0 || vy <= 0) return 0;
  return cov / std::sqrt(vx * vy);
}

TimeSeries MovingAverage(const TimeSeries& ts, size_t window) {
  TimeSeries out;
  if (window == 0 || ts.size() < window) return out;
  double acc = 0;
  for (size_t i = 0; i < ts.size(); ++i) {
    acc += ts.values[i];
    if (i >= window) acc -= ts.values[i - window];
    if (i + 1 >= window) {
      out.Append(ts.timestamps[i], acc / static_cast<double>(window));
    }
  }
  return out;
}

TimeSeries Difference(const TimeSeries& ts) {
  TimeSeries out;
  for (size_t i = 1; i < ts.size(); ++i) {
    out.Append(ts.timestamps[i], ts.values[i] - ts.values[i - 1]);
  }
  return out;
}

TimeSeries Normalize(const TimeSeries& ts) {
  TimeSeries out = ts;
  if (ts.empty()) return out;
  double mn = *std::min_element(ts.values.begin(), ts.values.end());
  double mx = *std::max_element(ts.values.begin(), ts.values.end());
  double range = mx - mn;
  for (double& v : out.values) v = range > 0 ? (v - mn) / range : 0.0;
  return out;
}

TimeSeries Slice(const TimeSeries& ts, int64_t from, int64_t to) {
  TimeSeries out;
  for (size_t i = 0; i < ts.size(); ++i) {
    if (ts.timestamps[i] >= from && ts.timestamps[i] < to) {
      out.Append(ts.timestamps[i], ts.values[i]);
    }
  }
  return out;
}

std::vector<size_t> DetectAnomalies(const TimeSeries& ts, size_t window,
                                    double z_threshold) {
  std::vector<size_t> out;
  if (window < 2 || ts.size() <= window) return out;
  double sum = 0, sum_sq = 0;
  for (size_t i = 0; i < window; ++i) {
    sum += ts.values[i];
    sum_sq += ts.values[i] * ts.values[i];
  }
  for (size_t i = window; i < ts.size(); ++i) {
    double n = static_cast<double>(window);
    double mean = sum / n;
    double var = std::max(0.0, sum_sq / n - mean * mean);
    double stddev = std::sqrt(var);
    double v = ts.values[i];
    if (stddev > 1e-12) {
      if (std::abs(v - mean) > z_threshold * stddev) out.push_back(i);
    } else if (std::abs(v - mean) > 1e-9) {
      out.push_back(i);  // any move off a perfectly flat window is anomalous
    }
    // Slide the window.
    double leaving = ts.values[i - window];
    sum += v - leaving;
    sum_sq += v * v - leaving * leaving;
  }
  return out;
}

SeriesStats ComputeStats(const TimeSeries& ts) {
  SeriesStats s;
  if (ts.empty()) return s;
  s.count = ts.size();
  s.min = s.max = ts.values[0];
  double sum = 0;
  for (double v : ts.values) {
    sum += v;
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  }
  s.mean = sum / static_cast<double>(s.count);
  double var = 0;
  for (double v : ts.values) var += (v - s.mean) * (v - s.mean);
  s.stddev = std::sqrt(var / static_cast<double>(s.count));
  return s;
}

StatusOr<TimeSeries> SeriesFromTable(const ColumnTable& table, const ReadView& view,
                                     const std::string& ts_column,
                                     const std::string& value_column,
                                     const std::string& key_column, int64_t key) {
  POLY_ASSIGN_OR_RETURN(size_t ts_col, table.schema().IndexOf(ts_column));
  POLY_ASSIGN_OR_RETURN(size_t val_col, table.schema().IndexOf(value_column));
  int key_col = -1;
  if (!key_column.empty()) {
    POLY_ASSIGN_OR_RETURN(size_t k, table.schema().IndexOf(key_column));
    key_col = static_cast<int>(k);
  }
  std::vector<std::pair<int64_t, double>> points;
  ColumnTable::ReadGuard g(&table);
  g.ScanVisible(view, [&](uint64_t r) {
    if (key_col >= 0) {
      Value kv = g.GetValue(r, static_cast<size_t>(key_col));
      if (kv.is_null() || kv.AsInt() != key) return;
    }
    Value tv = g.GetValue(r, ts_col);
    Value vv = g.GetValue(r, val_col);
    if (tv.is_null() || vv.is_null()) return;
    int64_t t = tv.type() == DataType::kTimestamp ? tv.AsTimestamp() : tv.AsInt();
    points.emplace_back(t, vv.NumericValue());
  });
  std::sort(points.begin(), points.end());
  TimeSeries out;
  for (auto [t, v] : points) out.Append(t, v);
  return out;
}

}  // namespace poly
