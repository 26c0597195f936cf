#include "engines/geo/geo_index.h"

#include <algorithm>
#include <cmath>

namespace poly {

StatusOr<GeoIndex> GeoIndex::Build(const ColumnTable& table, const ReadView& view,
                                   const std::string& geo_column, double cell_degrees) {
  POLY_ASSIGN_OR_RETURN(size_t col, table.schema().IndexOf(geo_column));
  if (table.schema().column(col).type != DataType::kGeoPoint) {
    return Status::InvalidArgument("column " + geo_column + " is not GEO_POINT");
  }
  if (cell_degrees <= 0) return Status::InvalidArgument("cell size must be positive");
  GeoIndex idx;
  idx.cell_degrees_ = cell_degrees;
  ColumnTable::ReadGuard g(&table);
  g.ScanVisible(view, [&](uint64_t r) {
    Value v = g.GetValue(r, col);
    if (v.is_null()) return;
    const GeoPointValue& p = v.AsGeoPoint();
    uint32_t slot = static_cast<uint32_t>(idx.points_.size());
    idx.points_.push_back({r, p});
    idx.cells_[idx.CellKey(p.lon, p.lat)].push_back(slot);
  });
  return idx;
}

int64_t GeoIndex::CellKey(double lon, double lat) const {
  int64_t x = static_cast<int64_t>(std::floor((lon + 180.0) / cell_degrees_));
  int64_t y = static_cast<int64_t>(std::floor((lat + 90.0) / cell_degrees_));
  return x * 1000000 + y;
}

void GeoIndex::CellRange(const GeoBBox& box, std::vector<int64_t>* keys) const {
  int64_t x0 = static_cast<int64_t>(std::floor((box.min_lon + 180.0) / cell_degrees_));
  int64_t x1 = static_cast<int64_t>(std::floor((box.max_lon + 180.0) / cell_degrees_));
  int64_t y0 = static_cast<int64_t>(std::floor((box.min_lat + 90.0) / cell_degrees_));
  int64_t y1 = static_cast<int64_t>(std::floor((box.max_lat + 90.0) / cell_degrees_));
  for (int64_t x = x0; x <= x1; ++x) {
    for (int64_t y = y0; y <= y1; ++y) keys->push_back(x * 1000000 + y);
  }
}

std::vector<uint64_t> GeoIndex::WithinDistance(const GeoPointValue& center,
                                               double radius_meters) const {
  std::vector<int64_t> keys;
  CellRange(BBoxAround(center, radius_meters), &keys);
  std::vector<uint64_t> out;
  last_candidates_ = 0;
  for (int64_t key : keys) {
    auto it = cells_.find(key);
    if (it == cells_.end()) continue;
    for (uint32_t slot : it->second) {
      ++last_candidates_;
      if (HaversineMeters(points_[slot].point, center) <= radius_meters) {
        out.push_back(points_[slot].row);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<uint64_t> GeoIndex::ContainedIn(const GeoPolygon& polygon) const {
  std::vector<int64_t> keys;
  CellRange(polygon.BoundingBox(), &keys);
  std::vector<uint64_t> out;
  for (int64_t key : keys) {
    auto it = cells_.find(key);
    if (it == cells_.end()) continue;
    for (uint32_t slot : it->second) {
      if (polygon.Contains(points_[slot].point)) out.push_back(points_[slot].row);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<uint64_t> GeoIndex::WithinBBox(const GeoBBox& box) const {
  std::vector<int64_t> keys;
  CellRange(box, &keys);
  std::vector<uint64_t> out;
  for (int64_t key : keys) {
    auto it = cells_.find(key);
    if (it == cells_.end()) continue;
    for (uint32_t slot : it->second) {
      if (box.Contains(points_[slot].point)) out.push_back(points_[slot].row);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<uint64_t> GeoIndex::KNearest(const GeoPointValue& center, size_t k) const {
  if (points_.empty() || k == 0) return {};
  // Grow the search radius until >= k candidates, then rank exactly.
  double radius = cell_degrees_ * kEarthRadiusMeters * M_PI / 180.0;
  std::vector<uint64_t> hits;
  for (int iter = 0; iter < 24 && hits.size() < k; ++iter) {
    hits = WithinDistance(center, radius);
    radius *= 2;
  }
  if (hits.size() < k) {
    hits.clear();
    for (const auto& ip : points_) hits.push_back(ip.row);
  }
  std::vector<std::pair<double, uint64_t>> ranked;
  ranked.reserve(hits.size());
  for (const auto& ip : points_) {
    if (std::binary_search(hits.begin(), hits.end(), ip.row)) {
      ranked.emplace_back(HaversineMeters(ip.point, center), ip.row);
    }
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<uint64_t> out;
  for (size_t i = 0; i < ranked.size() && i < k; ++i) out.push_back(ranked[i].second);
  return out;
}

StatusOr<uint64_t> GeoIndex::Nearest(const GeoPointValue& center) const {
  if (points_.empty()) return Status::NotFound("empty geo index");
  // Expanding ring search: double the radius until a hit, then refine.
  double radius = cell_degrees_ * kEarthRadiusMeters * M_PI / 180.0;
  for (int iter = 0; iter < 20; ++iter) {
    std::vector<uint64_t> hits = WithinDistance(center, radius);
    if (!hits.empty()) {
      uint64_t best_row = hits[0];
      double best = 1e18;
      for (const auto& ip : points_) {
        double d = HaversineMeters(ip.point, center);
        if (d < best && std::find(hits.begin(), hits.end(), ip.row) != hits.end()) {
          best = d;
          best_row = ip.row;
        }
      }
      return best_row;
    }
    radius *= 2;
  }
  // Degenerate fallback: brute force.
  uint64_t best_row = points_[0].row;
  double best = 1e18;
  for (const auto& ip : points_) {
    double d = HaversineMeters(ip.point, center);
    if (d < best) {
      best = d;
      best_row = ip.row;
    }
  }
  return best_row;
}

}  // namespace poly
