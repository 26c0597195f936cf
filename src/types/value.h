#ifndef POLY_TYPES_VALUE_H_
#define POLY_TYPES_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "common/status.h"

namespace poly {

/// Logical column types. The paper's point (§II) is that geospatial points,
/// time-series, and documents are *native* types deep in the engine rather
/// than blobs; they appear here alongside the relational scalars.
enum class DataType : uint8_t {
  kInt64 = 0,
  kDouble,
  kString,
  kBool,
  kTimestamp,  ///< microseconds since epoch, stored as int64
  kGeoPoint,   ///< (lon, lat) pair, engine type from §II-F
  kDocument,   ///< JSON document column type from §II-H
  kNull,
};

const char* DataTypeName(DataType t);

/// Geospatial point payload for DataType::kGeoPoint.
struct GeoPointValue {
  double lon = 0.0;
  double lat = 0.0;
  bool operator==(const GeoPointValue& o) const { return lon == o.lon && lat == o.lat; }
  bool operator<(const GeoPointValue& o) const {
    return lon != o.lon ? lon < o.lon : lat < o.lat;
  }
};

/// A dynamically typed scalar cell. Rows cross module boundaries as
/// vectors of Values; inside the column store everything is dictionary
/// value IDs, and Values only materialize at the query surface.
class Value {
 public:
  Value() : rep_(std::monostate{}) {}
  static Value Null() { return Value(); }
  static Value Int(int64_t v) { return Value(Rep(v)); }
  static Value Dbl(double v) { return Value(Rep(v)); }
  static Value Str(std::string v) { return Value(Rep(std::move(v))); }
  static Value Boolean(bool v) { return Value(Rep(v)); }
  static Value Timestamp(int64_t micros);
  static Value GeoPoint(double lon, double lat);
  /// Document payload is its JSON text; the docstore parses on demand.
  static Value Document(std::string json);

  bool is_null() const { return std::holds_alternative<std::monostate>(rep_); }
  DataType type() const;

  int64_t AsInt() const { return std::get<int64_t>(rep_); }
  double AsDouble() const { return std::get<double>(rep_); }
  const std::string& AsString() const { return std::get<std::string>(rep_); }
  bool AsBool() const { return std::get<bool>(rep_); }
  int64_t AsTimestamp() const { return std::get<int64_t>(rep_); }
  /// Returned by value (16 bytes): a reference here would dangle whenever
  /// the Value itself is a temporary, e.g. `table.GetValue(r, c).AsGeoPoint()`.
  GeoPointValue AsGeoPoint() const { return std::get<GeoPointValue>(rep_); }

  /// Numeric view: int64/double/bool/timestamp as double; 0 for others.
  double NumericValue() const;

  bool operator==(const Value& o) const;
  bool operator!=(const Value& o) const { return !(*this == o); }
  /// Order used for sorting and range predicates. Nulls sort first; values
  /// of different types order by type tag, except that int64 and double
  /// compare numerically, so Int 3 and Double 3.0 tie without being equal.
  bool operator<(const Value& o) const;
  /// Dictionary order: operator<, with ties broken by representation (Int 3
  /// before Double 3.0) and then exactly (two int64s past 2^53 that compare
  /// as one double). Neither sorting before the other means operator==, so
  /// a dictionary keeps one entry per distinct value; tied values stay
  /// contiguous, so operator< range searches still work on it.
  bool SortsBefore(const Value& o) const;

  std::string ToString() const;
  /// Values that SQL `=` treats as equal hash alike: Int 5 and Double 5.0
  /// do (a BIGINT within ±2^53 keeps std::hash<int64_t>), so hash partition
  /// pruning, repartitioning and join builds agree with `=`.
  uint64_t Hash() const;

 private:
  using Rep = std::variant<std::monostate, int64_t, double, std::string, bool,
                           GeoPointValue>;
  explicit Value(Rep rep) : rep_(std::move(rep)) {}

  Rep rep_;
  // Distinguishes int64 vs timestamp and string vs document, which share a
  // physical representation.
  DataType tag_override_ = DataType::kNull;
};

}  // namespace poly

#endif  // POLY_TYPES_VALUE_H_
