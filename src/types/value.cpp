#include "types/value.h"

#include <cmath>
#include <functional>
#include <sstream>

namespace poly {

const char* DataTypeName(DataType t) {
  switch (t) {
    case DataType::kInt64: return "INT64";
    case DataType::kDouble: return "DOUBLE";
    case DataType::kString: return "STRING";
    case DataType::kBool: return "BOOL";
    case DataType::kTimestamp: return "TIMESTAMP";
    case DataType::kGeoPoint: return "GEO_POINT";
    case DataType::kDocument: return "DOCUMENT";
    case DataType::kNull: return "NULL";
  }
  return "UNKNOWN";
}

Value Value::Timestamp(int64_t micros) {
  Value v{Rep(micros)};
  v.tag_override_ = DataType::kTimestamp;
  return v;
}

Value Value::GeoPoint(double lon, double lat) {
  return Value(Rep(GeoPointValue{lon, lat}));
}

Value Value::Document(std::string json) {
  Value v{Rep(std::move(json))};
  v.tag_override_ = DataType::kDocument;
  return v;
}

DataType Value::type() const {
  if (tag_override_ != DataType::kNull) return tag_override_;
  switch (rep_.index()) {
    case 0: return DataType::kNull;
    case 1: return DataType::kInt64;
    case 2: return DataType::kDouble;
    case 3: return DataType::kString;
    case 4: return DataType::kBool;
    case 5: return DataType::kGeoPoint;
  }
  return DataType::kNull;
}

double Value::NumericValue() const {
  switch (rep_.index()) {
    case 1: return static_cast<double>(std::get<int64_t>(rep_));
    case 2: return std::get<double>(rep_);
    case 4: return std::get<bool>(rep_) ? 1.0 : 0.0;
    default: return 0.0;
  }
}

bool Value::operator==(const Value& o) const { return rep_ == o.rep_; }

bool Value::operator<(const Value& o) const {
  // Cross-type numeric comparison keeps int/double predicates natural.
  bool this_num = rep_.index() == 1 || rep_.index() == 2;
  bool o_num = o.rep_.index() == 1 || o.rep_.index() == 2;
  if (this_num && o_num) return NumericValue() < o.NumericValue();
  if (rep_.index() != o.rep_.index()) return rep_.index() < o.rep_.index();
  return rep_ < o.rep_;
}

bool Value::SortsBefore(const Value& o) const {
  // One representation: exact order, which refines operator< (it compares
  // two int64s through doubles, and rounding to double is monotone).
  if (rep_.index() == o.rep_.index()) return rep_ < o.rep_;
  return *this < o || (!(o < *this) && rep_.index() < o.rep_.index());
}

std::string Value::ToString() const {
  switch (rep_.index()) {
    case 0: return "NULL";
    case 1: return std::to_string(std::get<int64_t>(rep_));
    case 2: {
      std::ostringstream os;
      os << std::get<double>(rep_);
      return os.str();
    }
    case 3: return std::get<std::string>(rep_);
    case 4: return std::get<bool>(rep_) ? "true" : "false";
    case 5: {
      const auto& g = std::get<GeoPointValue>(rep_);
      std::ostringstream os;
      os << "POINT(" << g.lon << " " << g.lat << ")";
      return os.str();
    }
  }
  return "?";
}

uint64_t Value::Hash() const {
  switch (rep_.index()) {
    case 0: return 0x9E3779B97F4A7C15ULL;
    case 1: return std::hash<int64_t>{}(std::get<int64_t>(rep_));
    case 2: return std::hash<double>{}(std::get<double>(rep_));
    case 3: return std::hash<std::string>{}(std::get<std::string>(rep_));
    case 4: return std::get<bool>(rep_) ? 1 : 2;
    case 5: {
      const auto& g = std::get<GeoPointValue>(rep_);
      return std::hash<double>{}(g.lon) * 31 + std::hash<double>{}(g.lat);
    }
  }
  return 0;
}

}  // namespace poly
