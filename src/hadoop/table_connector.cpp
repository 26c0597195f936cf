#include "hadoop/table_connector.h"

#include "common/string_util.h"

namespace poly {

namespace {

std::string RenderValue(const Value& v) {
  if (v.is_null()) return "\\N";
  if (v.type() == DataType::kGeoPoint) {
    // lon;lat keeps the TSV single-field.
    const auto& g = v.AsGeoPoint();
    return std::to_string(g.lon) + ";" + std::to_string(g.lat);
  }
  return v.ToString();
}

StatusOr<Value> ParseValue(const std::string& text, DataType type) {
  if (text == "\\N") return Value::Null();
  switch (type) {
    case DataType::kInt64:
      return Value::Int(std::stoll(text));
    case DataType::kTimestamp:
      return Value::Timestamp(std::stoll(text));
    case DataType::kDouble:
      return Value::Dbl(std::stod(text));
    case DataType::kBool:
      return Value::Boolean(text == "true" || text == "1");
    case DataType::kString:
      return Value::Str(text);
    case DataType::kDocument:
      return Value::Document(text);
    case DataType::kGeoPoint: {
      auto parts = SplitString(text, ';');
      if (parts.size() != 2) return Status::Corruption("bad geo point: " + text);
      return Value::GeoPoint(std::stod(parts[0]), std::stod(parts[1]));
    }
    case DataType::kNull:
      return Value::Null();
  }
  return Status::Corruption("unknown type in TSV");
}

StatusOr<DataType> TypeFromName(const std::string& name) {
  for (DataType t : {DataType::kInt64, DataType::kDouble, DataType::kString,
                     DataType::kBool, DataType::kTimestamp, DataType::kGeoPoint,
                     DataType::kDocument}) {
    if (name == DataTypeName(t)) return t;
  }
  return Status::Corruption("unknown column type '" + name + "'");
}

}  // namespace

std::string DfsTableConnector::RenderTsv(const Schema& schema,
                                         const std::vector<Row>& rows) {
  std::string out;
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (c) out += '\t';
    out += schema.column(c).name;
    out += ':';
    out += DataTypeName(schema.column(c).type);
  }
  out += '\n';
  for (const Row& row : rows) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c) out += '\t';
      out += RenderValue(row[c]);
    }
    out += '\n';
  }
  return out;
}

StatusOr<std::pair<Schema, std::vector<Row>>> DfsTableConnector::ParseTsv(
    const std::string& data) {
  std::vector<std::string> lines = SplitString(data, '\n');
  if (!lines.empty() && lines.back().empty()) lines.pop_back();
  if (lines.empty()) return Status::Corruption("empty TSV payload");
  Schema schema;
  for (const std::string& header : SplitString(lines[0], '\t')) {
    auto parts = SplitString(header, ':');
    if (parts.size() != 2) return Status::Corruption("bad TSV header '" + header + "'");
    POLY_ASSIGN_OR_RETURN(DataType type, TypeFromName(parts[1]));
    schema.AddColumn(ColumnDef(parts[0], type));
  }
  std::vector<Row> rows;
  rows.reserve(lines.size() - 1);
  for (size_t i = 1; i < lines.size(); ++i) {
    auto fields = SplitString(lines[i], '\t');
    if (fields.size() != schema.num_columns()) {
      return Status::Corruption("TSV row width mismatch at line " + std::to_string(i));
    }
    Row row;
    row.reserve(fields.size());
    for (size_t c = 0; c < fields.size(); ++c) {
      POLY_ASSIGN_OR_RETURN(Value v, ParseValue(fields[c], schema.column(c).type));
      row.push_back(std::move(v));
    }
    rows.push_back(std::move(row));
  }
  return std::make_pair(std::move(schema), std::move(rows));
}

Status DfsTableConnector::Export(const ColumnTable& table, const ReadView& view,
                                 const std::string& path) {
  std::vector<Row> rows;
  ColumnTable::ReadGuard g(&table);
  g.ScanVisible(view, [&](uint64_t r) { rows.push_back(g.GetRow(r)); });
  return dfs_->Write(path, RenderTsv(g.schema(), rows));
}

StatusOr<ColumnTable*> DfsTableConnector::Import(const std::string& path,
                                                 const std::string& table_name,
                                                 Database* db, TransactionManager* tm) {
  POLY_ASSIGN_OR_RETURN(std::string data, dfs_->Read(path));
  POLY_ASSIGN_OR_RETURN(auto parsed, ParseTsv(data));
  POLY_ASSIGN_OR_RETURN(ColumnTable * table,
                        db->CreateTable(table_name, std::move(parsed.first)));
  auto txn = tm->Begin();
  for (const Row& row : parsed.second) {
    POLY_RETURN_IF_ERROR(tm->Insert(txn.get(), table, row));
  }
  POLY_RETURN_IF_ERROR(tm->Commit(txn.get()));
  return table;
}

StatusOr<uint64_t> DfsTableConnector::AppendTo(const std::string& path, ColumnTable* table,
                                               TransactionManager* tm) {
  POLY_ASSIGN_OR_RETURN(std::string data, dfs_->Read(path));
  POLY_ASSIGN_OR_RETURN(auto parsed, ParseTsv(data));
  if (parsed.first.num_columns() != table->schema().num_columns()) {
    return Status::InvalidArgument("TSV schema width does not match table " +
                                   table->name());
  }
  auto txn = tm->Begin();
  for (const Row& row : parsed.second) {
    POLY_RETURN_IF_ERROR(tm->Insert(txn.get(), table, row));
  }
  POLY_RETURN_IF_ERROR(tm->Commit(txn.get()));
  return parsed.second.size();
}

}  // namespace poly
