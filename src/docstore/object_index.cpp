#include "docstore/object_index.h"

#include <map>
#include <unordered_map>
#include <vector>

namespace poly {

namespace {

JsonValue RowToJson(const ColumnTable::ReadGuard& table, uint64_t row) {
  std::map<std::string, JsonValue> fields;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const std::string& name = table.schema().column(c).name;
    Value v = table.GetValue(row, c);
    switch (v.type()) {
      case DataType::kNull:
        fields[name] = JsonValue::Null();
        break;
      case DataType::kInt64:
      case DataType::kTimestamp:
      case DataType::kDouble:
        fields[name] = JsonValue::Number(v.NumericValue());
        break;
      case DataType::kBool:
        fields[name] = JsonValue::Bool(v.AsBool());
        break;
      default:
        fields[name] = JsonValue::Str(v.ToString());
    }
  }
  return JsonValue::Object(std::move(fields));
}

}  // namespace

StatusOr<uint64_t> ObjectJoinIndex::Materialize(TransactionManager* tm,
                                                const ColumnTable& header,
                                                const std::string& header_key_column,
                                                const ColumnTable& items,
                                                const std::string& item_fk_column,
                                                ColumnTable* target) {
  POLY_ASSIGN_OR_RETURN(size_t hk, header.schema().IndexOf(header_key_column));
  POLY_ASSIGN_OR_RETURN(size_t fk, items.schema().IndexOf(item_fk_column));
  if (target->schema().num_columns() != 2 ||
      target->schema().column(1).type != DataType::kDocument) {
    return Status::InvalidArgument("object index target must be (key, doc DOCUMENT)");
  }
  ReadView view = tm->AutoCommitView();

  std::unordered_map<int64_t, std::vector<JsonValue>> items_by_key;
  ColumnTable::ReadGuard item_rows(&items);
  item_rows.ScanVisible(view, [&](uint64_t r) {
    Value key = item_rows.GetValue(r, fk);
    if (key.is_null()) return;
    items_by_key[key.AsInt()].push_back(RowToJson(item_rows, r));
  });

  auto txn = tm->Begin();
  uint64_t written = 0;
  Status status = Status::OK();
  ColumnTable::ReadGuard header_rows(&header);
  header_rows.ScanVisible(view, [&](uint64_t r) {
    if (!status.ok()) return;
    Value key = header_rows.GetValue(r, hk);
    if (key.is_null()) return;
    std::map<std::string, JsonValue> object;
    object["header"] = RowToJson(header_rows, r);
    auto it = items_by_key.find(key.AsInt());
    object["items"] = JsonValue::Array(
        it == items_by_key.end() ? std::vector<JsonValue>{} : it->second);
    std::string doc = JsonValue::Object(std::move(object)).Serialize();
    status = tm->Insert(txn.get(), target,
                        {Value::Int(key.AsInt()), Value::Document(std::move(doc))});
    if (status.ok()) ++written;
  });
  POLY_RETURN_IF_ERROR(status);
  POLY_RETURN_IF_ERROR(tm->Commit(txn.get()));
  return written;
}

StatusOr<JsonValue> ObjectJoinIndex::Lookup(const ColumnTable& target,
                                            const ReadView& view, int64_t key) {
  StatusOr<JsonValue> result = Status::NotFound("no object for key " + std::to_string(key));
  ColumnTable::ReadGuard g(&target);
  g.ScanVisible(view, [&](uint64_t r) {
    if (result.ok()) return;
    Value k = g.GetValue(r, 0);
    if (!k.is_null() && k.AsInt() == key) {
      Value doc = g.GetValue(r, 1);
      if (!doc.is_null()) result = ParseJson(doc.AsString());
    }
  });
  return result;
}

}  // namespace poly
