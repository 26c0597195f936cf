#include "docstore/flexible_table.h"

namespace poly {

Status FlexibleTable::Insert(const std::map<std::string, Value>& record) {
  // Implicit DDL: create any unseen columns first.
  for (const auto& [name, value] : record) {
    if (table_->schema().Contains(name)) {
      size_t idx = *table_->schema().IndexOf(name);
      DataType existing = table_->schema().column(idx).type;
      if (!value.is_null() && value.type() != existing) {
        return Status::InvalidArgument(
            "type conflict for flexible column '" + name + "': column is " +
            DataTypeName(existing) + ", value is " + DataTypeName(value.type()));
      }
    } else {
      DataType type = value.is_null() ? DataType::kString : value.type();
      POLY_RETURN_IF_ERROR(table_->AddColumn(ColumnDef(name, type, /*null_ok=*/true)));
    }
  }
  Row row(table_->schema().num_columns(), Value::Null());
  for (const auto& [name, value] : record) {
    row[*table_->schema().IndexOf(name)] = value;
  }
  auto txn = tm_->Begin();
  POLY_RETURN_IF_ERROR(tm_->Insert(txn.get(), table_, row));
  return tm_->Commit(txn.get());
}

uint64_t FlexibleTable::NumRecords() const {
  // View first, guard second: every commit the snapshot covers is inside
  // the guard's watermark.
  ReadView view = tm_->AutoCommitView();
  return ColumnTable::ReadGuard(table_).CountVisible(view);
}

}  // namespace poly
