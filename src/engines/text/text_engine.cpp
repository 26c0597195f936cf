#include "engines/text/text_engine.h"

#include <algorithm>

namespace poly {

StatusOr<TextEngine> TextEngine::Create(ColumnTable* table, const std::string& column) {
  POLY_ASSIGN_OR_RETURN(size_t idx, table->schema().IndexOf(column));
  DataType type = table->schema().column(idx).type;
  if (type != DataType::kString && type != DataType::kDocument) {
    return Status::InvalidArgument("text engine needs a string column, got " +
                                   std::string(DataTypeName(type)));
  }
  return TextEngine(table, idx);
}

uint64_t TextEngine::Refresh() {
  ColumnTable::ReadGuard g(table_);
  if (g.vacuum_count() != vacuums_seen_) {
    // A Vacuum renumbered the rows, so the index's doc ids name other rows
    // now, even if later inserts regrew the table past indexed_until_.
    index_ = InvertedIndex();
    indexed_until_ = 0;
    vacuums_seen_ = g.vacuum_count();
  }
  uint64_t n = g.size();
  uint64_t indexed = 0;
  for (uint64_t r = indexed_until_; r < n; ++r) {
    Value v = g.GetValue(r, column_);
    if (v.is_null()) continue;
    index_.AddDocument(r, v.AsString());
    ++indexed;
  }
  indexed_until_ = n;
  return indexed;
}

StatusOr<double> TextEngine::RowSentiment(uint64_t row) const {
  ColumnTable::ReadGuard g(table_);
  if (row >= g.size()) return Status::OutOfRange("row out of range");
  Value v = g.GetValue(row, column_);
  if (v.is_null()) return 0.0;
  return SentimentScore(v.AsString());
}

StatusOr<uint64_t> TextEngine::ExtractEntitiesTo(TransactionManager* tm,
                                                 ColumnTable* target) {
  if (target->schema().num_columns() != 3) {
    return Status::InvalidArgument(
        "entity target table must be (doc_row, kind, entity)");
  }
  auto txn = tm->Begin();
  uint64_t written = 0;
  ColumnTable::ReadGuard g(table_);
  uint64_t end = std::min(indexed_until_, g.size());
  for (uint64_t r = 0; r < end; ++r) {
    Value v = g.GetValue(r, column_);
    if (v.is_null()) continue;
    for (const Entity& e : ExtractEntities(v.AsString())) {
      POLY_RETURN_IF_ERROR(tm->Insert(
          txn.get(), target,
          {Value::Int(static_cast<int64_t>(r)), Value::Str(EntityKindName(e.kind)),
           Value::Str(e.text)}));
      ++written;
    }
  }
  POLY_RETURN_IF_ERROR(tm->Commit(txn.get()));
  return written;
}

}  // namespace poly
