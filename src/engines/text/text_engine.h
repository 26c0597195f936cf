#ifndef POLY_ENGINES_TEXT_TEXT_ENGINE_H_
#define POLY_ENGINES_TEXT_TEXT_ENGINE_H_

#include <string>

#include "engines/text/inverted_index.h"
#include "engines/text/text_analysis.h"
#include "storage/column_table.h"
#include "txn/transaction_manager.h"

namespace poly {

/// Binds the text machinery to a string/document column of a column table
/// (§II-C: "text processing is deeply integrated into the HANA engine [...]
/// results of text analytics can now be combined with structured data").
///
/// The paper triggers analysis "automatically when new or changed documents
/// are brought into the data management system"; Refresh() is that trigger —
/// it incrementally indexes row versions appended since the last call.
class TextEngine {
 public:
  /// `table` must outlive the engine; `column` must be a string column.
  static StatusOr<TextEngine> Create(ColumnTable* table, const std::string& column);

  /// Indexes rows appended since the last Refresh; after a Vacuum has
  /// renumbered the table, indexes it again from row 0. Returns rows
  /// indexed.
  uint64_t Refresh();

  /// BM25 search returning table row IDs (visibility is the caller's
  /// concern: filter hits through a ReadView when combining with SQL).
  std::vector<SearchHit> Search(const std::string& query, size_t top_k = 10) const {
    return index_.Search(query, top_k);
  }
  std::vector<SearchHit> SearchAll(const std::string& query, size_t top_k = 10) const {
    return index_.SearchAll(query, top_k);
  }

  /// Sentiment of one stored document row; OutOfRange past the table's end.
  StatusOr<double> RowSentiment(uint64_t row) const;

  /// Extracts entities from the documents below where the last Refresh
  /// stopped (at most the table's current end) into `target`, which must
  /// have schema (doc_row INT64, kind STRING, entity STRING) — the
  /// unstructured→structured bridge. Returns entities written.
  StatusOr<uint64_t> ExtractEntitiesTo(TransactionManager* tm, ColumnTable* target);

  const InvertedIndex& index() const { return index_; }

 private:
  TextEngine(ColumnTable* table, size_t column) : table_(table), column_(column) {}

  ColumnTable* table_;
  size_t column_;
  uint64_t indexed_until_ = 0;
  uint64_t vacuums_seen_ = 0;  // the table's vacuum count the index is for
  InvertedIndex index_;
};

}  // namespace poly

#endif  // POLY_ENGINES_TEXT_TEXT_ENGINE_H_
