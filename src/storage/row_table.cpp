#include "storage/row_table.h"

namespace poly {

StatusOr<uint64_t> RowTable::AppendVersion(const Row& values, uint64_t cts_stamp) {
  if (values.size() != schema_.num_columns()) {
    return Status::InvalidArgument("row width mismatch for table " + name_);
  }
  rows_.Append(values);
  // Row data lands (and its chunk watermark is release-published) before
  // the version watermark publish inside Append, so any reader bounded by
  // the stamp watermark sees fully-written rows.
  return versions_.Append(cts_stamp, kNoStamp);
}

Status RowTable::SetDeleteStamp(uint64_t row, uint64_t stamp) {
  if (row >= versions_.WriterSize()) return Status::OutOfRange("row out of range");
  if (versions_.WriterLoadDts(row) != kNoStamp) {
    return Status::Aborted("write-write conflict on " + name_ + " row " +
                           std::to_string(row));
  }
  versions_.WriterStoreDts(row, stamp);
  return Status::OK();
}

size_t RowTable::MemoryBytes() const {
  // One pin for both directory reads, as ColumnTable::MemoryBytes takes.
  EpochPin pin(&gc_);
  size_t bytes = versions_.MemoryBytes() + rows_.MemoryBytes();
  for (uint64_t r = 0; r < rows_.WriterSize(); ++r) {
    const Row& row = rows_.WriterAt(r);
    bytes += row.capacity() * sizeof(Value);
    for (const auto& v : row) {
      if (v.type() == DataType::kString || v.type() == DataType::kDocument) {
        bytes += v.AsString().capacity();
      }
    }
  }
  return bytes;
}

}  // namespace poly
