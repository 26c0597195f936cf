#include "soe/node.h"

#include <chrono>

namespace poly {

Status SoeNode::HostPartition(const std::string& table, size_t partition,
                              const Schema& schema) {
  if (Hosts(table, partition)) {
    return Status::AlreadyExists("node " + std::to_string(id_) + " already hosts " +
                                 PartitionTableName(table, partition));
  }
  POLY_RETURN_IF_ERROR(
      db_.CreateTable(PartitionTableName(table, partition), schema).status());
  hosted_.emplace(table, partition);
  // Everything this node already replayed for its other partitions is owed
  // to the newcomer; ApplyUpTo covers offsets from here on.
  if (applied_offset_ > 0) {
    pending_backfill_[{table, partition}] = BackfillCursor{0, applied_offset_};
  }
  return Status::OK();
}

bool SoeNode::Hosts(const std::string& table, size_t partition) const {
  return hosted_.count({table, partition}) > 0;
}

std::vector<std::pair<std::string, size_t>> SoeNode::HostedPartitions() const {
  return {hosted_.begin(), hosted_.end()};
}

Status SoeNode::ApplyUpTo(const SharedLog& log, uint64_t target) {
  if (target > log.Tail()) target = log.Tail();
  while (applied_offset_ < target) {
    uint64_t offset = applied_offset_;
    POLY_ASSIGN_OR_RETURN(std::string raw, log.Read(offset, id_));
    POLY_ASSIGN_OR_RETURN(SoeLogRecord record, SoeLogRecord::Decode(raw));
    for (const SoeWrite& w : record.writes) {
      if (!Hosts(w.table, w.partition)) continue;
      POLY_ASSIGN_OR_RETURN(ColumnTable * t,
                            db_.GetTable(PartitionTableName(w.table, w.partition)));
      // Offset+1 keeps timestamps > 0 (0 is "never"). AppendVersion
      // publishes through the reader-safe version store (DESIGN.md §12),
      // so PartitionRowCount/ExecuteLocal snapshots taken concurrently with
      // log apply are bounded by the watermark instead of racing the append.
      POLY_RETURN_IF_ERROR(t->AppendVersion(w.row, offset + 1).status());
    }
    ++records_applied_;
    ++applied_offset_;
  }
  return Status::OK();
}

Status SoeNode::BackfillPartition(const SharedLog& log, const std::string& table,
                                  size_t partition) {
  auto it = pending_backfill_.find({table, partition});
  if (it == pending_backfill_.end()) return Status::OK();  // nothing owed
  POLY_ASSIGN_OR_RETURN(ColumnTable * t, db_.GetTable(PartitionTableName(table, partition)));
  BackfillCursor& cursor = it->second;
  while (cursor.next < cursor.end) {
    uint64_t offset = cursor.next;
    // The cursor advances only after the offset is fully applied, so a
    // failed read leaves a clean resume point for the caller's retry.
    POLY_ASSIGN_OR_RETURN(std::string raw, log.Read(offset, id_));
    POLY_ASSIGN_OR_RETURN(SoeLogRecord record, SoeLogRecord::Decode(raw));
    for (const SoeWrite& w : record.writes) {
      if (w.table != table || w.partition != partition) continue;
      POLY_RETURN_IF_ERROR(t->AppendVersion(w.row, offset + 1).status());
    }
    ++cursor.next;
  }
  pending_backfill_.erase(it);
  return Status::OK();
}

StatusOr<ResultSet> SoeNode::ExecuteLocal(const PlanPtr& plan) {
  auto start = std::chrono::steady_clock::now();
  // Everything applied from the log is committed; read it all.
  Executor exec(&db_, LatestCommittedView());
  auto result = exec.Execute(plan);
  rows_scanned_ += exec.stats().rows_scanned;
  ++queries_served_;
  busy_nanos_ += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  return result;
}

StatusOr<uint64_t> SoeNode::PartitionRowCount(const std::string& table,
                                              size_t partition) const {
  POLY_ASSIGN_OR_RETURN(ColumnTable * t, db_.GetTable(PartitionTableName(table, partition)));
  return ColumnTable::ReadGuard(t).CountVisible(LatestCommittedView());
}

}  // namespace poly
