#ifndef POLY_SOE_NODE_H_
#define POLY_SOE_NODE_H_

#include <map>
#include <set>
#include <string>

#include "query/executor.h"
#include "soe/log_record.h"
#include "soe/partition.h"
#include "soe/shared_log.h"
#include "storage/database.h"

namespace poly {

/// Consistency class of a database node (§IV-B): OLTP nodes incorporate
/// the log synchronously inside the update/read path ("real time
/// transactional update"); OLAP nodes apply it asynchronously, trading
/// freshness for cheap reads ("not necessarily synchronously to the update
/// request").
enum class NodeMode { kOltp, kOlap };

/// One SOE process (the v2lqp executable of Figure 3): a query service
/// plus a data service over locally hosted horizontal partitions.
class SoeNode {
 public:
  SoeNode(int id, NodeMode mode) : id_(id), mode_(mode) {}

  SoeNode(const SoeNode&) = delete;
  SoeNode& operator=(const SoeNode&) = delete;

  int id() const { return id_; }
  NodeMode mode() const { return mode_; }
  void set_mode(NodeMode mode) { mode_ = mode; }

  /// Data service: starts hosting a partition (creates the local table).
  Status HostPartition(const std::string& table, size_t partition, const Schema& schema);
  bool Hosts(const std::string& table, size_t partition) const;
  std::vector<std::pair<std::string, size_t>> HostedPartitions() const;

  /// Data service: applies log records [applied_offset, target) that touch
  /// hosted partitions. The log offset+1 becomes the commit timestamp.
  /// Reads go over the fault fabric as this node; a failed read returns
  /// Unavailable with everything before it durably applied, so the caller
  /// can simply retry (replay is resumable, never double-applied).
  Status ApplyUpTo(const SharedLog& log, uint64_t target);

  /// Replays the history a partition just added to this node missed (used
  /// by Rebalance: the node is already past those offsets for its other
  /// partitions, but the new partition needs them). Resumable: progress is
  /// tracked per partition, so a replay interrupted by a network fault can
  /// be retried without re-applying rows.
  Status BackfillPartition(const SharedLog& log, const std::string& table,
                           size_t partition);

  uint64_t applied_offset() const { return applied_offset_; }

  /// Query service: executes a plan against local partition tables (a
  /// fragment task's staged inputs arrive bound into its row leaves).
  /// Returns the result and accumulates scan statistics.
  StatusOr<ResultSet> ExecuteLocal(const PlanPtr& plan);

  /// Attaches the workload governor fragment/local execution admits
  /// through (satellite of DESIGN.md §13.2; null detaches).
  void set_resource_governor(resource::ResourceGovernor* governor) {
    db_.set_resource_governor(governor);
  }

  /// Local rows of one hosted partition (all committed via the log).
  StatusOr<uint64_t> PartitionRowCount(const std::string& table, size_t partition) const;

  const Database& db() const { return db_; }

  uint64_t rows_scanned() const { return rows_scanned_; }
  uint64_t queries_served() const { return queries_served_; }
  uint64_t records_applied() const { return records_applied_; }
  /// Real nanoseconds this node spent executing queries (for makespan).
  uint64_t busy_nanos() const { return busy_nanos_; }

 private:
  /// Resumable backfill cursor of one freshly hosted partition: offsets
  /// [next, end) still owe history ([end, ...) arrives via ApplyUpTo,
  /// which covers every partition hosted before it runs).
  struct BackfillCursor {
    uint64_t next = 0;
    uint64_t end = 0;
  };

  int id_;
  NodeMode mode_;
  Database db_;
  std::set<std::pair<std::string, size_t>> hosted_;
  std::map<std::pair<std::string, size_t>, BackfillCursor> pending_backfill_;
  uint64_t applied_offset_ = 0;
  uint64_t rows_scanned_ = 0;
  uint64_t queries_served_ = 0;
  uint64_t records_applied_ = 0;
  uint64_t busy_nanos_ = 0;
};

}  // namespace poly

#endif  // POLY_SOE_NODE_H_
