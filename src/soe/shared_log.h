#ifndef POLY_SOE_SHARED_LOG_H_
#define POLY_SOE_SHARED_LOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "soe/network.h"

namespace poly {

class RedoLog;

/// CORFU-style distributed shared log (§IV-B, [15]): a sequencer hands out
/// globally ordered offsets; each offset maps deterministically to a
/// replica set of log-unit nodes; readers tail the log. "The log stores
/// all changes in a transactional consistent way"; the transaction broker
/// (transaction_broker.h) serializes transactions through Append.
///
/// All unit traffic goes through the fault fabric as routed messages
/// (writer/reader endpoint <-> `LogUnitEndpoint(unit)`), so a lossy or
/// partitioned network surfaces as Status errors here, never as silent
/// success. An append that reaches zero replicas consumes no offset — the
/// visible log stays dense and replay never stalls on a hole.
class SharedLog {
 public:
  struct Options {
    int num_log_units = 3;
    int replication = 2;
    /// When non-empty, log unit k keeps a RedoLog at
    /// `<durable_dir>/unit<k>.log` whose records are `[u64 offset][record]`.
    /// A replica write counts only once that RedoLog's Append and Sync both
    /// returned OK, and construction replays whatever the files already
    /// hold (the sequencer resumes past the highest recovered offset), so a
    /// *fresh* cluster recovers the shared log across a process "crash".
    /// RedoLog's frame rules apply: a torn tail is cut, and a unit whose
    /// file cannot be opened or read starts down.
    std::string durable_dir;
  };

  /// `net` may be null (no accounting, no faults).
  explicit SharedLog(Options options, SimulatedNetwork* net = nullptr);
  SharedLog() : SharedLog(Options()) {}
  ~SharedLog();

  SharedLog(const SharedLog&) = delete;
  SharedLog& operator=(const SharedLog&) = delete;

  /// Appends a record; returns its global offset (0-based, dense).
  /// `writer` is the sending endpoint (defaults to the coordinator).
  /// Succeeds if at least one replica stores the record (the survivors
  /// keep it durable; ReReplicate tops the copy count back up). Fails
  /// Unavailable — without consuming an offset — if no replica could be
  /// reached, so the caller can retry the same record safely.
  StatusOr<uint64_t> Append(std::string record, int writer = kCoordinatorEndpoint);

  /// Reads one record from any live, reachable replica.
  StatusOr<std::string> Read(uint64_t offset, int reader = kCoordinatorEndpoint) const;

  /// Reads [from, to) in order; fails at the first unreadable offset.
  StatusOr<std::vector<std::string>> ReadRange(uint64_t from, uint64_t to,
                                               int reader = kCoordinatorEndpoint) const;

  /// One past the last appended offset ("high-water mark").
  uint64_t Tail() const;

  /// Fails a log unit; offsets survive while >= 1 replica lives.
  Status KillUnit(int unit);
  /// Revives a failed unit (it rejoins empty of anything it missed until
  /// ReReplicate copies records back).
  Status ReviveUnit(int unit);
  /// Copies under-replicated offsets onto surviving units.
  Status ReReplicate();

  int num_units() const { return static_cast<int>(units_.size()); }
  uint64_t records_stored(int unit) const;

  /// Mirrors log activity into `registry` under `soe.log.*` (appends,
  /// append_failures, replica_writes, reads, read_failovers,
  /// rereplicated_records). Attach before concurrent use; nullptr detaches.
  void set_metrics(metrics::Registry* registry);

 private:
  /// Deterministic replica set of an offset (round-robin chains).
  std::vector<int> ReplicasOf(uint64_t offset) const;

  /// Opens every unit's RedoLog and replays it into memory. Called once
  /// from the constructor.
  void LoadDurable();
  /// Stores one replica of `record` on `unit`, first in the unit's RedoLog
  /// when the log is durable; false if that write failed. Caller holds mu_.
  bool WriteReplica(int unit, uint64_t offset, const std::string& record);

  /// Cached registry metric pointers (all null when no registry attached).
  struct LogMetrics {
    metrics::Counter* appends = nullptr;
    metrics::Counter* append_failures = nullptr;
    metrics::Counter* replica_writes = nullptr;
    metrics::Counter* reads = nullptr;
    metrics::Counter* read_failovers = nullptr;
    metrics::Counter* rereplicated_records = nullptr;
  };

  Options options_;
  SimulatedNetwork* net_;
  LogMetrics metrics_;
  mutable std::mutex mu_;
  std::atomic<uint64_t> sequencer_{0};  ///< published tail; advanced under mu_
  std::vector<std::map<uint64_t, std::string>> units_;  ///< unit -> offset -> record
  std::vector<bool> unit_alive_;
  /// Per-unit durable logs (null: the unit's file failed); empty = memory-only.
  std::vector<std::unique_ptr<RedoLog>> unit_logs_;
};

}  // namespace poly

#endif  // POLY_SOE_SHARED_LOG_H_
