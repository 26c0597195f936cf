#ifndef POLY_TXN_REDO_LOG_H_
#define POLY_TXN_REDO_LOG_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace poly {

/// Record kinds in the single-node redo log.
enum class RedoKind : uint8_t {
  kCreateTable = 1,
  kInsert = 2,
  kDelete = 3,
  kCommit = 4,
};

/// Storage kind of a table, carried by its create record so recovery
/// rebuilds the table it logged.
enum class TableKind : uint8_t {
  kColumn = 0,
  kRow = 1,
};

/// Append-only redo log, either in memory or in a file (so recovery can be
/// exercised across a simulated crash). It is the only durable log file in
/// Polyphony: each durable unit of the SOE shared log (src/soe/shared_log.h)
/// is a RedoLog too. A file-backed log holds one descriptor from OpenFile to
/// destruction and keeps no second copy of its records in memory.
///
/// File format: one frame per record, `[u32 length][u32 CRC-32C][payload]`
/// in host byte order; the checksum covers the length field and the
/// payload. A crash mid-append leaves a torn tail: a last frame that runs
/// past end of file or fails its checksum. OpenFile cuts it off, so later
/// appends stay reachable, and ReadFile ignores it. A checksum failure in
/// any earlier frame is Corruption. A length field is checked against the
/// bytes left before anything is allocated for it.
///
/// Failure rule (DESIGN.md §9): a failed Sync cannot be retried — the
/// kernel may already have dropped the unwritten pages, so a second fsync
/// can succeed without writing them. The log therefore cuts itself back to
/// its last synced byte, removing every unsynced record (other live
/// transactions' included), and refuses every later Append and Sync until
/// it is reopened.
class RedoLog {
 public:
  /// Memory-only log.
  RedoLog() = default;
  ~RedoLog();
  /// File-backed log (append mode). Existing content is preserved, minus a
  /// torn tail; a checksum failure before the last frame is Corruption.
  static StatusOr<std::unique_ptr<RedoLog>> OpenFile(const std::string& path);

  /// Appends one serialized record. A file-backed log returns IOError, and
  /// records nothing, when the frame does not reach the file (short write,
  /// or an error such as ENOSPC or EFBIG): the partial frame is cut off
  /// again, and if that cut fails the log refuses all later writes. Returns
  /// IOError after a failed Sync.
  Status Append(std::string record);

  /// Makes every appended record durable: fdatasync for a file-backed log;
  /// a memory log only runs the fault hook. A failure cuts the log back to
  /// its last synced record and refuses all later Append and Sync calls.
  Status Sync();

  /// Invokes fn on every record in append order. A file-backed log reads
  /// its file, records written before OpenFile included.
  Status ForEach(const std::function<Status(const std::string&)>& fn) const;

  /// Records appended through this log object and still in the log.
  uint64_t num_records() const;

  /// Reads all records back from the file (for recovery after "restart").
  /// A torn tail is ignored; an earlier checksum failure is Corruption.
  static StatusOr<std::vector<std::string>> ReadFile(const std::string& path);

  /// Deterministic IO-fault hook for crash testing: invoked at the top of
  /// every Append ("append") and Sync ("sync"), and before the cut that
  /// follows a failed write or sync ("truncate"). A failed "append" is
  /// handed to the caller *before* any mutation, so the log stays exactly
  /// as it was (the single-node analogue of the SOE chaos fabric). A failed
  /// "sync" is a failed sync. A failed "truncate" skips the cut: the
  /// unsynced records stay in the file. Pass nullptr to clear.
  void SetFaultInjector(std::function<Status(const char* op)> injector);

 private:
  /// Cuts the log back to `bytes` of file / `records` records after a
  /// failed write or sync; false if the cut did not happen. Caller holds
  /// mu_.
  bool CutLocked(uint64_t bytes, uint64_t records);

  mutable std::mutex mu_;
  std::vector<std::string> records_;  // memory-only logs
  uint64_t num_records_ = 0;
  uint64_t synced_records_ = 0;  // num_records_ at the last good Sync
  std::string path_;
  int fd_ = -1;  // -1 = memory-only
  uint64_t file_bytes_ = 0;    // bytes of whole frames in the file
  uint64_t synced_bytes_ = 0;  // file_bytes_ at OpenFile or the last good Sync
  Status failed_;  // non-OK once the log refuses writes (until reopened)
  std::function<Status(const char* op)> fault_injector_;
};

}  // namespace poly

#endif  // POLY_TXN_REDO_LOG_H_
