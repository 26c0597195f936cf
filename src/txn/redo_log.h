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

/// Append-only redo log, either in memory or in a file (so recovery can be
/// exercised across a simulated crash); a file-backed log keeps no second
/// copy of its records in memory. The SOE distributed shared log
/// (src/soe/shared_log.h) is the scale-out sibling of this component.
class RedoLog {
 public:
  /// Memory-only log.
  RedoLog() = default;
  /// File-backed log (append mode). Existing content is preserved.
  static StatusOr<std::unique_ptr<RedoLog>> OpenFile(const std::string& path);

  /// Appends one serialized record. A file-backed log returns IOError, and
  /// records nothing, when the record does not reach the file (short write,
  /// or a flush error such as ENOSPC on close).
  Status Append(std::string record);

  /// Flushes file-backed storage (no-op for memory logs).
  Status Sync();

  /// Invokes fn on every record in append order. A file-backed log reads
  /// its file, records written before OpenFile included.
  Status ForEach(const std::function<Status(const std::string&)>& fn) const;

  /// Records appended through this log object.
  uint64_t num_records() const;

  /// Reads all records back from the file (for recovery after "restart").
  static StatusOr<std::vector<std::string>> ReadFile(const std::string& path);

  /// Deterministic IO-fault hook for crash testing: invoked at the top of
  /// every Append ("append") and Sync ("sync"); a non-OK return is handed
  /// to the caller *before* any mutation, so a failed append leaves the log
  /// exactly as it was (the single-node analogue of the SOE chaos fabric).
  /// Pass nullptr to clear.
  void SetFaultInjector(std::function<Status(const char* op)> injector);

 private:
  mutable std::mutex mu_;
  std::vector<std::string> records_;  // memory-only logs
  uint64_t num_records_ = 0;
  std::string path_;  // empty = memory-only
  uint64_t file_bytes_ = 0;  // bytes of whole records in the file
  std::function<Status(const char* op)> fault_injector_;
};

}  // namespace poly

#endif  // POLY_TXN_REDO_LOG_H_
