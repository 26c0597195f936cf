#ifndef POLY_TXN_TRANSACTION_MANAGER_H_
#define POLY_TXN_TRANSACTION_MANAGER_H_

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <variant>
#include <vector>

#include "common/status.h"
#include "storage/database.h"
#include "storage/mvcc.h"
#include "txn/redo_log.h"

namespace poly {

/// State of one transaction handle.
enum class TxnState { kActive, kCommitted, kAborted };

/// Handle for one transaction: identity, snapshot, and write set.
/// Obtained from TransactionManager::Begin(); not thread-safe itself.
class Transaction {
 public:
  uint64_t id() const { return id_; }
  uint64_t snapshot_ts() const { return snapshot_ts_; }
  TxnState state() const { return state_; }
  uint64_t commit_ts() const { return commit_ts_; }

  /// Read view for statements inside this transaction.
  ReadView View() const { return ReadView{snapshot_ts_, id_}; }

  /// Row id of this transaction's most recent write (insert or delete).
  /// Lets callers learn the ids of their own inserts without re-scanning;
  /// requires at least one prior write.
  uint64_t last_write_row() const { return writes_.back().row; }

 private:
  friend class TransactionManager;

  using AnyTable = std::variant<ColumnTable*, RowTable*>;
  struct WriteOp {
    AnyTable table;
    uint64_t row = 0;
    bool is_delete = false;
  };

  uint64_t id_ = 0;
  uint64_t snapshot_ts_ = 0;
  uint64_t commit_ts_ = 0;
  TxnState state_ = TxnState::kActive;
  std::vector<WriteOp> writes_;
};

/// What a TransactionManager needs to go on writing after recovery.
struct RecoveredState {
  uint64_t last_commit_ts = 0;  ///< largest replayed commit timestamp
  /// Largest transaction id in the log, uncommitted transactions included.
  uint64_t last_txn_id = 0;
};

/// Snapshot-isolation MVCC transaction manager (§II-A: "fully ACID
/// compliant"). Commit stamps are resolved in place (stamps carrying kTxnBit
/// become the commit timestamp), writes are redo-logged, and recovery
/// rebuilds a database from the log.
///
/// Concurrency: Begin/Commit/Abort and all write paths are internally
/// latched; readers never block. Commit resolves all stamps in the tables'
/// reader-safe version stores (DESIGN.md §12) and only then publishes the
/// advanced clock, so any snapshot taken at or after a commit timestamp
/// observes that commit completely — visible counts are exact, not just
/// eventually consistent.
class TransactionManager {
 public:
  /// `log` may be null (no durability, e.g. inside benches).
  explicit TransactionManager(RedoLog* log = nullptr) : log_(log) {}
  /// A manager that goes on from a recovered log: its clock starts at the
  /// last replayed commit, so every recovered row is visible, and its
  /// transaction ids start above every id in the log, so no commit record
  /// it writes can claim another life's uncommitted writes.
  TransactionManager(RedoLog* log, const RecoveredState& from)
      : clock_(std::max<uint64_t>(from.last_commit_ts, 1)),
        next_txn_id_(from.last_txn_id + 1),
        log_(log) {}

  std::unique_ptr<Transaction> Begin();

  /// Single-statement convenience view ("auto-commit read").
  ReadView AutoCommitView() const {
    return ReadView{clock_.load(std::memory_order_acquire), 0};
  }

  /// Inserts a row version into `table` under `txn`.
  Status Insert(Transaction* txn, ColumnTable* table, const Row& values);
  Status Insert(Transaction* txn, RowTable* table, const Row& values);

  /// Deletes a visible row version. Fails with Aborted on conflicts.
  Status Delete(Transaction* txn, ColumnTable* table, uint64_t row);
  Status Delete(Transaction* txn, RowTable* table, uint64_t row);

  /// Update = delete old version + insert new version.
  Status Update(Transaction* txn, ColumnTable* table, uint64_t row, const Row& values);

  /// Appends and syncs the commit record, then makes the writes visible.
  /// A failed append or sync aborts the transaction and returns the error;
  /// so does a create, insert or delete record of any transaction that
  /// failed to reach the log earlier (DESIGN.md §9).
  Status Commit(Transaction* txn);
  Status Abort(Transaction* txn);

  /// Logs a CREATE TABLE so recovery can rebuild the catalog, as a table
  /// of the same kind.
  Status LogCreateTable(const std::string& name, const Schema& schema,
                        TableKind kind = TableKind::kColumn);

  /// Timestamp low-water mark below which no active snapshot exists.
  uint64_t OldestActiveSnapshot() const;

  uint64_t CurrentTimestamp() const { return clock_.load(std::memory_order_acquire); }

  /// Replays a redo log into `db`: recreates tables of their logged kind
  /// and re-applies all writes of committed transactions with their final
  /// timestamps. When `state` is given it receives what a manager needs to
  /// go on writing to `db` (see the RecoveredState constructor).
  static Status Recover(const std::vector<std::string>& records, Database* db,
                        RecoveredState* state = nullptr);

 private:
  /// The one write body per operation, for both table kinds; each takes
  /// write_mu_.
  template <typename Table>
  Status InsertInto(Transaction* txn, Table* table, const Row& values);
  template <typename Table>
  Status DeleteFrom(Transaction* txn, Table* table, uint64_t row);
  /// Appends a create, insert or delete record; caller holds write_mu_.
  Status LogWrite(std::string record);
  /// Rolls back `txn`'s writes and retires it; caller holds write_mu_.
  void AbortLocked(Transaction* txn);

  std::atomic<uint64_t> clock_{1};
  std::atomic<uint64_t> next_txn_id_{1};
  RedoLog* log_;

  mutable std::mutex mu_;
  std::map<uint64_t, uint64_t> active_snapshots_;  // txn id -> snapshot ts
  std::mutex write_mu_;  // serializes write/commit critical sections
  /// First create, insert or delete record that did not reach the log.
  /// Memory then holds a table or row slot the log lacks, and recovery
  /// numbers rows by replay order, so every later write and commit fails
  /// with this error until the database is recovered from the log
  /// (DESIGN.md §9). Guarded by write_mu_.
  Status unlogged_;
};

}  // namespace poly

#endif  // POLY_TXN_TRANSACTION_MANAGER_H_
