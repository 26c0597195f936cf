#include "txn/transaction_manager.h"

#include "common/serializer.h"
#include "types/value_serde.h"

namespace poly {

namespace {

std::string EncodeInsert(uint64_t txn_id, const std::string& table, const Row& values) {
  Serializer s;
  s.PutU8(static_cast<uint8_t>(RedoKind::kInsert));
  s.PutU64(txn_id);
  s.PutString(table);
  s.PutVarint(values.size());
  for (const auto& v : values) WriteValue(&s, v);
  return s.Release();
}

std::string EncodeDelete(uint64_t txn_id, const std::string& table, uint64_t row) {
  Serializer s;
  s.PutU8(static_cast<uint8_t>(RedoKind::kDelete));
  s.PutU64(txn_id);
  s.PutString(table);
  s.PutU64(row);
  return s.Release();
}

std::string EncodeCommit(uint64_t txn_id, uint64_t commit_ts) {
  Serializer s;
  s.PutU8(static_cast<uint8_t>(RedoKind::kCommit));
  s.PutU64(txn_id);
  s.PutU64(commit_ts);
  return s.Release();
}

std::string EncodeCreateTable(const std::string& name, const Schema& schema,
                              TableKind kind) {
  Serializer s;
  s.PutU8(static_cast<uint8_t>(RedoKind::kCreateTable));
  s.PutString(name);
  s.PutU8(static_cast<uint8_t>(kind));
  s.PutVarint(schema.num_columns());
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    const ColumnDef& def = schema.column(c);
    s.PutString(def.name);
    s.PutU8(static_cast<uint8_t>(def.type));
    s.PutU8(def.nullable ? 1 : 0);
    s.PutU8(def.generated_key_order ? 1 : 0);
  }
  return s.Release();
}

}  // namespace

std::unique_ptr<Transaction> TransactionManager::Begin() {
  auto txn = std::make_unique<Transaction>();
  txn->id_ = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  txn->snapshot_ts_ = clock_.load(std::memory_order_acquire);
  {
    std::lock_guard<std::mutex> lock(mu_);
    active_snapshots_[txn->id_] = txn->snapshot_ts_;
  }
  return txn;
}

Status TransactionManager::LogWrite(std::string record) {
  POLY_RETURN_IF_ERROR(unlogged_);
  if (log_ == nullptr) return Status::OK();
  unlogged_ = log_->Append(std::move(record));
  return unlogged_;
}

template <typename Table>
Status TransactionManager::InsertInto(Transaction* txn, Table* table,
                                      const Row& values) {
  if (txn->state_ != TxnState::kActive) return Status::InvalidArgument("txn not active");
  std::lock_guard<std::mutex> lock(write_mu_);
  POLY_ASSIGN_OR_RETURN(uint64_t row,
                        table->AppendVersion(values, MakeTxnStamp(txn->id_)));
  txn->writes_.push_back({table, row, /*is_delete=*/false});
  return LogWrite(EncodeInsert(txn->id_, table->name(), values));
}

template <typename Table>
Status TransactionManager::DeleteFrom(Transaction* txn, Table* table, uint64_t row) {
  if (txn->state_ != TxnState::kActive) return Status::InvalidArgument("txn not active");
  std::lock_guard<std::mutex> lock(write_mu_);
  // write_mu_ serializes every writer of the table, so the writer side
  // reads the stamps without a pin.
  if (!txn->View().RowVisible(table->WriterLoadCts(row), table->WriterLoadDts(row))) {
    return Status::Aborted("row not visible to transaction");
  }
  POLY_RETURN_IF_ERROR(table->SetDeleteStamp(row, MakeTxnStamp(txn->id_)));
  txn->writes_.push_back({table, row, /*is_delete=*/true});
  return LogWrite(EncodeDelete(txn->id_, table->name(), row));
}

Status TransactionManager::Insert(Transaction* txn, ColumnTable* table,
                                  const Row& values) {
  return InsertInto(txn, table, values);
}

Status TransactionManager::Insert(Transaction* txn, RowTable* table, const Row& values) {
  return InsertInto(txn, table, values);
}

Status TransactionManager::Delete(Transaction* txn, ColumnTable* table, uint64_t row) {
  return DeleteFrom(txn, table, row);
}

Status TransactionManager::Delete(Transaction* txn, RowTable* table, uint64_t row) {
  return DeleteFrom(txn, table, row);
}

Status TransactionManager::Update(Transaction* txn, ColumnTable* table, uint64_t row,
                                  const Row& values) {
  POLY_RETURN_IF_ERROR(Delete(txn, table, row));
  return Insert(txn, table, values);
}

Status TransactionManager::Commit(Transaction* txn) {
  if (txn->state_ != TxnState::kActive) return Status::InvalidArgument("txn not active");
  std::lock_guard<std::mutex> lock(write_mu_);
  // Durable before visible: the commit record is appended and synced
  // before any stamp resolves or the clock moves, so a commit that returns
  // an error is never seen — it takes the abort path instead. clock_ is
  // only ever advanced here, under write_mu_, so commit_ts cannot change
  // between the log write and the publish below.
  uint64_t commit_ts = clock_.load(std::memory_order_relaxed) + 1;
  Status logged = unlogged_;
  if (logged.ok() && log_ != nullptr) {
    logged = log_->Append(EncodeCommit(txn->id_, commit_ts));
    if (logged.ok()) logged = log_->Sync();
  }
  if (!logged.ok()) {
    AbortLocked(txn);
    return logged;
  }
  // Resolve every stamp BEFORE publishing the new clock value: a reader
  // whose snapshot_ts >= commit_ts must find all of this commit's stamps
  // already rewritten, or its visible count would transiently miss rows the
  // snapshot entitles it to (the §12 oracle harness checks every observed
  // (snapshot_ts, visible_count) pair against a serial replay). The release
  // store pairs with AutoCommitView's acquire load.
  for (const auto& op : txn->writes_) {
    std::visit(
        [&](auto* table) {
          if (op.is_delete) {
            table->ResolveDeleteStamp(op.row, commit_ts);
          } else {
            table->ResolveCreateStamp(op.row, commit_ts);
          }
        },
        op.table);
  }
  txn->commit_ts_ = commit_ts;
  txn->state_ = TxnState::kCommitted;
  clock_.store(commit_ts, std::memory_order_release);
  std::lock_guard<std::mutex> snap_lock(mu_);
  active_snapshots_.erase(txn->id_);
  return Status::OK();
}

Status TransactionManager::Abort(Transaction* txn) {
  if (txn->state_ != TxnState::kActive) return Status::InvalidArgument("txn not active");
  std::lock_guard<std::mutex> lock(write_mu_);
  AbortLocked(txn);
  return Status::OK();
}

void TransactionManager::AbortLocked(Transaction* txn) {
  // Undo in reverse: inserted versions become permanently invisible
  // (cts stays an uncommitted stamp of a dead txn); delete stamps clear.
  for (auto it = txn->writes_.rbegin(); it != txn->writes_.rend(); ++it) {
    std::visit(
        [&](auto* table) {
          if (it->is_delete) table->ClearDeleteStamp(it->row);
        },
        it->table);
  }
  txn->state_ = TxnState::kAborted;
  std::lock_guard<std::mutex> snap_lock(mu_);
  active_snapshots_.erase(txn->id_);
}

Status TransactionManager::LogCreateTable(const std::string& name, const Schema& schema,
                                          TableKind kind) {
  std::lock_guard<std::mutex> lock(write_mu_);
  return LogWrite(EncodeCreateTable(name, schema, kind));
}

uint64_t TransactionManager::OldestActiveSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t oldest = clock_.load(std::memory_order_acquire);
  for (const auto& [_, snap] : active_snapshots_) oldest = std::min(oldest, snap);
  return oldest;
}

Status TransactionManager::Recover(const std::vector<std::string>& records,
                                   Database* db, RecoveredState* state) {
  using AnyTable = Transaction::AnyTable;
  // The table a record names, whichever kind it is.
  auto find_table = [db](const std::string& name) -> StatusOr<AnyTable> {
    if (auto column = db->GetTable(name); column.ok()) return AnyTable(*column);
    POLY_ASSIGN_OR_RETURN(RowTable * row, db->GetRowTable(name));
    return AnyTable(row);
  };
  // Pass 1: commit timestamps of committed transactions, and the largest
  // transaction id any record carries.
  std::unordered_map<uint64_t, uint64_t> commit_ts;
  RecoveredState found;
  for (const auto& rec : records) {
    Deserializer d(rec);
    POLY_ASSIGN_OR_RETURN(uint8_t kind, d.GetU8());
    if (static_cast<RedoKind>(kind) == RedoKind::kCreateTable) continue;
    POLY_ASSIGN_OR_RETURN(uint64_t txn_id, d.GetU64());
    found.last_txn_id = std::max(found.last_txn_id, txn_id);
    if (static_cast<RedoKind>(kind) == RedoKind::kCommit) {
      POLY_ASSIGN_OR_RETURN(uint64_t ts, d.GetU64());
      commit_ts[txn_id] = ts;
      found.last_commit_ts = std::max(found.last_commit_ts, ts);
    }
  }
  // Pass 2: replay. Inserts/deletes of committed txns are applied with their
  // final commit timestamps; uncommitted writes are skipped entirely, but
  // their inserts still occupy a row slot so later row IDs line up.
  for (const auto& rec : records) {
    Deserializer d(rec);
    POLY_ASSIGN_OR_RETURN(uint8_t kind_raw, d.GetU8());
    RedoKind kind = static_cast<RedoKind>(kind_raw);
    switch (kind) {
      case RedoKind::kCreateTable: {
        POLY_ASSIGN_OR_RETURN(std::string name, d.GetString());
        POLY_ASSIGN_OR_RETURN(uint8_t table_kind, d.GetU8());
        POLY_ASSIGN_OR_RETURN(uint64_t ncols, d.GetVarint());
        Schema schema;
        for (uint64_t c = 0; c < ncols; ++c) {
          ColumnDef def;
          POLY_ASSIGN_OR_RETURN(def.name, d.GetString());
          POLY_ASSIGN_OR_RETURN(uint8_t type, d.GetU8());
          def.type = static_cast<DataType>(type);
          POLY_ASSIGN_OR_RETURN(uint8_t nullable, d.GetU8());
          def.nullable = nullable != 0;
          POLY_ASSIGN_OR_RETURN(uint8_t gko, d.GetU8());
          def.generated_key_order = gko != 0;
          schema.AddColumn(std::move(def));
        }
        if (static_cast<TableKind>(table_kind) == TableKind::kRow) {
          POLY_RETURN_IF_ERROR(db->CreateRowTable(name, std::move(schema)).status());
        } else {
          POLY_RETURN_IF_ERROR(db->CreateTable(name, std::move(schema)).status());
        }
        break;
      }
      case RedoKind::kInsert: {
        POLY_ASSIGN_OR_RETURN(uint64_t txn_id, d.GetU64());
        POLY_ASSIGN_OR_RETURN(std::string table_name, d.GetString());
        POLY_ASSIGN_OR_RETURN(uint64_t nvals, d.GetVarint());
        Row row;
        row.reserve(nvals);
        for (uint64_t i = 0; i < nvals; ++i) {
          POLY_ASSIGN_OR_RETURN(Value v, ReadValue(&d));
          row.push_back(std::move(v));
        }
        POLY_ASSIGN_OR_RETURN(AnyTable table, find_table(table_name));
        auto it = commit_ts.find(txn_id);
        uint64_t stamp = it != commit_ts.end() ? it->second : MakeTxnStamp(txn_id);
        POLY_RETURN_IF_ERROR(std::visit(
            [&](auto* t) { return t->AppendVersion(row, stamp).status(); }, table));
        break;
      }
      case RedoKind::kDelete: {
        POLY_ASSIGN_OR_RETURN(uint64_t txn_id, d.GetU64());
        POLY_ASSIGN_OR_RETURN(std::string table_name, d.GetString());
        POLY_ASSIGN_OR_RETURN(uint64_t row, d.GetU64());
        auto it = commit_ts.find(txn_id);
        if (it == commit_ts.end()) break;  // uncommitted delete: no effect
        POLY_ASSIGN_OR_RETURN(AnyTable table, find_table(table_name));
        POLY_RETURN_IF_ERROR(std::visit(
            [&](auto* t) { return t->SetDeleteStamp(row, it->second); }, table));
        break;
      }
      case RedoKind::kCommit:
        break;
    }
  }
  if (state != nullptr) *state = found;
  return Status::OK();
}

}  // namespace poly
