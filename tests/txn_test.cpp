#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>
#include <thread>

#include "common/thread_pool.h"

#include "storage/database.h"
#include "txn/redo_log.h"
#include "txn/transaction_manager.h"

namespace poly {
namespace {

Schema OrderSchema() {
  return Schema({ColumnDef("id", DataType::kInt64), ColumnDef("amount", DataType::kDouble)});
}

/// Ids of the rows of `t` visible to `view`, in row order.
std::vector<int64_t> VisibleIds(ColumnTable* t, const ReadView& view) {
  std::vector<int64_t> ids;
  ColumnTable::ReadGuard g(t);
  g.ScanVisible(view, [&](uint64_t r) { ids.push_back(g.GetValue(r, 0).AsInt()); });
  return ids;
}

TEST(TxnTest, CommitMakesRowsVisible) {
  Database db;
  TransactionManager tm;
  ColumnTable* t = *db.CreateTable("orders", OrderSchema());

  auto txn = tm.Begin();
  ASSERT_TRUE(tm.Insert(txn.get(), t, {Value::Int(1), Value::Dbl(9.5)}).ok());

  // Not visible to a concurrent reader before commit.
  EXPECT_EQ(t->Read().CountVisible(tm.AutoCommitView()), 0u);
  // Visible to itself.
  EXPECT_EQ(t->Read().CountVisible(txn->View()), 1u);

  ASSERT_TRUE(tm.Commit(txn.get()).ok());
  EXPECT_EQ(t->Read().CountVisible(tm.AutoCommitView()), 1u);
}

TEST(TxnTest, AbortHidesRowsForever) {
  Database db;
  TransactionManager tm;
  ColumnTable* t = *db.CreateTable("orders", OrderSchema());

  auto txn = tm.Begin();
  ASSERT_TRUE(tm.Insert(txn.get(), t, {Value::Int(1), Value::Dbl(1.0)}).ok());
  ASSERT_TRUE(tm.Abort(txn.get()).ok());
  ColumnTable::ReadGuard g(t);
  EXPECT_EQ(g.CountVisible(tm.AutoCommitView()), 0u);
  EXPECT_EQ(g.size(), 1u);  // version slot exists but is dead
}

// Durable before visible: a commit whose record cannot be appended or
// synced reports the error and aborts, so no reader ever sees its rows.
void ExpectFailedCommitInvisible(const char* failing_op) {
  SCOPED_TRACE(failing_op);
  Database db;
  RedoLog log;
  TransactionManager tm(&log);
  ColumnTable* t = *db.CreateTable("orders", OrderSchema());
  auto txn = tm.Begin();
  ASSERT_TRUE(tm.Insert(txn.get(), t, {Value::Int(1), Value::Dbl(1.0)}).ok());
  log.SetFaultInjector([&](const char* op) -> Status {
    if (std::string(op) == failing_op) return Status::IOError("injected failure");
    return Status::OK();
  });
  EXPECT_EQ(tm.Commit(txn.get()).code(), StatusCode::kIOError);
  EXPECT_EQ(t->Read().CountVisible(tm.AutoCommitView()), 0u);
  EXPECT_EQ(tm.Commit(txn.get()).code(), StatusCode::kInvalidArgument);  // aborted
}

TEST(TxnTest, FailedCommitAppendLeavesNothingVisible) {
  ExpectFailedCommitInvisible("append");
}

TEST(TxnTest, FailedCommitSyncLeavesNothingVisible) {
  ExpectFailedCommitInvisible("sync");
}

TEST(TxnTest, SnapshotIsolationReadersDontSeeLaterCommits) {
  Database db;
  TransactionManager tm;
  ColumnTable* t = *db.CreateTable("orders", OrderSchema());

  auto w0 = tm.Begin();
  ASSERT_TRUE(tm.Insert(w0.get(), t, {Value::Int(1), Value::Dbl(1.0)}).ok());
  ASSERT_TRUE(tm.Commit(w0.get()).ok());

  auto reader = tm.Begin();  // snapshot: sees row 1

  auto w1 = tm.Begin();
  ASSERT_TRUE(tm.Insert(w1.get(), t, {Value::Int(2), Value::Dbl(2.0)}).ok());
  ASSERT_TRUE(tm.Commit(w1.get()).ok());

  EXPECT_EQ(t->Read().CountVisible(reader->View()), 1u);
  EXPECT_EQ(t->Read().CountVisible(tm.AutoCommitView()), 2u);
}

TEST(TxnTest, DeleteVisibilityAndConflict) {
  Database db;
  TransactionManager tm;
  ColumnTable* t = *db.CreateTable("orders", OrderSchema());

  auto w0 = tm.Begin();
  ASSERT_TRUE(tm.Insert(w0.get(), t, {Value::Int(1), Value::Dbl(1.0)}).ok());
  ASSERT_TRUE(tm.Commit(w0.get()).ok());

  auto d1 = tm.Begin();
  auto d2 = tm.Begin();
  ASSERT_TRUE(tm.Delete(d1.get(), t, 0).ok());
  // Concurrent delete of the same row conflicts (first-writer-wins).
  EXPECT_TRUE(tm.Delete(d2.get(), t, 0).IsAborted());
  ASSERT_TRUE(tm.Commit(d1.get()).ok());
  ASSERT_TRUE(tm.Abort(d2.get()).ok());
  EXPECT_EQ(t->Read().CountVisible(tm.AutoCommitView()), 0u);
}

TEST(TxnTest, AbortedDeleteRestoresRow) {
  Database db;
  TransactionManager tm;
  ColumnTable* t = *db.CreateTable("orders", OrderSchema());
  auto w = tm.Begin();
  ASSERT_TRUE(tm.Insert(w.get(), t, {Value::Int(1), Value::Dbl(1.0)}).ok());
  ASSERT_TRUE(tm.Commit(w.get()).ok());

  auto d = tm.Begin();
  ASSERT_TRUE(tm.Delete(d.get(), t, 0).ok());
  ASSERT_TRUE(tm.Abort(d.get()).ok());
  EXPECT_EQ(t->Read().CountVisible(tm.AutoCommitView()), 1u);
  // Row is deletable again after the abort.
  auto d2 = tm.Begin();
  EXPECT_TRUE(tm.Delete(d2.get(), t, 0).ok());
  ASSERT_TRUE(tm.Commit(d2.get()).ok());
}

TEST(TxnTest, UpdateReplacesVersion) {
  Database db;
  TransactionManager tm;
  ColumnTable* t = *db.CreateTable("orders", OrderSchema());
  auto w = tm.Begin();
  ASSERT_TRUE(tm.Insert(w.get(), t, {Value::Int(1), Value::Dbl(1.0)}).ok());
  ASSERT_TRUE(tm.Commit(w.get()).ok());

  auto u = tm.Begin();
  ASSERT_TRUE(tm.Update(u.get(), t, 0, {Value::Int(1), Value::Dbl(99.0)}).ok());
  ASSERT_TRUE(tm.Commit(u.get()).ok());

  ReadView now = tm.AutoCommitView();
  double amount = -1;
  ColumnTable::ReadGuard g(t);
  g.ScanVisible(now, [&](uint64_t r) { amount = g.GetValue(r, 1).AsDouble(); });
  EXPECT_EQ(g.CountVisible(now), 1u);
  EXPECT_EQ(amount, 99.0);
}

TEST(TxnTest, OldestActiveSnapshotTracksReaders) {
  TransactionManager tm;
  uint64_t base = tm.CurrentTimestamp();
  auto t1 = tm.Begin();
  EXPECT_EQ(tm.OldestActiveSnapshot(), base);
  ASSERT_TRUE(tm.Commit(t1.get()).ok());
  EXPECT_GT(tm.OldestActiveSnapshot(), base);
}

TEST(TxnTest, RowTableWritesWork) {
  Database db;
  TransactionManager tm;
  RowTable* t = *db.CreateRowTable("r", OrderSchema());
  auto w = tm.Begin();
  ASSERT_TRUE(tm.Insert(w.get(), t, {Value::Int(1), Value::Dbl(5.0)}).ok());
  ASSERT_TRUE(tm.Commit(w.get()).ok());
  EXPECT_EQ(t->Read().CountVisible(tm.AutoCommitView()), 1u);
  auto d = tm.Begin();
  ASSERT_TRUE(tm.Delete(d.get(), t, 0).ok());
  ASSERT_TRUE(tm.Commit(d.get()).ok());
  EXPECT_EQ(t->Read().CountVisible(tm.AutoCommitView()), 0u);
}

TEST(TxnTest, ConcurrentWritersAllCommit) {
  Database db;
  TransactionManager tm;
  ColumnTable* t = *db.CreateTable("t", OrderSchema());
  const int kThreads = 8, kPerThread = 200;
  {
    ThreadPool pool(kThreads);
    std::atomic<int> failures{0};
    pool.ParallelFor(kThreads, [&](size_t worker) {
      for (int i = 0; i < kPerThread; ++i) {
        auto txn = tm.Begin();
        Status s = tm.Insert(txn.get(), t,
                             {Value::Int(static_cast<int64_t>(worker * 1000 + i)),
                              Value::Dbl(1.0)});
        if (!s.ok() || !tm.Commit(txn.get()).ok()) failures.fetch_add(1);
      }
    });
    EXPECT_EQ(failures.load(), 0);
  }
  EXPECT_EQ(t->Read().CountVisible(tm.AutoCommitView()),
            static_cast<uint64_t>(kThreads * kPerThread));
  // All ids distinct -> no lost or duplicated writes.
  std::set<int64_t> ids;
  ColumnTable::ReadGuard g(t);
  g.ScanVisible(tm.AutoCommitView(), [&](uint64_t r) {
    ids.insert(g.GetValue(r, 0).AsInt());
  });
  EXPECT_EQ(ids.size(), static_cast<size_t>(kThreads * kPerThread));
}

// Gated TSan regression for the epoch/chunk version store (DESIGN.md §12):
// CountVisible here races AppendVersion's growth, which used to be a real
// data race (vector push_back under readers). It now runs TSan-clean as part
// of the full-suite gate (scripts/run_tsan.sh, ctest -L tsan-full); the
// deeper oracle lives in tests/mvcc_concurrency_test.cpp.
TEST(TxnTest, ConcurrentReadersDuringWrites) {
  Database db;
  TransactionManager tm;
  ColumnTable* t = *db.CreateTable("t", OrderSchema());
  std::atomic<bool> stop{false};
  std::atomic<int> monotonic_violations{0};
  std::thread reader([&]() {
    uint64_t last = 0;
    while (!stop.load()) {
      ReadView view = tm.AutoCommitView();
      uint64_t count = t->Read().CountVisible(view);
      if (count < last) monotonic_violations.fetch_add(1);
      last = count;
    }
  });
  for (int i = 0; i < 500; ++i) {
    auto txn = tm.Begin();
    ASSERT_TRUE(tm.Insert(txn.get(), t, {Value::Int(i), Value::Dbl(1.0)}).ok());
    ASSERT_TRUE(tm.Commit(txn.get()).ok());
  }
  stop.store(true);
  reader.join();
  // Insert-only history: visible count must never decrease.
  EXPECT_EQ(monotonic_violations.load(), 0);
  EXPECT_EQ(t->Read().CountVisible(tm.AutoCommitView()), 500u);
}

TEST(RecoveryTest, ReplayRebuildsCommittedState) {
  RedoLog log;
  Database db;
  TransactionManager tm(&log);
  ASSERT_TRUE(tm.LogCreateTable("orders", OrderSchema()).ok());
  ColumnTable* t = *db.CreateTable("orders", OrderSchema());

  auto t1 = tm.Begin();
  ASSERT_TRUE(tm.Insert(t1.get(), t, {Value::Int(1), Value::Dbl(1.0)}).ok());
  ASSERT_TRUE(tm.Insert(t1.get(), t, {Value::Int(2), Value::Dbl(2.0)}).ok());
  ASSERT_TRUE(tm.Commit(t1.get()).ok());

  auto t2 = tm.Begin();  // uncommitted: must not survive recovery
  ASSERT_TRUE(tm.Insert(t2.get(), t, {Value::Int(3), Value::Dbl(3.0)}).ok());

  auto t3 = tm.Begin();
  ASSERT_TRUE(tm.Delete(t3.get(), t, 0).ok());
  ASSERT_TRUE(tm.Commit(t3.get()).ok());

  std::vector<std::string> records;
  ASSERT_TRUE(log.ForEach([&](const std::string& r) {
    records.push_back(r);
    return Status::OK();
  }).ok());

  Database recovered;
  ASSERT_TRUE(TransactionManager::Recover(records, &recovered).ok());
  ColumnTable* rt = *recovered.GetTable("orders");
  ReadView latest = LatestCommittedView();
  ColumnTable::ReadGuard g(rt);
  EXPECT_EQ(g.CountVisible(latest), 1u);
  int64_t id = -1;
  g.ScanVisible(latest, [&](uint64_t r) { id = g.GetValue(r, 0).AsInt(); });
  EXPECT_EQ(id, 2);
}

TEST(RecoveryTest, FileBackedLogSurvivesReopen) {
  // Per-process name: concurrent test binaries must not share the file.
  std::string path =
      testing::TempDir() + "/poly_redo_test." + std::to_string(getpid()) + ".log";
  std::remove(path.c_str());
  {
    auto log = RedoLog::OpenFile(path);
    ASSERT_TRUE(log.ok());
    Database db;
    TransactionManager tm(log->get());
    ASSERT_TRUE(tm.LogCreateTable("t", OrderSchema()).ok());
    ColumnTable* t = *db.CreateTable("t", OrderSchema());
    auto txn = tm.Begin();
    ASSERT_TRUE(tm.Insert(txn.get(), t, {Value::Int(7), Value::Dbl(7.0)}).ok());
    ASSERT_TRUE(tm.Commit(txn.get()).ok());
  }
  auto records = RedoLog::ReadFile(path);
  ASSERT_TRUE(records.ok());
  Database recovered;
  ASSERT_TRUE(TransactionManager::Recover(*records, &recovered).ok());
  ColumnTable* t = *recovered.GetTable("t");
  EXPECT_EQ(t->Read().CountVisible(LatestCommittedView()), 1u);

  // ForEach on a file-backed log replays the file, not an in-memory copy:
  // a reopened log sees the records the first one wrote.
  auto reopened = RedoLog::OpenFile(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->num_records(), 0u);  // counts this object's appends
  std::vector<std::string> replayed;
  ASSERT_TRUE((*reopened)
                  ->ForEach([&](const std::string& r) {
                    replayed.push_back(r);
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(replayed, *records);
  std::remove(path.c_str());
}

// A write that never reaches the file is not acknowledged: on a full disk
// (/dev/full fails every flush with ENOSPC) Append and Commit return
// IOError and the log records nothing.
TEST(RecoveryTest, FullDiskFailsAppendAndCommit) {
  if (access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no writable /dev/full";
  auto log = RedoLog::OpenFile("/dev/full");
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ((*log)->Append("record").code(), StatusCode::kIOError);
  EXPECT_EQ((*log)->num_records(), 0u);

  Database db;
  TransactionManager tm(log->get());
  ColumnTable* t = *db.CreateTable("t", OrderSchema());
  auto txn = tm.Begin();
  EXPECT_EQ(tm.Insert(txn.get(), t, {Value::Int(1), Value::Dbl(1.0)}).code(),
            StatusCode::kIOError);
  EXPECT_EQ(tm.Commit(txn.get()).code(), StatusCode::kIOError);
  EXPECT_EQ((*log)->num_records(), 0u);
}

// ---------- The redo log file: frames, torn tails, failed syncs ----------

/// Per-process log path under gtest's temp root (concurrent test binaries
/// must not share a file), removed before and after the test.
struct TempLogFile {
  explicit TempLogFile(const std::string& name)
      : path(testing::TempDir() + "/" + name + "." + std::to_string(getpid()) + ".log") {
    std::remove(path.c_str());
  }
  ~TempLogFile() { std::remove(path.c_str()); }
  std::string path;
};

/// Ids visible in table "t" after recovering the log file at `path` into a
/// fresh database.
std::vector<int64_t> RecoveredIds(const std::string& path) {
  auto records = RedoLog::ReadFile(path);
  EXPECT_TRUE(records.ok()) << records.status().ToString();
  if (!records.ok()) return {};
  Database db;
  Status recovered = TransactionManager::Recover(*records, &db);
  EXPECT_TRUE(recovered.ok()) << recovered.ToString();
  auto t = db.GetTable("t");
  return t.ok() ? VisibleIds(*t, LatestCommittedView()) : std::vector<int64_t>{};
}

/// A file-backed log with table "t" created and row 1 committed (synced).
struct LoggedTable {
  explicit LoggedTable(const std::string& path) {
    auto opened = RedoLog::OpenFile(path);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    log = std::move(*opened);
    tm = std::make_unique<TransactionManager>(log.get());
    EXPECT_TRUE(tm->LogCreateTable("t", OrderSchema()).ok());
    t = *db.CreateTable("t", OrderSchema());
    auto txn = tm->Begin();
    EXPECT_TRUE(tm->Insert(txn.get(), t, {Value::Int(1), Value::Dbl(1.0)}).ok());
    EXPECT_TRUE(tm->Commit(txn.get()).ok());
  }
  /// Fails every later fault-hook call whose op is in `ops`.
  void FailOps(std::set<std::string> ops) {
    log->SetFaultInjector([ops = std::move(ops)](const char* op) -> Status {
      if (ops.count(op) > 0) return Status::IOError("injected failure");
      return Status::OK();
    });
  }
  std::vector<int64_t> Visible() const { return VisibleIds(t, tm->AutoCommitView()); }

  std::unique_ptr<RedoLog> log;
  Database db;
  std::unique_ptr<TransactionManager> tm;
  ColumnTable* t = nullptr;
};

// Three lives on one log file. Life 1 commits row 1 as txn 1 and leaves
// txn 2's insert of row 2 uncommitted. Life 2 starts a manager from the
// recovered state: a reader sees the recovered row, and a writer's commit
// of row 3 gets a transaction id and a timestamp above every one in the
// log. Life 3 then recovers exactly the two acknowledged writes. A manager
// that restarted its clock and ids at 1 saw 0 rows in life 2, logged the
// write's commit as txn 2, and so made life 1's uncommitted row 2 visible
// in life 3.
TEST(RecoveryTest, ManagerFromRecoveredStateWritesSafely) {
  TempLogFile file("poly_three_lives");
  uint64_t life1_commit_ts = 0;
  {
    LoggedTable life1(file.path);  // row 1, committed as txn 1
    auto uncommitted = life1.tm->Begin();
    EXPECT_EQ(uncommitted->id(), 2u);
    ASSERT_TRUE(life1.tm->Insert(uncommitted.get(), life1.t,
                                 {Value::Int(2), Value::Dbl(2.0)}).ok());
    life1_commit_ts = life1.tm->CurrentTimestamp();
  }
  {
    auto records = RedoLog::ReadFile(file.path);
    ASSERT_TRUE(records.ok());
    Database db;
    RecoveredState state;
    ASSERT_TRUE(TransactionManager::Recover(*records, &db, &state).ok());
    EXPECT_EQ(state.last_commit_ts, life1_commit_ts);
    EXPECT_EQ(state.last_txn_id, 2u);  // the uncommitted txn counts
    auto log = RedoLog::OpenFile(file.path);
    ASSERT_TRUE(log.ok());
    TransactionManager tm(log->get(), state);
    ColumnTable* t = *db.GetTable("t");
    EXPECT_EQ(VisibleIds(t, tm.AutoCommitView()), std::vector<int64_t>{1});
    auto reader = tm.Begin();
    EXPECT_EQ(reader->id(), 3u);
    EXPECT_EQ(VisibleIds(t, reader->View()), std::vector<int64_t>{1});
    ASSERT_TRUE(tm.Commit(reader.get()).ok());
    auto txn = tm.Begin();
    EXPECT_EQ(txn->id(), 4u);
    ASSERT_TRUE(tm.Insert(txn.get(), t, {Value::Int(3), Value::Dbl(3.0)}).ok());
    ASSERT_TRUE(tm.Commit(txn.get()).ok());
    EXPECT_GT(txn->commit_ts(), life1_commit_ts);
    EXPECT_EQ(VisibleIds(t, tm.AutoCommitView()), (std::vector<int64_t>{1, 3}));
  }
  EXPECT_EQ(RecoveredIds(file.path), (std::vector<int64_t>{1, 3}));
}

// A row table's create record carries its kind: recovery rebuilds a row
// table, and replays its inserts and deletes into it.
TEST(RecoveryTest, RowTableRecoversAsRowTable) {
  RedoLog log;
  Database db;
  TransactionManager tm(&log);
  ASSERT_TRUE(tm.LogCreateTable("rt", OrderSchema(), TableKind::kRow).ok());
  RowTable* rt = *db.CreateRowTable("rt", OrderSchema());
  auto ins = tm.Begin();
  ASSERT_TRUE(tm.Insert(ins.get(), rt, {Value::Int(1), Value::Dbl(1.0)}).ok());
  ASSERT_TRUE(tm.Insert(ins.get(), rt, {Value::Int(2), Value::Dbl(2.0)}).ok());
  ASSERT_TRUE(tm.Commit(ins.get()).ok());
  auto del = tm.Begin();
  ASSERT_TRUE(tm.Delete(del.get(), rt, 0).ok());
  ASSERT_TRUE(tm.Commit(del.get()).ok());

  std::vector<std::string> records;
  ASSERT_TRUE(log.ForEach([&](const std::string& r) {
    records.push_back(r);
    return Status::OK();
  }).ok());
  Database recovered;
  ASSERT_TRUE(TransactionManager::Recover(records, &recovered).ok());
  EXPECT_FALSE(recovered.GetTable("rt").ok());
  auto back = recovered.GetRowTable("rt");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  RowTable::ReadGuard g(*back);
  EXPECT_EQ(g.size(), 2u);
  std::vector<int64_t> ids;
  g.ScanVisible(LatestCommittedView(),
                [&](uint64_t r) { ids.push_back(g.GetValue(r, 0).AsInt()); });
  EXPECT_EQ(ids, std::vector<int64_t>{2});
}

/// Appends raw bytes to a file.
void AppendBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
}

/// Flips every bit of the byte at `pos`.
void FlipByte(const std::string& path, long pos) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, pos, SEEK_SET);
  int c = std::fgetc(f);
  std::fseek(f, pos, SEEK_SET);
  std::fputc(c ^ 0xFF, f);
  std::fclose(f);
}

/// A frame header ([u32 length][u32 CRC-32C]) promising `len` payload bytes.
std::string FrameHeader(uint32_t len) {
  std::string h(8, '\0');
  std::memcpy(h.data(), &len, sizeof(len));
  return h;
}

void WriteRecords(const std::string& path, const std::vector<std::string>& records) {
  auto log = RedoLog::OpenFile(path);
  ASSERT_TRUE(log.ok());
  for (const auto& r : records) ASSERT_TRUE((*log)->Append(r).ok());
  ASSERT_TRUE((*log)->Sync().ok());
}

// A transaction whose write never reached the log can only abort, so what
// was visible is what recovery rebuilds. Memory now holds a row slot the
// log lacks and recovery numbers rows by replay order, so every later
// commit fails too until the database is recovered.
TEST(RecoveryTest, UnloggedInsertCannotCommit) {
  TempLogFile file("poly_redo_unlogged");
  LoggedTable lt(file.path);
  auto txn = lt.tm->Begin();
  ASSERT_TRUE(lt.tm->Insert(txn.get(), lt.t, {Value::Int(2), Value::Dbl(2.0)}).ok());
  lt.FailOps({"append"});
  EXPECT_EQ(lt.tm->Insert(txn.get(), lt.t, {Value::Int(3), Value::Dbl(3.0)}).code(),
            StatusCode::kIOError);
  lt.log->SetFaultInjector(nullptr);
  EXPECT_EQ(lt.tm->Commit(txn.get()).code(), StatusCode::kIOError);
  EXPECT_EQ(lt.Visible(), (std::vector<int64_t>{1}));
  EXPECT_EQ(RecoveredIds(file.path), lt.Visible());

  auto later = lt.tm->Begin();
  EXPECT_EQ(lt.tm->Insert(later.get(), lt.t, {Value::Int(4), Value::Dbl(4.0)}).code(),
            StatusCode::kIOError);
  EXPECT_EQ(lt.tm->Commit(later.get()).code(), StatusCode::kIOError);
}

// A commit whose sync failed is never recovered: the log cuts itself back to
// its last synced byte, commit record included.
TEST(RecoveryTest, FailedSyncCommitIsAbsentAfterRecovery) {
  TempLogFile file("poly_redo_failed_sync");
  LoggedTable lt(file.path);
  auto txn = lt.tm->Begin();
  ASSERT_TRUE(lt.tm->Insert(txn.get(), lt.t, {Value::Int(2), Value::Dbl(2.0)}).ok());
  lt.FailOps({"sync"});
  EXPECT_EQ(lt.tm->Commit(txn.get()).code(), StatusCode::kIOError);
  EXPECT_EQ(lt.Visible(), (std::vector<int64_t>{1}));
  EXPECT_EQ(RecoveredIds(file.path), (std::vector<int64_t>{1}));
}

// A failed fsync cannot be retried, so the log refuses every later Append
// and Sync until it is reopened. The cut also removed the records of a
// transaction that inserted before the failure: it cannot commit.
TEST(RecoveryTest, FailedSyncRefusesWritesUntilReopen) {
  TempLogFile file("poly_redo_refuse");
  LoggedTable lt(file.path);
  auto synced = RedoLog::ReadFile(file.path);
  ASSERT_TRUE(synced.ok());
  auto earlier = lt.tm->Begin();
  ASSERT_TRUE(lt.tm->Insert(earlier.get(), lt.t, {Value::Int(7), Value::Dbl(7.0)}).ok());
  auto txn = lt.tm->Begin();
  ASSERT_TRUE(lt.tm->Insert(txn.get(), lt.t, {Value::Int(2), Value::Dbl(2.0)}).ok());
  lt.FailOps({"sync"});
  EXPECT_EQ(lt.tm->Commit(txn.get()).code(), StatusCode::kIOError);
  lt.log->SetFaultInjector(nullptr);
  EXPECT_EQ(lt.log->Append("more").code(), StatusCode::kIOError);
  EXPECT_EQ(lt.log->Sync().code(), StatusCode::kIOError);
  EXPECT_EQ(lt.tm->Commit(earlier.get()).code(), StatusCode::kIOError);
  EXPECT_EQ(lt.Visible(), (std::vector<int64_t>{1}));
  EXPECT_EQ(RedoLog::ReadFile(file.path).value(), *synced);

  lt.log.reset();  // reopening clears the refusal
  auto reopened = RedoLog::OpenFile(file.path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE((*reopened)->Append("after").ok());
  EXPECT_TRUE((*reopened)->Sync().ok());
  EXPECT_EQ(RedoLog::ReadFile(file.path)->size(), synced->size() + 1);
}

// If the cut after a failed sync fails as well, the unsynced records stay in
// the file: the commit returned an error, yet recovery brings it back. That
// one commit is in doubt (DESIGN.md §9); the log still refuses writes.
TEST(RecoveryTest, FailedCutAfterFailedSyncLeavesCommitInDoubt) {
  TempLogFile file("poly_redo_in_doubt");
  LoggedTable lt(file.path);
  auto txn = lt.tm->Begin();
  ASSERT_TRUE(lt.tm->Insert(txn.get(), lt.t, {Value::Int(2), Value::Dbl(2.0)}).ok());
  lt.FailOps({"sync", "truncate"});
  EXPECT_EQ(lt.tm->Commit(txn.get()).code(), StatusCode::kIOError);
  EXPECT_EQ(lt.Visible(), (std::vector<int64_t>{1}));
  EXPECT_EQ(lt.log->Append("more").code(), StatusCode::kIOError);
  EXPECT_EQ(RecoveredIds(file.path), (std::vector<int64_t>{1, 2}));
}

// A torn tail is cut at OpenFile, so an append after it is still reachable
// after a second reopen (crash -> recover -> append -> crash).
TEST(RecoveryTest, TornTailIsCutAtOpenFile) {
  TempLogFile file("poly_redo_torn");
  WriteRecords(file.path, {"alpha", "beta"});
  AppendBytes(file.path, FrameHeader(1000) + "xx");  // crash mid-append
  EXPECT_EQ(RedoLog::ReadFile(file.path).value(),
            (std::vector<std::string>{"alpha", "beta"}));
  WriteRecords(file.path, {"gamma"});
  EXPECT_EQ(RedoLog::ReadFile(file.path).value(),
            (std::vector<std::string>{"alpha", "beta", "gamma"}));
}

// A length field is checked against the bytes left before anything is
// allocated: one that runs past end of file is a torn tail.
TEST(RecoveryTest, LengthPastEndOfFileIsTornTail) {
  TempLogFile file("poly_redo_huge_len");
  WriteRecords(file.path, {"alpha"});
  AppendBytes(file.path, FrameHeader(0x7FFFFFF0) + "xxxx");
  EXPECT_EQ(RedoLog::ReadFile(file.path).value(), (std::vector<std::string>{"alpha"}));
  ASSERT_TRUE(RedoLog::OpenFile(file.path).ok());
  EXPECT_EQ(std::filesystem::file_size(file.path), 8u + 5u);  // the tail was cut
}

// A checksum failure in the last frame is a torn tail; in an earlier frame
// it is Corruption, for ReadFile and OpenFile alike.
TEST(RecoveryTest, ChecksumFailureIsTornTailOnlyInLastFrame) {
  TempLogFile file("poly_redo_crc");
  WriteRecords(file.path, {"alpha", "beta"});
  FlipByte(file.path, 8 + 5 + 8);  // first payload byte of "beta"
  EXPECT_EQ(RedoLog::ReadFile(file.path).value(), (std::vector<std::string>{"alpha"}));

  std::remove(file.path.c_str());
  WriteRecords(file.path, {"alpha", "beta"});
  FlipByte(file.path, 8);  // first payload byte of "alpha"
  EXPECT_EQ(RedoLog::ReadFile(file.path).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(RedoLog::OpenFile(file.path).status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace poly
