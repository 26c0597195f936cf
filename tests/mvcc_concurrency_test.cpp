// Reader-safe MVCC storage (DESIGN.md §12): deterministic unit tests for
// the epoch/chunk VersionStore and the chunked VALUE storage built on the
// same scheme, plus two seeded concurrent oracle harnesses — N writer
// threads vs M snapshot readers, where every reader observation must match
// a serial replay:
//   MvccOracle       — (snapshot_ts, visible_count) count equality
//   MvccValueOracle  — full visible-VALUE equality (sorted id sets) against
//                      ColumnTable, RowTable, and FlexibleTable
// Everything is seeded: a failure prints its seed and replays with
//   POLY_MVCC_SEED=17 ./tests/poly_tests --gtest_filter='MvccValueOracle.*'
// (same pattern as chaos_test.cpp). Runs under `ctest -L concurrency` and
// must stay TSan-clean — this file IS the regression gate for the old
// "version-vector growth is not reader-safe" finding AND for its §12.5
// sequel, "value reads during delta growth are not reader-safe", which the
// MvccValues suite (formerly disabled known-gap tests) now proves closed.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/random.h"
#include "docstore/flexible_table.h"
#include "storage/chunked_vector.h"
#include "storage/database.h"
#include "storage/epoch_gc.h"
#include "storage/row_table.h"
#include "storage/version_store.h"
#include "txn/transaction_manager.h"

namespace poly {
namespace {

// ---------------------------------------------------------------------------
// Deterministic single-threaded unit tests for the chunk directory.
// ---------------------------------------------------------------------------

Schema OrderSchema() {
  return Schema({ColumnDef("id", DataType::kInt64),
                 ColumnDef("amount", DataType::kDouble)});
}

TEST(VersionStore, ChunkBoundaryAppend) {
  EpochGC gc;
  VersionStore vs(&gc, /*chunk_rows=*/4);
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(vs.Append(/*cts=*/100 + i, /*dts=*/0), i);
  }
  EpochPin pin(&gc);
  VersionStore::Snapshot snap = vs.SnapUnderPin();
  EXPECT_EQ(snap.size(), 10u);
  EXPECT_EQ(vs.num_chunks(), 3u);  // 4 + 4 + 2 rows
  // Values survive the chunk boundaries, in one snapshot and in a fresh
  // snapshot per read.
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(snap.cts(i), 100 + i);
    EXPECT_EQ(snap.dts(i), 0u);
    EXPECT_EQ(vs.SnapUnderPin().cts(i), 100 + i);
  }
}

TEST(VersionStore, DirectoryGrowthPreservesStampsAndReclaims) {
  EpochGC gc;
  VersionStore vs(&gc, /*chunk_rows=*/4);
  // Initial directory: 4 chunk slots * 4 rows = 16 rows; push well past two
  // doublings.
  const uint64_t kRows = 4 * 4 * 8;
  for (uint64_t i = 0; i < kRows; ++i) vs.Append(i + 1, 0);
  EXPECT_GE(vs.directory_capacity(), kRows / 4);
  {
    EpochPin pin(&gc);
    VersionStore::Snapshot snap = vs.SnapUnderPin();
    for (uint64_t i = 0; i < kRows; ++i) EXPECT_EQ(snap.cts(i), i + 1);
  }
  // No reader was pinned across growth, so every retired directory has been
  // reclaimed already (Grow retires then immediately reclaims).
  EXPECT_EQ(gc.retired_count(), 0u);
}

TEST(VersionStore, WatermarkPublicationOrdering) {
  EpochGC gc;
  VersionStore vs(&gc, /*chunk_rows=*/4);
  vs.Append(7, 0);
  EpochPin pin(&gc);
  VersionStore::Snapshot before = vs.SnapUnderPin();
  EXPECT_EQ(before.size(), 1u);
  vs.Append(8, 0);
  // A snapshot taken before the append keeps its frozen watermark; a fresh
  // snapshot sees the published row.
  EXPECT_EQ(before.size(), 1u);
  VersionStore::Snapshot after = vs.SnapUnderPin();
  EXPECT_EQ(after.size(), 2u);
  EXPECT_EQ(after.cts(1), 8u);
}

// Vacuum renumbers rows by publishing a fresh TableState that holds a new
// VersionStore, and retires the old generation whole: stamps, values and
// directories together.
TEST(VersionStore, EpochRetireReclaimSequencing) {
  ColumnTable t("t", OrderSchema());
  for (uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(t.AppendVersion({Value::Int(i), Value::Dbl(1.0)}, 10 + i).ok());
    if (i % 2) {
      ASSERT_TRUE(t.SetDeleteStamp(i, 99).ok());
    }
  }

  auto* pinned = new ColumnTable::ReadGuard(&t);  // reader in flight
  EXPECT_EQ(pinned->size(), 8u);

  // Vacuum drops the odd rows (deleted at 99, below the watermark) and
  // renumbers the rest.
  EXPECT_EQ(t.Vacuum(/*watermark=*/100), 4u);

  // The old generation is retired but NOT freed: the pinned guard still
  // reads the pre-vacuum stamps.
  EXPECT_GE(t.retired_count(), 1u);
  EXPECT_EQ(t.ReclaimRetired(), 0u);  // reclamation never frees pinned chunks
  EXPECT_GE(t.retired_count(), 1u);
  EXPECT_EQ(pinned->size(), 8u);
  for (uint64_t i = 0; i < 8; ++i) EXPECT_EQ(pinned->cts(i), 10 + i);

  // New readers see the vacuumed, renumbered history immediately.
  {
    ColumnTable::ReadGuard fresh(&t);
    EXPECT_EQ(fresh.size(), 4u);
    EXPECT_EQ(fresh.cts(1), 12u);
  }

  // Unpin; now the retired epoch is past every pinned epoch and frees run.
  delete pinned;
  EXPECT_GE(t.ReclaimRetired(), 1u);
  EXPECT_EQ(t.retired_count(), 0u);
}

TEST(VersionStore, ReclaimNeverFreesChunkPinnedAcrossManyRetires) {
  ColumnTable t("t", OrderSchema());
  for (uint64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(t.AppendVersion({Value::Int(i), Value::Dbl(1.0)}, i + 1).ok());
  }
  ColumnTable::ReadGuard g(&t);
  // Pile up several generations of retired memory under the live pin: each
  // round appends a row, deletes the first one and vacuums it away, so every
  // round renumbers the rows into a new generation.
  for (int round = 0; round < 5; ++round) {
    uint64_t ts = 1000 * (round + 1);
    ASSERT_TRUE(t.AppendVersion({Value::Int(100 + round), Value::Dbl(1.0)}, ts).ok());
    ASSERT_TRUE(t.SetDeleteStamp(0, ts + 1).ok());
    ASSERT_EQ(t.Vacuum(/*watermark=*/ts + 1), 1u);
    t.ReclaimRetired();
  }
  // Nothing retired under the pin was freed; the pinned generation still
  // answers with its original stamps (ASan would flag a freed read).
  EXPECT_GE(t.retired_count(), 5u);
  ASSERT_EQ(g.size(), 6u);
  for (uint64_t i = 0; i < 6; ++i) EXPECT_EQ(g.cts(i), i + 1);
  EXPECT_EQ(ColumnTable::ReadGuard(&t).cts(0), 6u);
}

TEST(VersionStore, WriterStoresVisibleThroughGuards) {
  EpochGC gc;
  VersionStore vs(&gc, /*chunk_rows=*/4);
  uint64_t r = vs.Append(kTxnBit | 5, 0);
  EXPECT_EQ(vs.WriterLoadCts(r), kTxnBit | 5);
  vs.WriterStoreCts(r, 42);  // commit resolution
  vs.WriterStoreDts(r, 77);
  EpochPin pin(&gc);
  VersionStore::Snapshot g = vs.SnapUnderPin();
  EXPECT_EQ(g.cts(r), 42u);
  EXPECT_EQ(g.dts(r), 77u);
  EXPECT_EQ(vs.WriterLoadDts(r), 77u);
}

// ---------------------------------------------------------------------------
// Concurrent-visibility oracle harness.
// ---------------------------------------------------------------------------

struct CommitRecord {
  uint64_t commit_ts;
  int64_t delta;  // net visible-row change: inserts - deletes
};

struct ReaderSample {
  uint64_t snapshot_ts;
  uint64_t count;
};

/// One seeded oracle run: kWriters writer threads issue insert/update/delete
/// transactions through the TransactionManager while kReaders snapshot
/// readers hammer CountVisible. Afterward a serial replay — the sorted
/// (commit_ts, delta) log — predicts the exact visible count for every
/// snapshot timestamp any reader observed.
void RunMvccOracle(uint64_t seed, bool with_deletes) {
  SCOPED_TRACE("mvcc seed " + std::to_string(seed) +
               (with_deletes ? " mixed" : " insert-only") +
               " (replay: POLY_MVCC_SEED=" + std::to_string(seed) + ")");
  Database db;
  TransactionManager tm;
  ColumnTable* t = *db.CreateTable("t", OrderSchema());

  constexpr int kWriters = 3;
  constexpr int kReaders = 2;
  constexpr int kTxnsPerWriter = 60;

  std::atomic<int> writers_done{0};
  std::vector<std::vector<CommitRecord>> commits(kWriters);
  std::vector<std::vector<ReaderSample>> samples(kReaders);
  std::vector<std::thread> threads;

  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w]() {
      Random rng(Random::Mix(seed, 0x11 + w));
      std::vector<uint64_t> owned;  // committed live rows this writer owns
      for (int i = 0; i < kTxnsPerWriter; ++i) {
        auto txn = tm.Begin();
        int64_t delta = 0;
        std::vector<uint64_t> inserted;
        std::vector<size_t> deleted_idx;
        // Deletes/updates only target rows this writer inserted and
        // committed, so write-write conflicts cannot abort a transaction
        // the oracle expects to commit.
        int op = (with_deletes && !owned.empty()) ? static_cast<int>(rng.Uniform(3)) : 0;
        if (op == 0) {  // insert 1..3 rows
          int k = 1 + static_cast<int>(rng.Uniform(3));
          for (int j = 0; j < k; ++j) {
            ASSERT_TRUE(tm.Insert(txn.get(), t,
                                  {Value::Int(static_cast<int64_t>(w) * 1000000 + i),
                                   Value::Dbl(1.0)})
                            .ok());
            inserted.push_back(txn->last_write_row());
            ++delta;
          }
        } else if (op == 1) {  // delete one owned row
          size_t pick = rng.Uniform(owned.size());
          ASSERT_TRUE(tm.Delete(txn.get(), t, owned[pick]).ok());
          deleted_idx.push_back(pick);
          --delta;
        } else {  // update = delete old + insert new
          size_t pick = rng.Uniform(owned.size());
          ASSERT_TRUE(tm.Delete(txn.get(), t, owned[pick]).ok());
          deleted_idx.push_back(pick);
          ASSERT_TRUE(tm.Insert(txn.get(), t,
                                {Value::Int(static_cast<int64_t>(w) * 1000000 + i),
                                 Value::Dbl(2.0)})
                          .ok());
          inserted.push_back(txn->last_write_row());
        }
        if (rng.Bernoulli(0.12)) {  // exercise abort (ClearDeleteStamp path)
          ASSERT_TRUE(tm.Abort(txn.get()).ok());
          continue;  // no oracle entry, owned set unchanged
        }
        ASSERT_TRUE(tm.Commit(txn.get()).ok());
        commits[w].push_back({txn->commit_ts(), delta});
        for (size_t idx : deleted_idx) {
          owned[idx] = owned.back();
          owned.pop_back();
        }
        owned.insert(owned.end(), inserted.begin(), inserted.end());
      }
      writers_done.fetch_add(1, std::memory_order_release);
    });
  }

  for (int rd = 0; rd < kReaders; ++rd) {
    threads.emplace_back([&, rd]() {
      auto& out = samples[rd];
      while (writers_done.load(std::memory_order_acquire) < kWriters) {
        ReadView v = tm.AutoCommitView();
        out.push_back({v.snapshot_ts, t->Read().CountVisible(v)});
      }
      // One final sample after all writers finished.
      ReadView v = tm.AutoCommitView();
      out.push_back({v.snapshot_ts, t->Read().CountVisible(v)});
    });
  }

  for (auto& th : threads) th.join();

  // Serial replay oracle: prefix-sum the commit log by timestamp.
  std::map<uint64_t, int64_t> by_ts;
  for (const auto& wc : commits) {
    for (const CommitRecord& c : wc) by_ts[c.commit_ts] += c.delta;
  }
  std::vector<std::pair<uint64_t, uint64_t>> prefix;  // (ts, count at ts)
  int64_t running = 0;
  for (const auto& [ts, d] : by_ts) {
    running += d;
    ASSERT_GE(running, 0);
    prefix.emplace_back(ts, static_cast<uint64_t>(running));
  }
  auto expected_at = [&](uint64_t s) -> uint64_t {
    uint64_t e = 0;
    for (const auto& [ts, cnt] : prefix) {
      if (ts <= s) e = cnt;
      else break;
    }
    return e;
  };

  for (int rd = 0; rd < kReaders; ++rd) {
    uint64_t last_s = 0;
    uint64_t last_c = 0;
    for (const ReaderSample& smp : samples[rd]) {
      // Snapshot timestamps are non-decreasing within one reader, and in an
      // insert-only history the counts must be monotone too.
      ASSERT_GE(smp.snapshot_ts, last_s) << "reader " << rd;
      if (!with_deletes) {
        ASSERT_GE(smp.count, last_c)
            << "reader " << rd << " at snapshot " << smp.snapshot_ts;
      }
      ASSERT_EQ(smp.count, expected_at(smp.snapshot_ts))
          << "reader " << rd << " at snapshot " << smp.snapshot_ts
          << " (oracle mismatch)";
      last_s = smp.snapshot_ts;
      last_c = smp.count;
    }
    ASSERT_FALSE(samples[rd].empty());
    // The final sample ran after every commit: it must equal the full replay.
    EXPECT_EQ(samples[rd].back().count,
              prefix.empty() ? 0u : prefix.back().second);
  }
}

uint64_t kOracleSeeds() {
  return 50;  // acceptance: the oracle passes 50 seeds
}

TEST(MvccOracle, MixedWorkloadMatchesSerialReplay) {
  if (const char* env = std::getenv("POLY_MVCC_SEED")) {
    RunMvccOracle(std::strtoull(env, nullptr, 10), /*with_deletes=*/true);
    return;
  }
  for (uint64_t seed = 1; seed <= kOracleSeeds(); ++seed) {
    RunMvccOracle(seed, /*with_deletes=*/true);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(MvccOracle, InsertOnlyCountsMonotoneAndExact) {
  for (uint64_t seed = 101; seed <= 108; ++seed) {
    RunMvccOracle(seed, /*with_deletes=*/false);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Vacuum under fire: readers hammer CountVisible while the single writer
// thread inserts, deletes, and vacuums in a loop. The retired version
// chunks must stay alive under every pinned guard (DESIGN.md §12.4) — this
// is the test that makes truncation/merge reclamation a gated property
// rather than a comment.
TEST(MvccOracle, CountVisibleSafeDuringVacuum) {
  Database db;
  TransactionManager tm;
  ColumnTable* t = *db.CreateTable("t", OrderSchema());
  constexpr int kRounds = 40;
  constexpr int kRowsPerRound = 16;

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int rd = 0; rd < 3; ++rd) {
    readers.emplace_back([&]() {
      while (!stop.load(std::memory_order_acquire)) {
        ReadView v = tm.AutoCommitView();
        uint64_t c = t->Read().CountVisible(v);
        // Every round fully deletes what it inserted, so a reader can never
        // see more than one round's rows alive.
        ASSERT_LE(c, static_cast<uint64_t>(kRowsPerRound));
      }
    });
  }

  for (int round = 0; round < kRounds; ++round) {
    std::vector<uint64_t> rows;
    auto ins = tm.Begin();
    for (int i = 0; i < kRowsPerRound; ++i) {
      ASSERT_TRUE(tm.Insert(ins.get(), t, {Value::Int(i), Value::Dbl(1.0)}).ok());
      rows.push_back(ins->last_write_row());
    }
    ASSERT_TRUE(tm.Commit(ins.get()).ok());
    auto del = tm.Begin();
    for (uint64_t r : rows) ASSERT_TRUE(tm.Delete(del.get(), t, r).ok());
    ASSERT_TRUE(tm.Commit(del.get()).ok());
    // No registered snapshots are active (readers use auto-commit views), so
    // every deleted version is dead to the watermark and vacuums away while
    // readers stay pinned on the old chunks.
    ASSERT_EQ(t->Vacuum(tm.OldestActiveSnapshot()),
              static_cast<uint64_t>(kRowsPerRound));
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  EXPECT_EQ(t->Read().CountVisible(tm.AutoCommitView()), 0u);
  EXPECT_EQ(t->Read().size(), 0u);
}

// RowTable shares the same VersionStore, so its latch-free count path gets
// the same guarantee the ColumnTable regression covers.
TEST(MvccOracle, RowTableCountVisibleDuringWrites) {
  Database db;
  TransactionManager tm;
  RowTable* t = *db.CreateRowTable("r", OrderSchema());
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::thread reader([&]() {
    uint64_t last = 0;
    while (!stop.load(std::memory_order_acquire)) {
      ReadView v = tm.AutoCommitView();
      uint64_t c = t->Read().CountVisible(v);
      if (c < last) violations.fetch_add(1);
      last = c;
    }
  });
  for (int i = 0; i < 400; ++i) {
    auto txn = tm.Begin();
    ASSERT_TRUE(tm.Insert(txn.get(), t, {Value::Int(i), Value::Dbl(1.0)}).ok());
    ASSERT_TRUE(tm.Commit(txn.get()).ok());
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(t->Read().CountVisible(tm.AutoCommitView()), 400u);
}

// FlexibleTable::NumRecords is CountVisible underneath — safe against
// concurrent schema-extending inserts (writers still caller-serialized).
TEST(MvccOracle, FlexibleTableNumRecordsDuringInserts) {
  Database db;
  TransactionManager tm;
  ColumnTable* ct = *db.CreateTable("flex", Schema(std::vector<ColumnDef>{}));
  FlexibleTable flex(&tm, ct);
  std::atomic<bool> stop{false};
  std::thread reader([&]() {
    uint64_t last = 0;
    while (!stop.load(std::memory_order_acquire)) {
      uint64_t c = flex.NumRecords();
      ASSERT_GE(c, last);
      last = c;
    }
  });
  for (int i = 0; i < 150; ++i) {
    // Every 10th record introduces a fresh attribute: AddColumn growth runs
    // concurrently with the reader's stamp-only count.
    std::map<std::string, Value> rec{{"a", Value::Int(i)}};
    if (i % 10 == 0) rec["extra_" + std::to_string(i)] = Value::Int(i);
    ASSERT_TRUE(flex.Insert(rec).ok());
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(flex.NumRecords(), 150u);
}

// ---------------------------------------------------------------------------
// Deterministic unit tests for chunked VALUE storage (DESIGN.md §12.5): the
// ChunkedVector directory/watermark mechanics, and the never-frees-pinned
// property at the ColumnTable level across Merge and Vacuum.
// ---------------------------------------------------------------------------

TEST(ChunkedValues, ChunkBoundaryAppend) {
  EpochGC gc;
  ChunkedVector<Value> cv(&gc, /*chunk_rows=*/4);
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(cv.Append(Value::Int(static_cast<int64_t>(100 + i))), i);
  }
  EXPECT_EQ(cv.Snap().size(), 10u);
  EXPECT_EQ(cv.num_chunks(), 3u);  // 4 + 4 + 2 elements
  // Values survive the chunk boundaries, in one snapshot and in a fresh
  // snapshot per read.
  ChunkedVector<Value>::Snapshot snap = cv.Snap();
  ASSERT_EQ(snap.size(), 10u);
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(snap[i].AsInt(), static_cast<int64_t>(100 + i));
    EXPECT_EQ(cv.Snap()[i].AsInt(), static_cast<int64_t>(100 + i));
  }
}

TEST(ChunkedValues, DirectoryGrowthPreservesValuesUnderPin) {
  EpochGC gc;
  ChunkedVector<Value> cv(&gc, /*chunk_rows=*/4);
  for (uint64_t i = 0; i < 10; ++i) cv.Append(Value::Int(static_cast<int64_t>(i)));

  int slot = gc.Pin();  // reader in flight
  ChunkedVector<Value>::Snapshot snap = cv.Snap();

  // Push well past two directory doublings while the snapshot stays pinned.
  const uint64_t kRows = 4 * 4 * 8;
  for (uint64_t i = 10; i < kRows; ++i) cv.Append(Value::Int(static_cast<int64_t>(i)));
  EXPECT_GE(cv.directory_capacity(), kRows / 4);

  // The pinned snapshot still reads through its (retired) directory; the
  // chunks it points at were never retired at all — growth copies pointers.
  ASSERT_EQ(snap.size(), 10u);
  for (uint64_t i = 0; i < 10; ++i) EXPECT_EQ(snap[i].AsInt(), static_cast<int64_t>(i));

  // Retired directories cannot be freed under the pin.
  EXPECT_GE(gc.retired_count(), 1u);
  EXPECT_EQ(gc.ReclaimExpired(), 0u);

  gc.Unpin(slot);
  EXPECT_GE(gc.ReclaimExpired(), 1u);
  EXPECT_EQ(gc.retired_count(), 0u);

  // A fresh snapshot sees every published element.
  EpochPin pin(&gc);
  ChunkedVector<Value>::Snapshot fresh = cv.Snap();
  ASSERT_EQ(fresh.size(), kRows);
  for (uint64_t i = 0; i < kRows; ++i) {
    EXPECT_EQ(fresh[i].AsInt(), static_cast<int64_t>(i));
  }
}

TEST(ChunkedValues, MergeAndVacuumNeverFreeValuesUnderPinnedGuard) {
  Database db;
  TransactionManager tm;
  ColumnTable* t = *db.CreateTable("t", OrderSchema());
  for (int i = 0; i < 10; ++i) {
    auto txn = tm.Begin();
    ASSERT_TRUE(tm.Insert(txn.get(), t, {Value::Int(i), Value::Dbl(1.0)}).ok());
    ASSERT_TRUE(tm.Commit(txn.get()).ok());
  }
  ReadView before = tm.AutoCommitView();
  auto* guard = new ColumnTable::ReadGuard(t);  // pin the pre-restructure state

  // Delete the first half, merge the delta into main, and vacuum the dead
  // versions away — each step retires reader-visible structures.
  {
    auto txn = tm.Begin();
    for (uint64_t r = 0; r < 5; ++r) ASSERT_TRUE(tm.Delete(txn.get(), t, r).ok());
    ASSERT_TRUE(tm.Commit(txn.get()).ok());
  }
  t->Merge();
  EXPECT_EQ(t->Vacuum(tm.OldestActiveSnapshot()), 5u);

  // Retired generations pile up but are NOT freed under the live pin.
  EXPECT_GE(t->retired_count(), 1u);
  EXPECT_EQ(t->ReclaimRetired(), 0u);

  // The pinned guard still reads the full pre-vacuum history: all ten rows
  // visible under the old snapshot, values intact and correctly numbered.
  ASSERT_EQ(guard->size(), 10u);
  uint64_t seen = 0;
  guard->ScanVisible(before, [&](uint64_t r) {
    EXPECT_EQ(guard->GetValue(r, 0).AsInt(), static_cast<int64_t>(r));
    ++seen;
  });
  EXPECT_EQ(seen, 10u);

  // A fresh guard sees the renumbered post-vacuum world.
  {
    ColumnTable::ReadGuard fresh(t);
    EXPECT_EQ(fresh.CountVisible(tm.AutoCommitView()), 5u);
    EXPECT_EQ(fresh.GetValue(0, 0).AsInt(), 5);
  }

  // Unpin; now everything retired reclaims.
  delete guard;
  EXPECT_GE(t->ReclaimRetired(), 1u);
  EXPECT_EQ(t->retired_count(), 0u);
}

// ---------------------------------------------------------------------------
// Value reads racing writers (DESIGN.md §12.5). These are the formerly
// disabled MvccKnownGaps tests: reading column / row VALUES (not stamps)
// concurrently with appends used to be a true TSan finding. Chunked value
// storage closed the gap — the suite now runs enabled under
// scripts/run_tsan.sh, which also greps this file to ensure no test here is
// ever disabled again.
// ---------------------------------------------------------------------------

TEST(MvccValues, ColumnValueReadsDuringInserts) {
  Database db;
  TransactionManager tm;
  ColumnTable* t = *db.CreateTable("t", OrderSchema());
  {
    auto txn = tm.Begin();
    ASSERT_TRUE(tm.Insert(txn.get(), t, {Value::Int(0), Value::Dbl(0.0)}).ok());
    ASSERT_TRUE(tm.Commit(txn.get()).ok());
  }
  std::atomic<bool> stop{false};
  std::thread reader([&]() {
    while (!stop.load(std::memory_order_acquire)) {
      // View first, guard second: every commit at or before the snapshot is
      // inside the guard's watermark, so the visible prefix is exact.
      ReadView v = tm.AutoCommitView();
      ColumnTable::ReadGuard g(t);
      int64_t expect = 0;
      g.ScanVisible(v, [&](uint64_t r) {
        // Single-row commits in id order: visible ids are exactly 0..k.
        ASSERT_EQ(g.GetValue(r, 0).AsInt(), expect);
        // A fresh guard per read, pinned while the writer appends, must
        // agree with the long-lived one.
        ASSERT_EQ(ColumnTable::ReadGuard(t).GetValue(r, 0).AsInt(), expect);
        ++expect;
      });
    }
  });
  for (int i = 1; i < 2000; ++i) {
    auto txn = tm.Begin();
    ASSERT_TRUE(tm.Insert(txn.get(), t, {Value::Int(i), Value::Dbl(1.0)}).ok());
    ASSERT_TRUE(tm.Commit(txn.get()).ok());
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(t->Read().CountVisible(tm.AutoCommitView()), 2000u);
}

TEST(MvccValues, RowTableValueReadsDuringInserts) {
  Database db;
  TransactionManager tm;
  RowTable* t = *db.CreateRowTable("r", OrderSchema());
  {
    auto txn = tm.Begin();
    ASSERT_TRUE(tm.Insert(txn.get(), t, {Value::Int(0), Value::Dbl(0.0)}).ok());
    ASSERT_TRUE(tm.Commit(txn.get()).ok());
  }
  std::atomic<bool> stop{false};
  std::thread reader([&]() {
    while (!stop.load(std::memory_order_acquire)) {
      ReadView v = tm.AutoCommitView();
      RowTable::ReadGuard g(t);
      int64_t expect = 0;
      g.ScanVisible(v, [&](uint64_t r) {
        ASSERT_EQ(g.GetValue(r, 0).AsInt(), expect);
        ASSERT_EQ(RowTable::ReadGuard(t).GetValue(r, 0).AsInt(), expect);  // fresh pin
        ++expect;
      });
    }
  });
  for (int i = 1; i < 2000; ++i) {
    auto txn = tm.Begin();
    ASSERT_TRUE(tm.Insert(txn.get(), t, {Value::Int(i), Value::Dbl(1.0)}).ok());
    ASSERT_TRUE(tm.Commit(txn.get()).ok());
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(t->Read().CountVisible(tm.AutoCommitView()), 2000u);
}

// AddColumn publishes a fresh TableState sharing columns and versions; a
// scan holding the previous generation's guard must never be invalidated,
// and a fresh guard must read every column — including ones added mid-scan
// (backfilled NULL for pre-existing rows).
TEST(MvccValues, FlexibleTableColumnGrowthDuringScan) {
  Database db;
  TransactionManager tm;
  ColumnTable* ct =
      *db.CreateTable("flex", Schema({ColumnDef("id", DataType::kInt64)}));
  FlexibleTable flex(&tm, ct);
  std::atomic<bool> stop{false};
  std::thread reader([&]() {
    while (!stop.load(std::memory_order_acquire)) {
      ReadView v = tm.AutoCommitView();
      ColumnTable::ReadGuard g(ct);
      int64_t expect = 0;
      g.ScanVisible(v, [&](uint64_t r) {
        // Touch EVERY column of the pinned generation, then check the id.
        for (size_t c = 0; c < g.num_columns(); ++c) (void)g.GetValue(r, c);
        ASSERT_EQ(g.GetValue(r, 0).AsInt(), expect);
        ++expect;
      });
    }
  });
  for (int i = 0; i < 300; ++i) {
    // Every 7th record introduces a fresh attribute: AddColumn's TableState
    // republication runs concurrently with full-width value scans.
    std::map<std::string, Value> rec{{"id", Value::Int(i)}};
    if (i % 7 == 0) rec["extra_" + std::to_string(i)] = Value::Int(i);
    ASSERT_TRUE(flex.Insert(rec).ok());
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(flex.NumRecords(), 300u);
  EXPECT_EQ(ct->schema().num_columns(), 1u + 300u / 7 + 1u);
}

// ---------------------------------------------------------------------------
// Value-level oracle (DESIGN.md §12.5): readers collect the actual VISIBLE
// VALUES — the sorted id column — concurrently with writers, and every
// sample must equal the serial replay of the commit log up to its snapshot.
// This is strictly stronger than the count oracle above: torn values, stale
// chunk directories, or watermark/value misordering all change the id set.
// ---------------------------------------------------------------------------

struct ValueCommit {
  uint64_t commit_ts = 0;
  std::vector<int64_t> added;    // ids inserted by this txn
  std::vector<int64_t> removed;  // ids deleted by this txn
};

struct ValueSample {
  uint64_t snapshot_ts = 0;
  std::vector<int64_t> ids;  // sorted ids visible under the snapshot
};

constexpr int kValueWriters = 3;
constexpr int kValueReaders = 2;

std::vector<ValueCommit> SortCommits(std::vector<std::vector<ValueCommit>> per_writer) {
  std::vector<ValueCommit> all;
  for (auto& wc : per_writer) {
    for (auto& c : wc) all.push_back(std::move(c));
  }
  std::sort(all.begin(), all.end(), [](const ValueCommit& a, const ValueCommit& b) {
    return a.commit_ts < b.commit_ts;
  });
  return all;
}

/// Serial replay for one reader: sweep the globally sorted commit log while
/// maintaining the live id set; every sample must match it exactly.
void CheckValueSamples(const std::vector<ValueCommit>& commits,
                       const std::vector<ValueSample>& samples, int rd) {
  ASSERT_FALSE(samples.empty());
  std::set<int64_t> live;
  size_t idx = 0;
  uint64_t last_ts = 0;
  for (const ValueSample& smp : samples) {
    ASSERT_GE(smp.snapshot_ts, last_ts) << "reader " << rd;
    last_ts = smp.snapshot_ts;
    while (idx < commits.size() && commits[idx].commit_ts <= smp.snapshot_ts) {
      for (int64_t id : commits[idx].removed) live.erase(id);
      for (int64_t id : commits[idx].added) live.insert(id);
      ++idx;
    }
    std::vector<int64_t> expect(live.begin(), live.end());
    ASSERT_EQ(smp.ids, expect)
        << "reader " << rd << " at snapshot " << smp.snapshot_ts
        << ": saw " << smp.ids.size() << " ids, replay expects " << expect.size();
  }
  // The final sample ran after every commit: it must equal the full replay.
  ASSERT_EQ(idx, commits.size()) << "reader " << rd;
}

/// One seeded value-oracle run against a ColumnTable or RowTable: the same
/// insert/delete/update mix as RunMvccOracle, but commits log the exact id
/// sets they add/remove and readers sample sorted visible ids through the
/// unified ReadGuard.
template <typename Table>
void RunValueOracle(uint64_t seed, TransactionManager* tm, Table* t) {
  constexpr int kTxnsPerWriter = 40;
  std::atomic<int> writers_done{0};
  std::vector<std::vector<ValueCommit>> commits(kValueWriters);
  std::vector<std::vector<ValueSample>> samples(kValueReaders);
  std::vector<std::thread> threads;

  for (int w = 0; w < kValueWriters; ++w) {
    threads.emplace_back([&, w]() {
      Random rng(Random::Mix(seed, 0x31 + w));
      struct Owned {
        uint64_t row;
        int64_t id;
      };
      std::vector<Owned> owned;  // committed live rows this writer owns
      int64_t next_id = static_cast<int64_t>(w) * 1000000;
      for (int i = 0; i < kTxnsPerWriter; ++i) {
        auto txn = tm->Begin();
        ValueCommit rec;
        std::vector<Owned> inserted;
        std::vector<size_t> deleted_idx;
        int op = owned.empty() ? 0 : static_cast<int>(rng.Uniform(3));
        if (op == 0) {  // insert 1..3 rows with globally unique ids
          int k = 1 + static_cast<int>(rng.Uniform(3));
          for (int j = 0; j < k; ++j) {
            int64_t id = next_id++;
            ASSERT_TRUE(
                tm->Insert(txn.get(), t, {Value::Int(id), Value::Dbl(1.0)}).ok());
            inserted.push_back({txn->last_write_row(), id});
            rec.added.push_back(id);
          }
        } else if (op == 1) {  // delete one owned row
          size_t pick = rng.Uniform(owned.size());
          ASSERT_TRUE(tm->Delete(txn.get(), t, owned[pick].row).ok());
          deleted_idx.push_back(pick);
          rec.removed.push_back(owned[pick].id);
        } else {  // update = delete old + insert new (fresh id)
          size_t pick = rng.Uniform(owned.size());
          ASSERT_TRUE(tm->Delete(txn.get(), t, owned[pick].row).ok());
          deleted_idx.push_back(pick);
          rec.removed.push_back(owned[pick].id);
          int64_t id = next_id++;
          ASSERT_TRUE(
              tm->Insert(txn.get(), t, {Value::Int(id), Value::Dbl(2.0)}).ok());
          inserted.push_back({txn->last_write_row(), id});
          rec.added.push_back(id);
        }
        if (rng.Bernoulli(0.12)) {  // exercise abort
          ASSERT_TRUE(tm->Abort(txn.get()).ok());
          continue;
        }
        ASSERT_TRUE(tm->Commit(txn.get()).ok());
        rec.commit_ts = txn->commit_ts();
        commits[w].push_back(std::move(rec));
        for (size_t di : deleted_idx) {
          owned[di] = owned.back();
          owned.pop_back();
        }
        owned.insert(owned.end(), inserted.begin(), inserted.end());
      }
      writers_done.fetch_add(1, std::memory_order_release);
    });
  }

  for (int rd = 0; rd < kValueReaders; ++rd) {
    threads.emplace_back([&, rd]() {
      auto& out = samples[rd];
      bool final_pass = false;
      while (!final_pass) {
        final_pass = writers_done.load(std::memory_order_acquire) == kValueWriters;
        // View FIRST, guard second: the guard's watermark then covers every
        // commit at or before the snapshot.
        ReadView v = tm->AutoCommitView();
        auto g = t->Read();
        ValueSample smp;
        smp.snapshot_ts = v.snapshot_ts;
        g.ScanVisible(v, [&](uint64_t r) {
          smp.ids.push_back(g.GetValue(r, 0).AsInt());
        });
        std::sort(smp.ids.begin(), smp.ids.end());
        out.push_back(std::move(smp));
      }
    });
  }

  for (auto& th : threads) th.join();
  std::vector<ValueCommit> sorted = SortCommits(std::move(commits));
  for (int rd = 0; rd < kValueReaders; ++rd) {
    CheckValueSamples(sorted, samples[rd], rd);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

void RunColumnValueOracle(uint64_t seed) {
  SCOPED_TRACE("column value oracle seed " + std::to_string(seed) +
               " (replay: POLY_MVCC_SEED=" + std::to_string(seed) + ")");
  Database db;
  TransactionManager tm;
  ColumnTable* t = *db.CreateTable("t", OrderSchema());
  RunValueOracle(seed, &tm, t);
}

void RunRowValueOracle(uint64_t seed) {
  SCOPED_TRACE("row value oracle seed " + std::to_string(seed) +
               " (replay: POLY_MVCC_SEED=" + std::to_string(seed) + ")");
  Database db;
  TransactionManager tm;
  RowTable* t = *db.CreateRowTable("r", OrderSchema());
  RunValueOracle(seed, &tm, t);
}

/// FlexibleTable variant: writers are caller-serialized (the FlexibleTable
/// contract) behind one mutex, and some records carry fresh attributes so
/// AddColumn republication runs inside the oracle. With the mutex held,
/// CurrentTimestamp() right after Insert returns IS that txn's commit
/// timestamp — only commits advance the clock.
void RunFlexValueOracle(uint64_t seed) {
  SCOPED_TRACE("flexible value oracle seed " + std::to_string(seed) +
               " (replay: POLY_MVCC_SEED=" + std::to_string(seed) + ")");
  constexpr int kTxnsPerWriter = 30;
  Database db;
  TransactionManager tm;
  ColumnTable* ct =
      *db.CreateTable("flex", Schema({ColumnDef("id", DataType::kInt64)}));
  FlexibleTable flex(&tm, ct);

  std::mutex write_mu;
  std::atomic<int> writers_done{0};
  std::vector<std::vector<ValueCommit>> commits(kValueWriters);
  std::vector<std::vector<ValueSample>> samples(kValueReaders);
  std::vector<std::thread> threads;

  for (int w = 0; w < kValueWriters; ++w) {
    threads.emplace_back([&, w]() {
      Random rng(Random::Mix(seed, 0x51 + w));
      for (int i = 0; i < kTxnsPerWriter; ++i) {
        int64_t id = static_cast<int64_t>(w) * 1000000 + i;
        std::map<std::string, Value> rec{{"id", Value::Int(id)}};
        if (rng.Bernoulli(0.2)) {  // implicit DDL mid-oracle
          rec["w" + std::to_string(w) + "_c" + std::to_string(i)] = Value::Int(i);
        }
        uint64_t commit_ts;
        {
          std::lock_guard<std::mutex> lk(write_mu);
          ASSERT_TRUE(flex.Insert(rec).ok());
          commit_ts = tm.CurrentTimestamp();
        }
        commits[w].push_back({commit_ts, {id}, {}});
      }
      writers_done.fetch_add(1, std::memory_order_release);
    });
  }

  for (int rd = 0; rd < kValueReaders; ++rd) {
    threads.emplace_back([&, rd]() {
      auto& out = samples[rd];
      bool final_pass = false;
      while (!final_pass) {
        final_pass = writers_done.load(std::memory_order_acquire) == kValueWriters;
        ReadView v = tm.AutoCommitView();
        ColumnTable::ReadGuard g(ct);
        ValueSample smp;
        smp.snapshot_ts = v.snapshot_ts;
        g.ScanVisible(v, [&](uint64_t r) {
          // Full-width read across whatever columns this generation has.
          for (size_t c = 1; c < g.num_columns(); ++c) (void)g.GetValue(r, c);
          smp.ids.push_back(g.GetValue(r, 0).AsInt());
        });
        std::sort(smp.ids.begin(), smp.ids.end());
        out.push_back(std::move(smp));
      }
    });
  }

  for (auto& th : threads) th.join();
  std::vector<ValueCommit> sorted = SortCommits(std::move(commits));
  for (int rd = 0; rd < kValueReaders; ++rd) {
    CheckValueSamples(sorted, samples[rd], rd);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(MvccValueOracle, ColumnTableMatchesSerialReplay) {
  if (const char* env = std::getenv("POLY_MVCC_SEED")) {
    RunColumnValueOracle(std::strtoull(env, nullptr, 10));
    return;
  }
  for (uint64_t seed = 1; seed <= kOracleSeeds(); ++seed) {
    RunColumnValueOracle(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(MvccValueOracle, RowTableMatchesSerialReplay) {
  if (const char* env = std::getenv("POLY_MVCC_SEED")) {
    RunRowValueOracle(std::strtoull(env, nullptr, 10));
    return;
  }
  for (uint64_t seed = 1; seed <= kOracleSeeds(); ++seed) {
    RunRowValueOracle(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(MvccValueOracle, FlexibleTableMatchesSerialReplay) {
  if (const char* env = std::getenv("POLY_MVCC_SEED")) {
    RunFlexValueOracle(std::strtoull(env, nullptr, 10));
    return;
  }
  for (uint64_t seed = 1; seed <= kOracleSeeds(); ++seed) {
    RunFlexValueOracle(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace poly
