#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "soe/cluster.h"
#include "soe/partition.h"
#include "soe/shared_log.h"
#include "soe_test_util.h"

namespace poly {
namespace {

/// Fresh per-test log directory under gtest's temp root, named per process
/// so concurrent test binaries (`ctest -j`) never share a log, and removed
/// when the test ends.
struct FreshLogDir {
  explicit FreshLogDir(const std::string& name)
      : path(testing::TempDir() + "/" + name + "." + std::to_string(getpid())) {
    std::filesystem::remove_all(path);
  }
  ~FreshLogDir() { std::filesystem::remove_all(path); }
  std::string path;
};

/// Appends what a crash mid-append leaves: a RedoLog frame header
/// ([u32 length][u32 CRC-32C]) promising far more payload than follows.
void PlantTornFrame(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  uint32_t len = 1000, crc = 0;
  std::fwrite(&len, sizeof(len), 1, f);
  std::fwrite(&crc, sizeof(crc), 1, f);
  std::fwrite("xx", 1, 2, f);  // far short of len
  std::fclose(f);
}

// The ChaosDurableLog suite rides the existing `ctest -L chaos` label (the
// chaos test target filters on Chaos*): crash-recovery belongs with the
// other kill/heal scenarios.

TEST(ChaosDurableLog, LogSurvivesReopen) {
  FreshLogDir dir("poly_durable_log_reopen");
  SharedLog::Options opts;
  opts.num_log_units = 3;
  opts.replication = 2;
  opts.durable_dir = dir.path;

  {
    SharedLog log(opts);
    for (int i = 0; i < 20; ++i) {
      auto off = log.Append("record-" + std::to_string(i));
      ASSERT_TRUE(off.ok());
      EXPECT_EQ(*off, static_cast<uint64_t>(i));
    }
  }  // "crash": the process state is gone, only unit files remain

  SharedLog recovered(opts);
  EXPECT_EQ(recovered.Tail(), 20u);
  for (int i = 0; i < 20; ++i) {
    auto rec = recovered.Read(i);
    ASSERT_TRUE(rec.ok()) << "offset " << i;
    EXPECT_EQ(*rec, "record-" + std::to_string(i));
  }

  // The sequencer resumed past the recovered tail: new appends extend, not
  // overwrite.
  auto off = recovered.Append("after-crash");
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(*off, 20u);
  EXPECT_EQ(*recovered.Read(20), "after-crash");
}

TEST(ChaosDurableLog, TruncatedTailFrameIsDiscarded) {
  FreshLogDir dir("poly_durable_log_torn");
  SharedLog::Options opts;
  opts.num_log_units = 2;
  opts.replication = 2;  // every record on both units
  opts.durable_dir = dir.path;

  {
    SharedLog log(opts);
    ASSERT_TRUE(log.Append("alpha").ok());
    ASSERT_TRUE(log.Append("beta").ok());
  }

  // Simulate a crash mid-write: append a torn frame (header promising more
  // payload than exists) to one unit file.
  PlantTornFrame(dir.path + "/unit0.log");

  SharedLog recovered(opts);
  EXPECT_EQ(recovered.Tail(), 2u);  // the torn frame never happened
  EXPECT_EQ(*recovered.Read(0), "alpha");
  EXPECT_EQ(*recovered.Read(1), "beta");
  auto off = recovered.Append("gamma");
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(*off, 2u);
}

TEST(ChaosDurableLog, AppendAfterTornTailSurvivesSecondCrash) {
  FreshLogDir dir("poly_durable_log_torn_append");
  SharedLog::Options opts;
  opts.num_log_units = 1;  // one unit: recovery depends on this exact file
  opts.replication = 1;
  opts.durable_dir = dir.path;

  {
    SharedLog log(opts);
    ASSERT_TRUE(log.Append("alpha").ok());
    ASSERT_TRUE(log.Append("beta").ok());
  }

  // Crash mid-write: a torn frame at the tail of the only unit file.
  PlantTornFrame(dir.path + "/unit0.log");

  // First recovery must not just skip the torn frame in memory — it must
  // truncate it, or the next append lands after the garbage bytes and the
  // SECOND recovery's frame reader silently drops it (a committed, fsynced
  // record lost across crash -> recover -> append -> crash).
  {
    SharedLog log(opts);
    ASSERT_EQ(log.Tail(), 2u);
    auto off = log.Append("gamma");
    ASSERT_TRUE(off.ok());
    EXPECT_EQ(*off, 2u);
  }

  SharedLog recovered(opts);
  EXPECT_EQ(recovered.Tail(), 3u);
  EXPECT_EQ(*recovered.Read(0), "alpha");
  EXPECT_EQ(*recovered.Read(1), "beta");
  EXPECT_EQ(*recovered.Read(2), "gamma");
}

// A unit whose file fails its checksum before the last frame cannot be
// trusted: it starts down, and its replicas are served by the other unit.
TEST(ChaosDurableLog, UnreadableUnitStartsDown) {
  FreshLogDir dir("poly_durable_log_corrupt");
  SharedLog::Options opts;
  opts.num_log_units = 2;
  opts.replication = 2;  // every record on both units
  opts.durable_dir = dir.path;

  {
    SharedLog log(opts);
    ASSERT_TRUE(log.Append("alpha").ok());
    ASSERT_TRUE(log.Append("beta").ok());
  }
  // Flip the first payload byte of unit 0's first frame (after the 8-byte
  // frame header and the 8-byte offset).
  {
    std::FILE* f = std::fopen((dir.path + "/unit0.log").c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 16, SEEK_SET);
    std::fputc('A', f);
    std::fclose(f);
  }

  SharedLog recovered(opts);
  EXPECT_EQ(recovered.records_stored(0), 0u);
  EXPECT_EQ(recovered.Tail(), 2u);
  EXPECT_EQ(*recovered.Read(0), "alpha");
  EXPECT_EQ(*recovered.Read(1), "beta");
}

// A replica counts only when its unit's RedoLog append and sync both
// succeeded: with a 64-byte file-size limit the unit file fills up after a
// few records, and every append past it fails without consuming an offset.
// A fresh log on the same directory recovers exactly the acknowledged
// appends.
TEST(ChaosDurableLog, UnitWriteFailureIsNotAcknowledged) {
  FreshLogDir dir("poly_durable_log_fsize");
  SharedLog::Options opts;
  opts.num_log_units = 1;
  opts.replication = 1;
  opts.durable_dir = dir.path;

  std::vector<std::string> acked;
  std::vector<StatusCode> failures;
  {
    SharedLog log(opts);
    struct rlimit saved;
    ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &saved), 0);
    struct rlimit small = saved;
    small.rlim_cur = 64;
    auto old_handler = std::signal(SIGXFSZ, SIG_IGN);  // fail with EFBIG instead
    bool limited = setrlimit(RLIMIT_FSIZE, &small) == 0;
    for (int i = 0; limited && i < 8; ++i) {
      std::string rec = "r" + std::to_string(i);
      auto off = log.Append(rec);
      if (off.ok() && *off == acked.size()) {
        acked.push_back(rec);
      } else {
        failures.push_back(off.status().code());
      }
    }
    // Lift the limit before any assertion: gtest writes files too.
    if (limited) setrlimit(RLIMIT_FSIZE, &saved);
    std::signal(SIGXFSZ, old_handler);
    ASSERT_TRUE(limited);
    ASSERT_FALSE(acked.empty());
    ASSERT_FALSE(failures.empty());
    for (StatusCode code : failures) EXPECT_EQ(code, StatusCode::kUnavailable);
    EXPECT_EQ(log.Tail(), acked.size());  // failed appends consumed nothing
  }

  SharedLog recovered(opts);
  ASSERT_EQ(recovered.Tail(), acked.size());
  for (size_t i = 0; i < acked.size(); ++i) EXPECT_EQ(*recovered.Read(i), acked[i]);
}

TEST(ChaosDurableLog, FreshClusterRecoversCommittedWrites) {
  FreshLogDir dir("poly_durable_log_cluster");
  Schema schema({ColumnDef("id", DataType::kInt64),
                 ColumnDef("amount", DataType::kInt64)});
  PartitionSpec spec = PartitionSpec::Hash("id", 4);

  SoeCluster::Options opts;
  opts.num_nodes = 4;
  opts.log_durable_dir = dir.path;

  uint64_t committed_tail = 0;
  {
    SoeCluster cluster(opts);
    ASSERT_TRUE(cluster.CreateTable("orders", schema, spec, /*replication=*/2).ok());
    for (int i = 0; i < 50; ++i) {
      auto off = cluster.CommitInserts(
          "orders", {{Value::Int(i), Value::Int(i * 10)}});
      ASSERT_TRUE(off.ok());
    }
    committed_tail = cluster.log().Tail();
    ASSERT_EQ(committed_tail, 50u);
  }  // whole-cluster "crash": every node object and the in-memory log die

  // A brand-new cluster pointed at the same log directory. DDL is not
  // logged (the catalog is a service, not a log consumer), so the operator
  // re-issues CreateTable; the *data* then comes back from the durable log
  // when reads sync nodes up to the recovered tail.
  SoeCluster cluster(opts);
  EXPECT_EQ(cluster.log().Tail(), committed_tail);
  ASSERT_TRUE(cluster.CreateTable("orders", schema, spec, /*replication=*/2).ok());

  auto rows = RunPlanned(&cluster, ScanOf("orders"));
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->rows.size(), 50u);
  int64_t sum = 0;
  for (const Row& r : rows->rows) sum += r[1].AsInt();
  EXPECT_EQ(sum, 10 * (49 * 50) / 2);

  // And the recovered cluster keeps working: new commits land after the
  // recovered tail and are immediately visible.
  ASSERT_TRUE(cluster.Insert("orders", {Value::Int(100), Value::Int(7)}).ok());
  EXPECT_EQ(cluster.log().Tail(), committed_tail + 1);
  auto again = RunPlanned(&cluster, ScanOf("orders"));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->rows.size(), 51u);
}

}  // namespace
}  // namespace poly
