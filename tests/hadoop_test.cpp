#include <gtest/gtest.h>

#include "common/random.h"
#include "hadoop/dfs.h"
#include "hadoop/mapreduce.h"
#include "hadoop/table_connector.h"
#include "common/string_util.h"
#include "storage/database.h"

namespace poly {
namespace {

TEST(DfsTest, WriteReadRoundTrip) {
  SimulatedDfs dfs;
  std::string data(10000, 'x');
  ASSERT_TRUE(dfs.Write("/a/b.txt", data).ok());
  auto read = dfs.Read("/a/b.txt");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
  EXPECT_TRUE(dfs.Exists("/a/b.txt"));
  EXPECT_FALSE(dfs.Exists("/nope"));
  EXPECT_FALSE(dfs.Read("/nope").ok());
}

TEST(DfsTest, BlockSplitAndBlockRead) {
  SimulatedDfs::Options opts;
  opts.block_size = 100;
  SimulatedDfs dfs(opts);
  std::string data(250, 'y');
  ASSERT_TRUE(dfs.Write("/f", data).ok());
  EXPECT_EQ(*dfs.NumBlocks("/f"), 3u);
  EXPECT_EQ(*dfs.FileSize("/f"), 250u);
  EXPECT_EQ(dfs.ReadBlock("/f", 0)->size(), 100u);
  EXPECT_EQ(dfs.ReadBlock("/f", 2)->size(), 50u);
  EXPECT_FALSE(dfs.ReadBlock("/f", 3).ok());
}

TEST(DfsTest, AppendGrowsFile) {
  SimulatedDfs dfs;
  ASSERT_TRUE(dfs.Append("/log", "one\n").ok());
  ASSERT_TRUE(dfs.Append("/log", "two\n").ok());
  EXPECT_EQ(*dfs.Read("/log"), "one\ntwo\n");
}

TEST(DfsTest, ListAndDelete) {
  SimulatedDfs dfs;
  ASSERT_TRUE(dfs.Write("/data/a", "1").ok());
  ASSERT_TRUE(dfs.Write("/data/b", "2").ok());
  ASSERT_TRUE(dfs.Write("/other", "3").ok());
  EXPECT_EQ(dfs.ListFiles("/data/").size(), 2u);
  EXPECT_EQ(dfs.ListFiles().size(), 3u);
  ASSERT_TRUE(dfs.Delete("/data/a").ok());
  EXPECT_FALSE(dfs.Exists("/data/a"));
  EXPECT_FALSE(dfs.Delete("/data/a").ok());
}

TEST(DfsTest, ReplicationSurvivesNodeFailure) {
  SimulatedDfs::Options opts;
  opts.num_data_nodes = 3;
  opts.replication = 2;
  opts.block_size = 64;
  SimulatedDfs dfs(opts);
  Random rng(1);
  std::string data = rng.NextString(1000);
  ASSERT_TRUE(dfs.Write("/f", data).ok());
  ASSERT_TRUE(dfs.KillDataNode(1).ok());
  // Every block still has a live replica.
  EXPECT_EQ(*dfs.Read("/f"), data);
  ASSERT_TRUE(dfs.ReReplicate().ok());
  // After re-replication, killing another node is still survivable.
  ASSERT_TRUE(dfs.KillDataNode(0).ok());
  EXPECT_EQ(*dfs.Read("/f"), data);
}

TEST(DfsTest, AllReplicasDownIsUnavailable) {
  SimulatedDfs::Options opts;
  opts.num_data_nodes = 2;
  opts.replication = 1;
  SimulatedDfs dfs(opts);
  ASSERT_TRUE(dfs.Write("/f", "data").ok());
  ASSERT_TRUE(dfs.KillDataNode(0).ok());
  ASSERT_TRUE(dfs.KillDataNode(1).ok());
  EXPECT_TRUE(dfs.Read("/f").status().IsUnavailable());
}

TEST(DfsTest, ReadChargesSimulatedCost) {
  SimulatedDfs dfs;
  ASSERT_TRUE(dfs.Write("/f", std::string(5000, 'z')).ok());
  double before = dfs.simulated_read_nanos();
  ASSERT_TRUE(dfs.Read("/f").ok());
  EXPECT_GT(dfs.simulated_read_nanos(), before);
  EXPECT_EQ(dfs.bytes_read(), 5000u);
}

TEST(MapReduceTest, WordCount) {
  SimulatedDfs::Options opts;
  opts.block_size = 64;
  SimulatedDfs dfs(opts);
  ThreadPool pool(4);
  std::string input;
  for (int i = 0; i < 30; ++i) {
    input += (i % 3 == 0 ? "alpha" : (i % 3 == 1 ? "beta" : "gamma"));
    input += "\textra\n";
  }
  ASSERT_TRUE(dfs.Write("/in", input).ok());
  auto stats = RunWordCount(&dfs, &pool, "/in", "/out");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->map_tasks, 1u);  // multiple blocks -> multiple map tasks
  EXPECT_EQ(stats->map_output_pairs, 30u);

  auto out = dfs.Read("/out");
  ASSERT_TRUE(out.ok());
  std::map<std::string, int> counts;
  for (const auto& line : SplitString(*out, '\n')) {
    if (line.empty()) continue;
    auto parts = SplitString(line, '\t');
    counts[parts[0]] = std::stoi(parts[1]);
  }
  EXPECT_EQ(counts["alpha"], 10);
  EXPECT_EQ(counts["beta"], 10);
  EXPECT_EQ(counts["gamma"], 10);
}

TEST(MapReduceTest, CustomJobAggregates) {
  SimulatedDfs dfs;
  ThreadPool pool(2);
  // sensor_id \t value
  std::string input = "s1\t10\ns2\t20\ns1\t30\ns2\t40\n";
  ASSERT_TRUE(dfs.Write("/readings", input).ok());
  MapReduceJob job(&dfs, &pool);
  auto stats = job.Run(
      "/readings", "/sums",
      [](const std::string& line) {
        auto f = SplitString(line, '\t');
        std::vector<KeyValue> out;
        out.push_back({f[0], f[1]});
        return out;
      },
      [](const std::string& key, const std::vector<std::string>& values) {
        long sum = 0;
        for (const auto& v : values) sum += std::stol(v);
        return std::vector<std::string>{key + "\t" + std::to_string(sum)};
      },
      /*num_reducers=*/2);
  ASSERT_TRUE(stats.ok());
  auto out = dfs.Read("/sums");
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("s1\t40"), std::string::npos);
  EXPECT_NE(out->find("s2\t60"), std::string::npos);
}

TEST(MapReduceTest, EmptyInput) {
  SimulatedDfs dfs;
  ThreadPool pool(2);
  ASSERT_TRUE(dfs.Write("/empty", "").ok());
  auto stats = RunWordCount(&dfs, &pool, "/empty", "/out");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->map_output_pairs, 0u);
  EXPECT_EQ(*dfs.Read("/out"), "");
}

TEST(TableConnectorTest, ExportImportRoundTrip) {
  Database db;
  TransactionManager tm;
  SimulatedDfs dfs;
  DfsTableConnector conn(&dfs);
  Schema s({ColumnDef("id", DataType::kInt64), ColumnDef("name", DataType::kString),
            ColumnDef("score", DataType::kDouble), ColumnDef("loc", DataType::kGeoPoint)});
  ColumnTable* t = *db.CreateTable("src", s);
  auto txn = tm.Begin();
  ASSERT_TRUE(tm.Insert(txn.get(), t,
                        {Value::Int(1), Value::Str("ann"), Value::Dbl(2.5),
                         Value::GeoPoint(8.5, 49.3)}).ok());
  ASSERT_TRUE(tm.Insert(txn.get(), t,
                        {Value::Int(2), Value::Null(), Value::Dbl(-1.0),
                         Value::GeoPoint(0, 0)}).ok());
  ASSERT_TRUE(tm.Commit(txn.get()).ok());

  ASSERT_TRUE(conn.Export(*t, tm.AutoCommitView(), "/tables/src.tsv").ok());
  auto imported = conn.Import("/tables/src.tsv", "dst", &db, &tm);
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  ColumnTable* dst = *imported;
  ColumnTable::ReadGuard g(dst);
  EXPECT_EQ(g.CountVisible(tm.AutoCommitView()), 2u);
  EXPECT_EQ(g.GetValue(0, 1), Value::Str("ann"));
  EXPECT_TRUE(g.GetValue(1, 1).is_null());
  EXPECT_EQ(g.GetValue(0, 3).AsGeoPoint().lat, 49.3);
}

TEST(TableConnectorTest, AppendToExisting) {
  Database db;
  TransactionManager tm;
  SimulatedDfs dfs;
  DfsTableConnector conn(&dfs);
  Schema s({ColumnDef("k", DataType::kInt64)});
  ColumnTable* t = *db.CreateTable("t", s);
  ASSERT_TRUE(dfs.Write("/more.tsv", "k:INT64\n5\n6\n").ok());
  auto n = conn.AppendTo("/more.tsv", t, &tm);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 2u);
  EXPECT_EQ(t->Read().CountVisible(tm.AutoCommitView()), 2u);
}

TEST(TableConnectorTest, MalformedTsvRejected) {
  auto bad_header = DfsTableConnector::ParseTsv("id\n1\n");
  EXPECT_FALSE(bad_header.ok());
  auto bad_width = DfsTableConnector::ParseTsv("id:INT64\tx:INT64\n1\n");
  EXPECT_FALSE(bad_width.ok());
  auto bad_type = DfsTableConnector::ParseTsv("id:WAT\n1\n");
  EXPECT_FALSE(bad_type.ok());
}

}  // namespace
}  // namespace poly
