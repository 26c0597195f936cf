#include <gtest/gtest.h>

#include "engines/graph/graph_view.h"
#include "engines/graph/hierarchy.h"
#include "storage/database.h"
#include "txn/transaction_manager.h"

namespace poly {
namespace {

class GraphFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema edges({ColumnDef("src", DataType::kInt64), ColumnDef("dst", DataType::kInt64),
                  ColumnDef("weight", DataType::kDouble)});
    edges_ = *db_.CreateTable("edges", edges);
  }

  void AddEdge(int64_t src, int64_t dst, double w) {
    auto txn = tm_.Begin();
    ASSERT_TRUE(
        tm_.Insert(txn.get(), edges_, {Value::Int(src), Value::Int(dst), Value::Dbl(w)})
            .ok());
    ASSERT_TRUE(tm_.Commit(txn.get()).ok());
  }

  GraphView BuildGraph(bool directed = true, bool weighted = true) {
    auto g = GraphView::Build(*edges_, tm_.AutoCommitView(), "src", "dst",
                              weighted ? "weight" : "", directed);
    EXPECT_TRUE(g.ok()) << g.status().ToString();
    return *std::move(g);
  }

  Database db_;
  TransactionManager tm_;
  ColumnTable* edges_ = nullptr;
};

TEST_F(GraphFixture, BuildCollectsNodesAndEdges) {
  AddEdge(1, 2, 1.0);
  AddEdge(2, 3, 2.0);
  GraphView g = BuildGraph();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.OutDegree(1), 1u);
  EXPECT_EQ(g.Neighbors(2), std::vector<int64_t>{3});
  EXPECT_TRUE(g.Neighbors(99).empty());
}

TEST_F(GraphFixture, UndirectedMirrorsEdges) {
  AddEdge(1, 2, 1.0);
  GraphView g = BuildGraph(/*directed=*/false);
  EXPECT_EQ(g.Neighbors(2), std::vector<int64_t>{1});
}

TEST_F(GraphFixture, BfsDistanceHops) {
  AddEdge(1, 2, 10);
  AddEdge(2, 3, 10);
  AddEdge(3, 4, 10);
  AddEdge(1, 4, 100);  // direct but heavy
  GraphView g = BuildGraph();
  EXPECT_EQ(g.BfsDistance(1, 4), 1);  // hops ignore weight
  EXPECT_EQ(g.BfsDistance(1, 3), 2);
  EXPECT_EQ(g.BfsDistance(1, 1), 0);
  EXPECT_EQ(g.BfsDistance(4, 1), -1);  // directed
  EXPECT_EQ(g.BfsDistance(1, 999), -1);
}

TEST_F(GraphFixture, DijkstraPrefersCheapPath) {
  AddEdge(1, 2, 1);
  AddEdge(2, 3, 1);
  AddEdge(1, 3, 5);
  GraphView g = BuildGraph();
  double cost = 0;
  auto path = g.ShortestPath(1, 3, &cost);
  EXPECT_EQ(path, (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(cost, 2.0);
}

TEST_F(GraphFixture, ShortestPathUnreachable) {
  AddEdge(1, 2, 1);
  AddEdge(3, 4, 1);
  GraphView g = BuildGraph();
  double cost = 0;
  EXPECT_TRUE(g.ShortestPath(1, 4, &cost).empty());
  EXPECT_EQ(cost, kUnreachable);
}

TEST_F(GraphFixture, DistancesAndRadius) {
  AddEdge(1, 2, 1);
  AddEdge(2, 3, 2);
  AddEdge(3, 4, 4);
  GraphView g = BuildGraph();
  auto dist = g.DistancesFrom(1);
  EXPECT_EQ(dist[4], 7.0);
  EXPECT_EQ(g.NodesWithinCost(1, 3.0), (std::vector<int64_t>{1, 2, 3}));
}

TEST_F(GraphFixture, ConnectedComponents) {
  AddEdge(1, 2, 1);
  AddEdge(2, 1, 1);
  AddEdge(3, 4, 1);
  GraphView g = BuildGraph();
  auto comp = g.ConnectedComponents();
  EXPECT_EQ(comp[1], comp[2]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[1], comp[3]);
}

TEST_F(GraphFixture, MvccViewControlsGraphContents) {
  AddEdge(1, 2, 1);
  auto txn = tm_.Begin();
  ASSERT_TRUE(
      tm_.Insert(txn.get(), edges_, {Value::Int(2), Value::Int(3), Value::Dbl(1.0)}).ok());
  // Graph built before commit misses the in-flight edge.
  GraphView before = BuildGraph();
  EXPECT_EQ(before.num_edges(), 1u);
  ASSERT_TRUE(tm_.Commit(txn.get()).ok());
  GraphView after = BuildGraph();
  EXPECT_EQ(after.num_edges(), 2u);
}

TEST_F(GraphFixture, PageRankFavorsSinkOfAttention) {
  // Star: everyone links to node 1; node 1 links to node 2.
  for (int src : {3, 4, 5, 6}) AddEdge(src, 1, 1.0);
  AddEdge(1, 2, 1.0);
  GraphView g = BuildGraph();
  auto rank = g.PageRank();
  // Scores form a distribution.
  double total = 0;
  for (const auto& [_, score] : rank) total += score;
  EXPECT_NEAR(total, 1.0, 1e-6);
  // Node 2 is the terminal sink (absorbs all of 1's mass), node 1 collects
  // from the four leaves, leaves trail far behind.
  EXPECT_GT(rank[2], rank[1]);
  EXPECT_GT(rank[1], rank[3]);
  EXPECT_GT(rank[1], 4 * rank[3]);
}

TEST_F(GraphFixture, PageRankEmptyAndSingleEdge) {
  GraphView empty = BuildGraph();
  EXPECT_TRUE(empty.PageRank().empty());
  AddEdge(1, 2, 1.0);
  GraphView g = BuildGraph();
  auto rank = g.PageRank();
  EXPECT_EQ(rank.size(), 2u);
  EXPECT_GT(rank[2], rank[1]);
}

// ---------- Hierarchy ----------

class HierarchyFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema s({ColumnDef("id", DataType::kInt64), ColumnDef("parent", DataType::kInt64)});
    nodes_ = *db_.CreateTable("nodes", s);
  }

  void AddNode(int64_t id, Value parent) {
    auto txn = tm_.Begin();
    ASSERT_TRUE(tm_.Insert(txn.get(), nodes_, {Value::Int(id), parent}).ok());
    ASSERT_TRUE(tm_.Commit(txn.get()).ok());
  }

  HierarchyView BuildTree() {
    auto h = HierarchyView::Build(*nodes_, tm_.AutoCommitView(), "id", "parent");
    EXPECT_TRUE(h.ok()) << h.status().ToString();
    return *std::move(h);
  }

  //        1
  //      2   3      (children of 1)
  //    4  5    6    (4,5 under 2; 6 under 3)
  void BuildStandardTree() {
    AddNode(1, Value::Null());
    AddNode(2, Value::Int(1));
    AddNode(3, Value::Int(1));
    AddNode(4, Value::Int(2));
    AddNode(5, Value::Int(2));
    AddNode(6, Value::Int(3));
  }

  Database db_;
  TransactionManager tm_;
  ColumnTable* nodes_ = nullptr;
};

TEST_F(HierarchyFixture, DescendantQueriesAreIntervalBased) {
  BuildStandardTree();
  HierarchyView h = BuildTree();
  EXPECT_TRUE(h.IsDescendant(4, 1));
  EXPECT_TRUE(h.IsDescendant(4, 2));
  EXPECT_FALSE(h.IsDescendant(4, 3));
  EXPECT_FALSE(h.IsDescendant(1, 4));
  EXPECT_FALSE(h.IsDescendant(1, 1));  // strict
  EXPECT_EQ(*h.CountDescendants(1), 5);
  EXPECT_EQ(*h.CountDescendants(2), 2);
  EXPECT_EQ(*h.CountDescendants(6), 0);
  EXPECT_FALSE(h.CountDescendants(42).ok());
}

TEST_F(HierarchyFixture, IntervalInvariants) {
  BuildStandardTree();
  HierarchyView h = BuildTree();
  auto [pre1, post1] = *h.Interval(1);
  auto [pre2, post2] = *h.Interval(2);
  // Child interval nested in parent interval.
  EXPECT_GT(pre2, pre1);
  EXPECT_LE(post2, post1);
  // Subtree size = post - pre - 1.
  EXPECT_EQ(post1 - pre1 - 1, *h.CountDescendants(1));
}

TEST_F(HierarchyFixture, ChildrenSiblingsDepthPath) {
  BuildStandardTree();
  HierarchyView h = BuildTree();
  EXPECT_EQ(h.Children(1), (std::vector<int64_t>{2, 3}));
  EXPECT_EQ(h.Siblings(4), std::vector<int64_t>{5});
  EXPECT_EQ(h.Siblings(1), std::vector<int64_t>{});
  EXPECT_EQ(*h.Depth(1), 0);
  EXPECT_EQ(*h.Depth(4), 2);
  EXPECT_EQ(h.PathToRoot(5), (std::vector<int64_t>{1, 2, 5}));
  EXPECT_EQ(h.Descendants(2), (std::vector<int64_t>{4, 5}));
}

TEST_F(HierarchyFixture, ForestWithMultipleRoots) {
  AddNode(1, Value::Null());
  AddNode(2, Value::Int(2));  // self-parent also marks a root
  AddNode(3, Value::Int(1));
  HierarchyView h = BuildTree();
  EXPECT_EQ(h.Roots().size(), 2u);
  EXPECT_EQ(h.Siblings(1), std::vector<int64_t>{2});
}

TEST_F(HierarchyFixture, CycleRejected) {
  AddNode(1, Value::Int(2));
  AddNode(2, Value::Int(1));
  auto h = HierarchyView::Build(*nodes_, tm_.AutoCommitView(), "id", "parent");
  EXPECT_FALSE(h.ok());
  EXPECT_EQ(h.status().code(), StatusCode::kCorruption);
}

TEST_F(HierarchyFixture, DuplicateIdRejected) {
  AddNode(1, Value::Null());
  AddNode(1, Value::Null());
  auto h = HierarchyView::Build(*nodes_, tm_.AutoCommitView(), "id", "parent");
  EXPECT_FALSE(h.ok());
}

TEST_F(HierarchyFixture, VersionedSnapshotsAndDiff) {
  BuildStandardTree();
  VersionedHierarchy vh;
  ASSERT_TRUE(vh.Snapshot(1, *nodes_, tm_.AutoCommitView(), "id", "parent").ok());

  // Re-parent node 6 under 2 (update = delete + insert).
  ReadView now = tm_.AutoCommitView();
  uint64_t row6 = 0;
  {
    ColumnTable::ReadGuard g(nodes_);
    g.ScanVisible(now, [&](uint64_t r) {
      if (g.GetValue(r, 0).AsInt() == 6) row6 = r;
    });
  }
  auto txn = tm_.Begin();
  ASSERT_TRUE(tm_.Update(txn.get(), nodes_, row6, {Value::Int(6), Value::Int(2)}).ok());
  ASSERT_TRUE(tm_.Commit(txn.get()).ok());
  ASSERT_TRUE(vh.Snapshot(2, *nodes_, tm_.AutoCommitView(), "id", "parent").ok());

  EXPECT_EQ(vh.Versions(), (std::vector<int64_t>{1, 2}));
  const HierarchyView* v1 = *vh.Version(1);
  const HierarchyView* v2 = *vh.Version(2);
  EXPECT_TRUE(v1->IsDescendant(6, 3));
  EXPECT_TRUE(v2->IsDescendant(6, 2));
  auto changed = vh.ChangedNodes(1, 2);
  ASSERT_TRUE(changed.ok());
  EXPECT_EQ(*changed, std::vector<int64_t>{6});
  EXPECT_FALSE(vh.Version(9).ok());
}

}  // namespace
}  // namespace poly
