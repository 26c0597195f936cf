// Property-style parameterized sweeps over module invariants.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "aging/aging.h"
#include "common/random.h"
#include "docstore/json.h"
#include "engines/graph/hierarchy.h"
#include "engines/planning/planning.h"
#include "engines/timeseries/ts_codec.h"
#include "query/executor.h"
#include "query/optimizer.h"
#include "soe/log_record.h"
#include "storage/column_table.h"
#include "txn/transaction_manager.h"

namespace poly {
namespace {

// ---------- Column merge preserves logical content ----------

class MergeInvariants : public ::testing::TestWithParam<int> {};

TEST_P(MergeInvariants, RowsUnchangedDictionarySorted) {
  Random rng(GetParam());
  EpochGC gc;
  Column col(&gc);
  std::vector<Value> expect;
  // Several interleaved append/merge rounds.
  int rounds = 2 + static_cast<int>(rng.Uniform(4));
  for (int round = 0; round < rounds; ++round) {
    int appends = 1 + static_cast<int>(rng.Uniform(200));
    for (int i = 0; i < appends; ++i) {
      Value v = rng.Bernoulli(0.5)
                    ? Value::Int(static_cast<int64_t>(rng.Uniform(50)))
                    : Value::Int(static_cast<int64_t>(1000 + rng.Uniform(50)));
      col.Append(v);
      expect.push_back(v);
    }
    col.Merge(rng.Bernoulli(0.5));  // hint sometimes on; must never corrupt
    // Invariant 1: every row reads back unchanged.
    Column::Reader reader(&col);
    ASSERT_EQ(reader.size(), expect.size());
    for (size_t r = 0; r < expect.size(); ++r) {
      ASSERT_EQ(reader.Get(r), expect[r]) << "seed=" << GetParam() << " round=" << round;
    }
    // Invariant 2: the main dictionary is strictly sorted and minimal.
    const auto& dict = reader.main_dictionary();
    for (uint64_t i = 1; i < dict.size(); ++i) {
      ASSERT_TRUE(dict.At(i - 1) < dict.At(i));
    }
    // Invariant 3: delta is empty after a merge.
    ASSERT_EQ(reader.delta_size(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergeInvariants, ::testing::Range(1, 11));

// ---------- MVCC: concurrent histories keep counts consistent ----------

class MvccHistories : public ::testing::TestWithParam<int> {};

TEST_P(MvccHistories, VisibleCountMatchesOracle) {
  Random rng(GetParam());
  Database db;
  TransactionManager tm;
  ColumnTable* t = *db.CreateTable("t", Schema({ColumnDef("v", DataType::kInt64)}));

  // Oracle: set of live row ids maintained alongside committed operations.
  std::vector<uint64_t> live;
  for (int step = 0; step < 150; ++step) {
    double action = rng.NextDouble();
    if (action < 0.55 || live.empty()) {
      auto txn = tm.Begin();
      ASSERT_TRUE(tm.Insert(txn.get(), t, {Value::Int(step)}).ok());
      if (rng.Bernoulli(0.8)) {
        ASSERT_TRUE(tm.Commit(txn.get()).ok());
        live.push_back(t->Read().size() - 1);
      } else {
        ASSERT_TRUE(tm.Abort(txn.get()).ok());
      }
    } else {
      size_t pick = rng.Uniform(live.size());
      auto txn = tm.Begin();
      Status s = tm.Delete(txn.get(), t, live[pick]);
      ASSERT_TRUE(s.ok());
      if (rng.Bernoulli(0.8)) {
        ASSERT_TRUE(tm.Commit(txn.get()).ok());
        live.erase(live.begin() + static_cast<long>(pick));
      } else {
        ASSERT_TRUE(tm.Abort(txn.get()).ok());
      }
    }
    ASSERT_EQ(t->Read().CountVisible(tm.AutoCommitView()), live.size())
        << "seed=" << GetParam() << " step=" << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MvccHistories, ::testing::Range(1, 9));

// ---------- Gorilla codec: lossless on arbitrary walks ----------

class CodecRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(CodecRoundTrip, Lossless) {
  Random rng(GetParam());
  TimeSeries ts;
  int64_t t = static_cast<int64_t>(rng.Uniform(1000000));
  int n = 100 + static_cast<int>(rng.Uniform(2000));
  for (int i = 0; i < n; ++i) {
    // Mix of regular/irregular cadence and smooth/jumpy values.
    t += rng.Bernoulli(0.8) ? 1000 : static_cast<int64_t>(rng.Uniform(1000000));
    double v = rng.Bernoulli(0.7) ? 20.0 + (i % 5) : rng.NextGaussian() * 1e9;
    ts.Append(t, v);
  }
  CompressedSeries c = CompressedSeries::FromSeries(ts);
  auto back = c.Decompress();
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), ts.size());
  for (size_t i = 0; i < ts.size(); ++i) {
    ASSERT_EQ(back->timestamps[i], ts.timestamps[i]) << "seed=" << GetParam();
    ASSERT_EQ(back->values[i], ts.values[i]) << "seed=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecRoundTrip, ::testing::Range(1, 13));

// ---------- JSON: parse(serialize(x)) == x on generated documents ----------

class JsonRoundTrip : public ::testing::TestWithParam<int> {};

JsonValue RandomJson(Random* rng, int depth) {
  double pick = rng->NextDouble();
  if (depth <= 0 || pick < 0.3) {
    switch (rng->Uniform(4)) {
      case 0: return JsonValue::Null();
      case 1: return JsonValue::Bool(rng->Bernoulli(0.5));
      case 2: return JsonValue::Number(static_cast<double>(rng->UniformRange(-1000, 1000)));
      default: return JsonValue::Str(rng->NextString(rng->Uniform(10)));
    }
  }
  if (pick < 0.65) {
    std::vector<JsonValue> items;
    for (uint64_t i = 0; i < rng->Uniform(5); ++i) {
      items.push_back(RandomJson(rng, depth - 1));
    }
    return JsonValue::Array(std::move(items));
  }
  std::map<std::string, JsonValue> fields;
  for (uint64_t i = 0; i < rng->Uniform(5); ++i) {
    fields["k" + std::to_string(i)] = RandomJson(rng, depth - 1);
  }
  return JsonValue::Object(std::move(fields));
}

TEST_P(JsonRoundTrip, ParseSerializeIdentity) {
  Random rng(GetParam());
  for (int i = 0; i < 30; ++i) {
    JsonValue doc = RandomJson(&rng, 4);
    auto parsed = ParseJson(doc.Serialize());
    ASSERT_TRUE(parsed.ok()) << doc.Serialize();
    ASSERT_TRUE(*parsed == doc) << doc.Serialize();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundTrip, ::testing::Range(1, 7));

// ---------- Hierarchy: labels agree with a reference reachability ----------

class HierarchyInvariants : public ::testing::TestWithParam<int> {};

TEST_P(HierarchyInvariants, IntervalsMatchBruteForce) {
  Random rng(GetParam());
  Database db;
  TransactionManager tm;
  ColumnTable* t = *db.CreateTable(
      "n", Schema({ColumnDef("id", DataType::kInt64),
                   ColumnDef("parent", DataType::kInt64)}));
  int n = 30 + static_cast<int>(rng.Uniform(100));
  std::vector<int64_t> parent(n, -1);
  auto txn = tm.Begin();
  ASSERT_TRUE(tm.Insert(txn.get(), t, {Value::Int(0), Value::Null()}).ok());
  for (int i = 1; i < n; ++i) {
    parent[i] = static_cast<int64_t>(rng.Uniform(i));
    ASSERT_TRUE(tm.Insert(txn.get(), t, {Value::Int(i), Value::Int(parent[i])}).ok());
  }
  ASSERT_TRUE(tm.Commit(txn.get()).ok());
  HierarchyView h = *HierarchyView::Build(*t, tm.AutoCommitView(), "id", "parent");

  auto is_ancestor = [&](int64_t anc, int64_t node) {
    for (int64_t cur = node; cur != -1; cur = cur == 0 ? -1 : parent[cur]) {
      if (cur == anc && cur != node) return true;
    }
    return false;
  };
  Random probe(GetParam() + 100);
  for (int trial = 0; trial < 200; ++trial) {
    int64_t a = static_cast<int64_t>(probe.Uniform(n));
    int64_t b = static_cast<int64_t>(probe.Uniform(n));
    ASSERT_EQ(h.IsDescendant(b, a), is_ancestor(a, b))
        << "seed=" << GetParam() << " a=" << a << " b=" << b;
  }
  // Subtree sizes sum: root's descendants = n - 1.
  ASSERT_EQ(*h.CountDescendants(0), n - 1);
  // Descendants list length always equals CountDescendants.
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(static_cast<int64_t>(h.Descendants(i).size()), *h.CountDescendants(i));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HierarchyInvariants, ::testing::Range(1, 9));

// ---------- Disaggregation: exact-sum + proportionality bounds ----------

class DisaggregateProps : public ::testing::TestWithParam<int> {};

TEST_P(DisaggregateProps, SumExactAndNearProportional) {
  Random rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    int cells = 1 + static_cast<int>(rng.Uniform(20));
    std::vector<double> weights(cells);
    for (double& w : weights) w = rng.NextDouble() + 0.001;
    int64_t total = static_cast<int64_t>(rng.Uniform(100000));
    auto parts = DisaggregateInt(total, weights);
    ASSERT_TRUE(parts.ok());
    ASSERT_EQ(std::accumulate(parts->begin(), parts->end(), int64_t{0}), total);
    double wsum = std::accumulate(weights.begin(), weights.end(), 0.0);
    for (int i = 0; i < cells; ++i) {
      double exact = total * weights[i] / wsum;
      // Largest-remainder never deviates more than 1 unit from the floor.
      ASSERT_GE((*parts)[i], static_cast<int64_t>(std::floor(exact)));
      ASSERT_LE((*parts)[i], static_cast<int64_t>(std::floor(exact)) + 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DisaggregateProps, ::testing::Range(1, 6));

// ---------- Optimizer: rewritten plans produce identical results ----------

class OptimizerEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(OptimizerEquivalence, OptimizedPlanSameResult) {
  Random rng(GetParam());
  Database db;
  TransactionManager tm;
  ColumnTable* t = *db.CreateTable(
      "t", Schema({ColumnDef("a", DataType::kInt64), ColumnDef("b", DataType::kInt64)}));
  auto txn = tm.Begin();
  int n = 100 + static_cast<int>(rng.Uniform(400));
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(tm.Insert(txn.get(), t,
                          {Value::Int(static_cast<int64_t>(rng.Uniform(100))),
                           Value::Int(static_cast<int64_t>(rng.Uniform(100)))})
                    .ok());
  }
  ASSERT_TRUE(tm.Commit(txn.get()).ok());
  if (GetParam() % 2 == 0) t->Merge();

  int64_t x = static_cast<int64_t>(rng.Uniform(100));
  int64_t y = static_cast<int64_t>(rng.Uniform(100));
  // Filter chain with a constant subexpression thrown in.
  auto plan =
      PlanBuilder::Scan("t")
          .Filter(Expr::And(
              Expr::Compare(CmpOp::kGe, Expr::Column(0), Expr::Literal(Value::Int(x))),
              Expr::Literal(Value::Boolean(true))))
          .Filter(Expr::Compare(CmpOp::kLt, Expr::Column(1), Expr::Literal(Value::Int(y))))
          .Sort({{0, true}, {1, true}})
          .Build();
  Optimizer opt;
  PlanPtr optimized = opt.Optimize(plan);

  Executor e1(&db, tm.AutoCommitView());
  Executor e2(&db, tm.AutoCommitView());
  auto r1 = e1.Execute(plan);
  auto r2 = e2.Execute(optimized);
  ASSERT_TRUE(r1.ok() && r2.ok());
  ASSERT_EQ(r1->num_rows(), r2->num_rows()) << "seed=" << GetParam();
  for (size_t i = 0; i < r1->num_rows(); ++i) {
    ASSERT_EQ(r1->rows[i], r2->rows[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizerEquivalence, ::testing::Range(1, 9));

// ---------- Pruning soundness: pruned plans return identical results ----------

class PruningSoundness : public ::testing::TestWithParam<int> {};

TEST_P(PruningSoundness, SemanticAndStatsPrunersNeverChangeAnswers) {
  Random rng(GetParam());
  Database db;
  TransactionManager tm;
  ColumnTable* orders = *db.CreateTable(
      "orders", Schema({ColumnDef("id", DataType::kInt64),
                        ColumnDef("year", DataType::kInt64),
                        ColumnDef("open", DataType::kBool)}));
  int n = 300 + static_cast<int>(rng.Uniform(700));
  auto txn = tm.Begin();
  for (int i = 0; i < n; ++i) {
    bool old = rng.Bernoulli(0.7);
    int64_t year = old ? 2019 + static_cast<int64_t>(rng.Uniform(7)) : 2026;
    bool open = rng.Bernoulli(old ? 0.02 : 0.5);
    ASSERT_TRUE(tm.Insert(txn.get(), orders,
                          {Value::Int(i), Value::Int(year), Value::Boolean(open)})
                    .ok());
  }
  ASSERT_TRUE(tm.Commit(txn.get()).ok());

  AgingManager aging(&db, &tm);
  AgingRule rule;
  rule.name = "r";
  rule.table = "orders";
  rule.predicate = Expr::And(
      Expr::Compare(CmpOp::kLt, Expr::Column(1), Expr::Literal(Value::Int(2026))),
      Expr::Compare(CmpOp::kEq, Expr::Column(2), Expr::Literal(Value::Boolean(false))));
  rule.guarantee = {"year", CmpOp::kLt, Value::Int(2026)};
  ASSERT_TRUE(aging.AddRule(rule).ok());
  ASSERT_TRUE(aging.RunAging().ok());
  StatsPruner stats(&db, &tm);
  ASSERT_TRUE(stats.Analyze("orders", aging.Partitions("orders"), "year").ok());

  // Random predicates over year/open; every pruner must agree with the
  // unpruned union of all partitions.
  for (int trial = 0; trial < 20; ++trial) {
    int64_t y = 2018 + static_cast<int64_t>(rng.Uniform(10));
    CmpOp ops[] = {CmpOp::kLt, CmpOp::kLe, CmpOp::kGt, CmpOp::kGe, CmpOp::kEq};
    ExprPtr predicate = Expr::Compare(ops[rng.Uniform(5)], Expr::Column(1),
                                      Expr::Literal(Value::Int(y)));
    if (rng.Bernoulli(0.5)) {
      predicate = Expr::And(
          predicate, Expr::Compare(CmpOp::kEq, Expr::Column(2),
                                   Expr::Literal(Value::Boolean(rng.Bernoulli(0.5)))));
    }
    auto base_plan = PlanBuilder::Scan("orders").Filter(predicate).Build();

    // Reference: scan every partition explicitly, no pruner.
    auto all = std::make_shared<PlanNode>(*base_plan);
    Optimizer no_pruner;
    PlanPtr reference_plan = no_pruner.Optimize(base_plan);
    reference_plan = std::make_shared<PlanNode>(*reference_plan);
    reference_plan->scan_partitions = aging.Partitions("orders");
    Executor ref_exec(&db, tm.AutoCommitView());
    auto reference = ref_exec.Execute(reference_plan);
    ASSERT_TRUE(reference.ok());

    for (const PartitionPruner* pruner :
         {static_cast<const PartitionPruner*>(&aging),
          static_cast<const PartitionPruner*>(&stats)}) {
      Optimizer opt(pruner);
      Executor exec(&db, tm.AutoCommitView());
      auto rs = exec.Execute(opt.Optimize(base_plan));
      ASSERT_TRUE(rs.ok());
      ASSERT_EQ(rs->num_rows(), reference->num_rows())
          << "seed=" << GetParam() << " trial=" << trial
          << " predicate=" << predicate->ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PruningSoundness, ::testing::Range(1, 7));

// ---------- Parallel executor: random plans agree with the serial oracle ----------

class ParallelOracle : public ::testing::TestWithParam<int> {};

TEST_P(ParallelOracle, RandomPlansSerialVsParallel) {
  // 8 seeds x 25 trials = 200 random (table, plan, parallel-config) triples.
  // Every failure message carries seed + trial for exact reproduction.
  Random rng(GetParam() * 7919);
  for (int trial = 0; trial < 25; ++trial) {
    std::string ctx = "seed=" + std::to_string(GetParam()) +
                      " trial=" + std::to_string(trial);
    Database db;
    TransactionManager tm;
    ColumnTable* t = *db.CreateTable(
        "t", Schema({ColumnDef("a", DataType::kInt64),
                     ColumnDef("b", DataType::kInt64),
                     ColumnDef("c", DataType::kDouble)}));
    int n = static_cast<int>(rng.Uniform(400));
    auto txn = tm.Begin();
    for (int i = 0; i < n; ++i) {
      // c is an exact multiple of 0.25, so parallel FP sums are exact.
      ASSERT_TRUE(tm.Insert(txn.get(), t,
                            {Value::Int(static_cast<int64_t>(rng.Uniform(20))),
                             Value::Int(static_cast<int64_t>(rng.Uniform(1000))),
                             Value::Dbl(static_cast<double>(rng.Uniform(4000)) * 0.25)})
                      .ok());
    }
    ASSERT_TRUE(tm.Commit(txn.get()).ok());
    if (rng.Bernoulli(0.5)) t->Merge();
    if (n > 0 && rng.Bernoulli(0.5)) {
      auto del = tm.Begin();
      for (int d = 0; d < 10; ++d) {
        (void)tm.Delete(del.get(), t, rng.Uniform(static_cast<uint64_t>(n)));
      }
      ASSERT_TRUE(tm.Commit(del.get()).ok());
    }
    ColumnTable* dim = *db.CreateTable(
        "dim", Schema({ColumnDef("k", DataType::kInt64),
                       ColumnDef("payload", DataType::kInt64)}));
    auto dtxn = tm.Begin();
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(tm.Insert(dtxn.get(), dim,
                            {Value::Int(static_cast<int64_t>(rng.Uniform(20))),
                             Value::Int(i)})
                      .ok());
    }
    ASSERT_TRUE(tm.Commit(dtxn.get()).ok());

    // Random plan: scan [+ pushed predicate] [+ filter] then one of
    // {nothing, join, aggregate, sort+limit}.
    PlanBuilder builder = PlanBuilder::Scan("t");
    PlanPtr scan = std::move(builder).Build();
    if (rng.Bernoulli(0.5)) {
      CmpOp ops[] = {CmpOp::kLt, CmpOp::kLe, CmpOp::kGt, CmpOp::kGe, CmpOp::kEq};
      scan->scan_predicate =
          Expr::Compare(ops[rng.Uniform(5)], Expr::Column(rng.Uniform(2)),
                        Expr::Literal(Value::Int(static_cast<int64_t>(
                            rng.Uniform(rng.Bernoulli(0.5) ? 20 : 1000)))));
    }
    PlanBuilder chain = PlanBuilder::From(scan);
    if (rng.Bernoulli(0.4)) {
      chain = std::move(chain).Filter(
          Expr::Compare(CmpOp::kGe, Expr::Column(2),
                        Expr::Literal(Value::Dbl(rng.Uniform(1000) * 0.25))));
    }
    switch (rng.Uniform(4)) {
      case 0:
        break;
      case 1:
        chain = std::move(chain).HashJoin(PlanBuilder::Scan("dim").Build(),
                                          /*left_key=*/0, /*right_key=*/0);
        break;
      case 2: {
        std::vector<AggSpec> aggs;
        aggs.push_back({AggFunc::kCount, nullptr, "cnt"});
        aggs.push_back({AggFunc::kSum, Expr::Column(2), "sum_c"});
        aggs.push_back({AggFunc::kMin, Expr::Column(1), "min_b"});
        aggs.push_back({AggFunc::kMax, Expr::Column(2), "max_c"});
        if (rng.Bernoulli(0.5)) aggs.push_back({AggFunc::kAvg, Expr::Column(2), "avg_c"});
        std::vector<size_t> group_by;
        if (rng.Bernoulli(0.7)) group_by.push_back(0);
        chain = std::move(chain).Aggregate(group_by, aggs);
        break;
      }
      default:
        chain = std::move(chain)
                    .Sort({{rng.Uniform(3), rng.Bernoulli(0.5)}})
                    .Limit(1 + rng.Uniform(200));
    }
    PlanPtr plan = std::move(chain).Build();

    Executor serial(&db, tm.AutoCommitView());
    auto expect = serial.Execute(plan);
    ASSERT_TRUE(expect.ok()) << ctx << ": " << expect.status().ToString();

    ExecOptions opts;
    opts.num_threads = 2 + rng.Uniform(7);
    opts.morsel_rows = 1 + rng.Uniform(static_cast<uint64_t>(n) + 8);
    Executor parallel(&db, tm.AutoCommitView(), opts);
    auto got = parallel.Execute(plan);
    ASSERT_TRUE(got.ok()) << ctx << ": " << got.status().ToString();

    // Canonical comparison: the morsel merge is deterministic, so row
    // content AND order must match the serial oracle exactly.
    ASSERT_EQ(expect->num_rows(), got->num_rows())
        << ctx << " threads=" << opts.num_threads << " morsel=" << opts.morsel_rows
        << "\nplan:\n" << plan->ToString();
    for (size_t r = 0; r < expect->num_rows(); ++r) {
      ASSERT_EQ(expect->rows[r], got->rows[r])
          << ctx << " row=" << r << " threads=" << opts.num_threads
          << " morsel=" << opts.morsel_rows << "\nplan:\n" << plan->ToString();
    }
    EXPECT_EQ(serial.stats().rows_scanned, parallel.stats().rows_scanned) << ctx;
    EXPECT_EQ(serial.stats().rows_materialized, parallel.stats().rows_materialized)
        << ctx;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelOracle, ::testing::Range(1, 9));

// ---------- SOE log record encode/decode fuzz ----------

class LogRecordFuzz : public ::testing::TestWithParam<int> {};

TEST_P(LogRecordFuzz, RoundTripAndGarbageRejection) {
  Random rng(GetParam());
  SoeLogRecord rec;
  int writes = static_cast<int>(rng.Uniform(6));
  for (int w = 0; w < writes; ++w) {
    SoeWrite write;
    write.table = rng.NextString(1 + rng.Uniform(12));
    write.partition = rng.Uniform(64);
    int cols = static_cast<int>(rng.Uniform(5));
    for (int c = 0; c < cols; ++c) {
      switch (rng.Uniform(4)) {
        case 0: write.row.push_back(Value::Int(rng.UniformRange(-1000, 1000))); break;
        case 1: write.row.push_back(Value::Dbl(rng.NextGaussian())); break;
        case 2: write.row.push_back(Value::Str(rng.NextString(8))); break;
        default: write.row.push_back(Value::Null());
      }
    }
    rec.writes.push_back(std::move(write));
  }
  std::string encoded = rec.Encode();
  auto decoded = SoeLogRecord::Decode(encoded);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->writes.size(), rec.writes.size());
  for (size_t w = 0; w < rec.writes.size(); ++w) {
    EXPECT_EQ(decoded->writes[w].table, rec.writes[w].table);
    EXPECT_EQ(decoded->writes[w].partition, rec.writes[w].partition);
    EXPECT_EQ(decoded->writes[w].row, rec.writes[w].row);
  }
  // Truncations must fail cleanly, never crash.
  for (size_t cut = 0; cut < encoded.size(); cut += 1 + encoded.size() / 17) {
    auto truncated = SoeLogRecord::Decode(encoded.substr(0, cut));
    if (truncated.ok()) {
      // A prefix can only decode successfully if it encodes fewer writes.
      EXPECT_LE(truncated->writes.size(), rec.writes.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LogRecordFuzz, ::testing::Range(1, 9));

}  // namespace
}  // namespace poly
