// Late-materialization oracle (DESIGN.md §5): an aggregate that reads
// straight from a scan or a hash join folds the scan's selection, or the
// join's match pairs, into its group tables without materializing its
// input; a hash join reads its scan and row-leaf children in place; and
// the scan tests every `col op literal` conjunct of its pushed predicate
// on main-store value ids. The result must be indistinguishable from the
// same plan over materialized inputs — Exchange pass-throughs force that —
// in rows, row order, column names, ExecStats and span row counts, at 1, 2
// and 4 threads and two morsel sizes. Runs with the other parallel oracles
// under `ctest -L concurrency` (and so under TSan).

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "query/executor.h"
#include "query/optimizer.h"
#include "query/sql_parser.h"
#include "txn/transaction_manager.h"

namespace poly {
namespace {

bool IsAggregate(PlanKind kind) {
  return kind == PlanKind::kAggregate || kind == PlanKind::kPartialAggregate ||
         kind == PlanKind::kFinalAggregate;
}

/// Copy of `plan` with an Exchange pass-through under every aggregate that
/// reads straight from a scan or a join, and under every scan or row leaf
/// a join reads in place: the same plan, its aggregate and join inputs
/// materialized. `inserted` counts the pass-throughs.
PlanPtr Materialized(const PlanPtr& plan, int* inserted) {
  auto copy = std::make_shared<PlanNode>(*plan);
  for (PlanPtr& child : copy->children) child = Materialized(child, inserted);
  auto materialize = [&](PlanPtr* child) {
    *child = PlanBuilder::From(*child).Exchange(ExchangeMode::kGather).Build();
    ++*inserted;
  };
  if (IsAggregate(copy->kind) && (copy->children[0]->kind == PlanKind::kScan ||
                                  copy->children[0]->kind == PlanKind::kHashJoin)) {
    materialize(&copy->children[0]);
  }
  if (copy->kind == PlanKind::kHashJoin) {
    for (PlanPtr& child : copy->children) {
      if (child->kind == PlanKind::kScan || child->kind == PlanKind::kRows) materialize(&child);
    }
  }
  return copy;
}

/// Pre-order (label, rows_in, rows_out) of a span tree, every Exchange
/// span replaced by its children.
using SpanRow = std::tuple<std::string, uint64_t, uint64_t>;
void SpanRows(const OperatorSpan& span, std::vector<SpanRow>* out) {
  if (span.label.rfind("Exchange", 0) != 0) {
    out->emplace_back(span.label, span.rows_in, span.rows_out);
  }
  for (const OperatorSpan& child : span.children) SpanRows(child, out);
}

const PlanNode* FirstScan(const PlanNode& node) {
  if (node.kind == PlanKind::kScan) return &node;
  for (const PlanPtr& child : node.children) {
    if (const PlanNode* scan = FirstScan(*child)) return scan;
  }
  return nullptr;
}

struct Outcome {
  ResultSet rs;
  ExecStats stats;
  std::vector<SpanRow> spans;
};

class FoldParallelOracle : public ::testing::TestWithParam<int> {
 protected:
  /// t(a INT, s STRING, m INT/DOUBLE mix, c DOUBLE, w INT, big INT) with
  /// NULLs in a, s, m and w, loaded in batches that are merged or left in
  /// delta, with committed deletes; t2 is a second partition of t; d(k,
  /// label) joins on a = k. w has more distinct values than either morsel
  /// size, so its groups take the hashed slot index; big sits near
  /// INT64_MAX / 4, so a few rows overflow an int64 sum. w and big come
  /// from their own stream, leaving the other columns' data unchanged.
  void Load(Random* rng) {
    Schema schema({ColumnDef("a", DataType::kInt64), ColumnDef("s", DataType::kString),
                   ColumnDef("m", DataType::kDouble), ColumnDef("c", DataType::kDouble),
                   ColumnDef("w", DataType::kInt64), ColumnDef("big", DataType::kInt64)});
    ColumnTable* t = *db_.CreateTable("t", schema);
    ColumnTable* t2 = *db_.CreateTable("t2", schema);
    Random wide(Random::Mix(static_cast<uint64_t>(GetParam()), 17));
    auto value = [&](int col) -> Value {
      if (col == 4) {
        return wide.Bernoulli(0.05) ? Value::Null()
                                    : Value::Int(static_cast<int64_t>(wide.Uniform(300)));
      }
      if (col == 5) {
        int64_t sign = wide.Bernoulli(0.2) ? -1 : 1;
        return Value::Int(sign * (INT64_MAX / 4 - static_cast<int64_t>(wide.Uniform(1000))));
      }
      if (col < 3 && rng->Bernoulli(0.05)) return Value::Null();
      int64_t k = static_cast<int64_t>(rng->Uniform(20));
      switch (col) {
        case 0: return Value::Int(k);
        case 1: return Value::Str("s" + std::to_string(k % 8));
        case 2:
          switch (rng->Uniform(3)) {
            case 0: return Value::Int(k);
            case 1: return Value::Dbl(static_cast<double>(k));
            default: return Value::Dbl(static_cast<double>(k) + 0.5);
          }
        default:  // 0.1 steps are inexact: sums depend on the reduction tree
          return Value::Dbl(static_cast<double>(rng->Uniform(1000)) * 0.1);
      }
    };
    auto insert = [&](ColumnTable* table, int rows) {
      auto txn = tm_.Begin();
      for (int i = 0; i < rows; ++i) {
        ASSERT_TRUE(tm_.Insert(txn.get(), table,
                               {value(0), value(1), value(2), value(3), value(4), value(5)})
                        .ok());
      }
      ASSERT_TRUE(tm_.Commit(txn.get()).ok());
    };
    int batches = 1 + static_cast<int>(rng->Uniform(3));
    for (int b = 0; b < batches; ++b) {
      insert(t, static_cast<int>(rng->Uniform(250)));
      if (rng->Bernoulli(0.6)) t->Merge();
    }
    if (const uint64_t versions = t->Read().size(); versions > 0) {
      auto del = tm_.Begin();
      for (int d = 0; d < 8; ++d) (void)tm_.Delete(del.get(), t, rng->Uniform(versions));
      ASSERT_TRUE(tm_.Commit(del.get()).ok());
    }
    insert(t2, static_cast<int>(rng->Uniform(40)));
    if (rng->Bernoulli(0.5)) t2->Merge();

    ColumnTable* d = *db_.CreateTable(
        "d", Schema({ColumnDef("k", DataType::kInt64), ColumnDef("label", DataType::kString)}));
    auto txn = tm_.Begin();
    for (int i = 0; i < 30; ++i) {
      Value k = rng->Bernoulli(0.1) ? Value::Null()
                                    : Value::Int(static_cast<int64_t>(rng->Uniform(20)));
      ASSERT_TRUE(tm_.Insert(txn.get(), d, {k, Value::Str("L" + std::to_string(i % 5))}).ok());
    }
    ASSERT_TRUE(tm_.Commit(txn.get()).ok());
    if (rng->Bernoulli(0.5)) d->Merge();
  }

  /// A conjunction of 1–4 atoms over t: id-range shapes on several columns
  /// (int, mixed and string literals) and residual `!=`, OR, arithmetic
  /// and IS NULL atoms.
  static std::string Predicate(Random* rng) {
    auto num = [&] { return std::to_string(static_cast<int64_t>(rng->Uniform(22)) - 1); };
    const char* ops[] = {"<", "<=", ">", ">=", "="};
    std::string out;
    int atoms = 1 + static_cast<int>(rng->Uniform(4));
    for (int i = 0; i < atoms; ++i) {
      std::string atom;
      std::string op = ops[rng->Uniform(5)];
      switch (rng->Uniform(9)) {
        case 0: atom = "a " + op + " " + num(); break;
        case 1: atom = "m " + op + " " + num() + ".5"; break;
        case 2: atom = "m " + op + " " + num(); break;
        case 3: atom = "s " + op + " 's" + std::to_string(rng->Uniform(9)) + "'"; break;
        case 4: atom = "c " + op + " " + std::to_string(rng->Uniform(100)); break;
        case 5: atom = "a != " + num(); break;
        case 6:
          atom = "(a = " + num() + " OR s = 's" + std::to_string(rng->Uniform(8)) + "')";
          break;
        case 7: atom = "a + m > " + num(); break;
        default: atom = rng->Bernoulli(0.5) ? "s IS NULL" : "c * 2 < 90"; break;
      }
      out += (i ? " AND " : "") + atom;
    }
    return out;
  }

  PlanPtr Sql(const std::string& sql) {
    auto parsed = SqlParser(&db_).Parse(sql);
    EXPECT_TRUE(parsed.ok()) << sql << ": " << parsed.status().ToString();
    if (!parsed.ok()) return nullptr;
    return Optimizer(nullptr, &db_).Optimize(*parsed);
  }

  /// An unpruned scan of t with `pred` pushed, in table-column space.
  PlanPtr ScanT(const std::string& pred) {
    auto parsed = SqlParser(&db_).Parse("SELECT a, s, m, c FROM t WHERE " + pred);
    EXPECT_TRUE(parsed.ok()) << pred;
    if (!parsed.ok()) return nullptr;
    return std::make_shared<PlanNode>(*FirstScan(*Optimizer().Optimize(*parsed)));
  }

  /// Rows of d staged in memory, as a fragment's bound input: keys Int k,
  /// Double k, Double k + 0.5 and NULL, so some of them are `=` to each other.
  std::shared_ptr<const ResultSet> Staged() {
    auto staged = std::make_shared<ResultSet>();
    staged->column_names = {"k", "label"};
    for (int i = 0; i < 24; ++i) {
      Value k = i % 4 == 0   ? Value::Int(i % 20)
                : i % 4 == 1 ? Value::Dbl(i % 20)
                : i % 4 == 2 ? Value::Dbl(i % 20 + 0.5)
                             : Value::Null();
      staged->rows.push_back({k, Value::Str("S" + std::to_string(i % 3))});
    }
    return staged;
  }

  /// The shapes SQL does not produce: DISTINCT straight over its scan (SQL
  /// puts a Project in between), a partial/final pair, aggregates over a
  /// two-partition scan (one Value -> code map across both parts), and
  /// joins over a two-partition scan side, a self-join of t on the INT/DOUBLE
  /// mix m (Int k and Double k on one build side) and a join with a staged
  /// row side, each plain and under an aggregate.
  std::vector<PlanPtr> HandBuilt(const std::string& pred) {
    std::vector<AggSpec> aggs = {{AggFunc::kCount, nullptr, "n"},
                                 {AggFunc::kSum, Expr::Column(3), "sc"},
                                 {AggFunc::kAvg, Expr::Column(2), "am"},
                                 {AggFunc::kMin, Expr::Column(0), "lo"},
                                 {AggFunc::kMax, Expr::Column(1), "hi"},
                                 {AggFunc::kSum, Expr::Column(5), "sb"}};
    std::vector<PlanPtr> plans;
    plans.push_back(PlanBuilder::From(ScanT(pred)).Aggregate({1, 0}, {}).Build());
    plans.push_back(PlanBuilder::From(ScanT(pred))
                        .PartialAggregate({1}, aggs)
                        .Exchange(ExchangeMode::kRepartition, {0})
                        .FinalAggregate({0}, aggs)
                        .Build());
    PlanPtr parts = ScanT(pred);
    parts->scan_partitions = {"t", "t2"};
    plans.push_back(PlanBuilder::From(parts)
                        .Aggregate({0}, {aggs[0], aggs[1], aggs[4]})
                        .Build());
    plans.push_back(PlanBuilder::From(parts)
                        .Aggregate({4, 2}, {aggs[0], aggs[3], aggs[5]})
                        .Build());

    // Joined rows: t's six columns, then the right side's. The partitions
    // are the probe side of one join and the build side of another.
    std::vector<AggSpec> join_aggs = {{AggFunc::kCount, nullptr, "n"},
                                      {AggFunc::kSum, Expr::Column(3), "sc"},
                                      {AggFunc::kMin, Expr::Column(7), "lo"},
                                      {AggFunc::kSum, Expr::Arith(ArithOp::kMul, Expr::Column(0),
                                                                   Expr::Column(2)),
                                       "p"}};
    PlanPtr d = PlanBuilder::Scan("d").Build();
    PlanPtr parts_d = PlanBuilder::From(parts).HashJoin(d, 0, 0).Build();
    plans.push_back(parts_d);
    plans.push_back(PlanBuilder::From(parts_d).Aggregate({7}, join_aggs).Build());
    PlanPtr d_parts = PlanBuilder::From(d).HashJoin(parts, 0, 0).Build();
    plans.push_back(d_parts);
    plans.push_back(PlanBuilder::From(d_parts).Aggregate({1, 4}, {join_aggs[0]}).Build());
    PlanPtr self =
        PlanBuilder::From(ScanT(pred)).HashJoin(PlanBuilder::Scan("t").Build(), 2, 2).Build();
    plans.push_back(self);
    plans.push_back(PlanBuilder::From(self).Aggregate({8, 1}, join_aggs).Build());
    PlanPtr staged = PlanBuilder::From(ScanT(pred))
                         .HashJoin(PlanBuilder::Rows("staged", Staged()).Build(), 2, 0)
                         .Build();
    plans.push_back(staged);
    plans.push_back(PlanBuilder::From(staged).Aggregate({7}, join_aggs).Build());
    plans.push_back(PlanBuilder::Rows("staged", Staged())
                        .HashJoin(ScanT(pred), 0, 0)
                        .Aggregate({1}, {join_aggs[0], {AggFunc::kMax, Expr::Column(5), "hi"}})
                        .Build());
    return plans;
  }

  Outcome Execute(const PlanPtr& plan, size_t threads, size_t morsel) {
    ExecOptions opts;
    opts.num_threads = threads;
    opts.morsel_rows = morsel;
    opts.trace = true;
    Executor exec(&db_, tm_.AutoCommitView(), opts);
    auto rs = exec.Execute(plan);
    EXPECT_TRUE(rs.ok()) << rs.status().ToString() << "\n" << plan->ToString();
    Outcome out;
    if (!rs.ok()) return out;
    out.rs = *std::move(rs);
    out.stats = exec.stats();
    if (out.rs.trace) SpanRows(*out.rs.trace, &out.spans);
    return out;
  }

  void Check(const PlanPtr& plan, const std::string& ctx) {
    ASSERT_NE(plan, nullptr) << ctx;
    int inserted = 0;
    PlanPtr reference = Materialized(plan, &inserted);
    ASSERT_GT(inserted, 0) << ctx << ": nothing folds in\n" << plan->ToString();
    for (size_t threads : {1u, 2u, 4u}) {
      for (size_t morsel : {7u, 64u}) {
        std::string where = ctx + " threads=" + std::to_string(threads) +
                            " morsel=" + std::to_string(morsel) + "\n" + plan->ToString();
        Outcome fold = Execute(plan, threads, morsel);
        Outcome ref = Execute(reference, threads, morsel);
        ASSERT_EQ(fold.rs.column_names, ref.rs.column_names) << where;
        ASSERT_EQ(fold.rs.rows, ref.rs.rows) << where;
        EXPECT_EQ(fold.stats.rows_scanned, ref.stats.rows_scanned) << where;
        EXPECT_EQ(fold.stats.rows_materialized, ref.stats.rows_materialized) << where;
        EXPECT_EQ(fold.stats.id_range_scans, ref.stats.id_range_scans) << where;
        EXPECT_EQ(fold.stats.partitions_scanned, ref.stats.partitions_scanned) << where;
        EXPECT_EQ(fold.spans, ref.spans) << where;
      }
    }
  }

  Database db_;
  TransactionManager tm_;
};

TEST_P(FoldParallelOracle, FoldEqualsAggregateOverMaterializedInput) {
  // 8 seeds x 4 trials x 25 plans, each at 6 (threads, morsel) settings.
  // Every failure message carries seed + trial + SQL for reproduction.
  Random rng(static_cast<uint64_t>(GetParam()) * 104729);
  Load(&rng);
  for (int trial = 0; trial < 4; ++trial) {
    std::string pred = Predicate(&rng);
    std::string ctx = "seed=" + std::to_string(GetParam()) +
                      " trial=" + std::to_string(trial) + " WHERE " + pred;
    for (const std::string& sql : {
             "SELECT a, COUNT(*) AS n, SUM(c) AS sc, MIN(s) AS lo, MAX(m) AS hi, "
             "AVG(c) AS av FROM t WHERE " + pred + " GROUP BY a",
             "SELECT COUNT(*) AS n FROM t WHERE " + pred,
             "SELECT s, SUM(m) AS sm, SUM(a * m) AS p FROM t WHERE " + pred +
                 " GROUP BY s HAVING COUNT(*) > 1 AND MAX(c) > 20",
             "SELECT label, COUNT(*) AS n, SUM(c) AS sc, MIN(m) AS lo FROM t "
             "JOIN d ON a = k WHERE " + pred + " GROUP BY label",
             "SELECT COUNT(*) AS n, AVG(m) AS av FROM t JOIN d ON a = k WHERE " + pred,
             "SELECT m, COUNT(*) AS n, SUM(a) AS sa, MIN(c) AS lo, MAX(m) AS hi FROM t "
             "WHERE " + pred + " GROUP BY m",
             "SELECT w, COUNT(*) AS n, SUM(big) AS sb, MAX(s) AS hi FROM t WHERE " + pred +
                 " GROUP BY w",
             "SELECT s, COUNT(*) AS n, SUM(big) AS sb, MIN(label) AS lo FROM t JOIN d ON a = k "
             "WHERE " + pred + " GROUP BY s",
             "SELECT label, m, COUNT(*) AS n, SUM(big) AS sb, MAX(w) AS hi FROM t "
             "JOIN d ON a = k WHERE " + pred + " GROUP BY label, m",
             "SELECT a, s, label, c FROM t JOIN d ON a = k WHERE " + pred +
                 " ORDER BY label, c DESC",
             "SELECT label, COUNT(*) AS n, SUM(c) AS sc, MAX(m) AS hi FROM t "
             "JOIN d ON m = k WHERE " + pred + " GROUP BY label",
             "SELECT m, k, label FROM t JOIN d ON m = k WHERE " + pred}) {
      Check(Sql(sql), ctx + " | " + sql);
    }
    for (const PlanPtr& plan : HandBuilt(pred)) Check(plan, ctx + " | hand-built");
  }

  // A final aggregate over a scan folds too: stage the partials in a table.
  std::vector<AggSpec> aggs = {{AggFunc::kCount, nullptr, "n"},
                               {AggFunc::kAvg, Expr::Column(3), "ac"}};
  Executor exec(&db_, tm_.AutoCommitView());
  auto partial = exec.Execute(PlanBuilder::Scan("t").PartialAggregate({1}, aggs).Build());
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  ColumnTable* stage = *db_.CreateTable(
      "stage", Schema({ColumnDef("s", DataType::kString), ColumnDef("n", DataType::kInt64),
                       ColumnDef("sum", DataType::kDouble), ColumnDef("cnt", DataType::kInt64)}));
  for (const Row& row : partial->rows) ASSERT_TRUE(stage->AppendVersion(row, 1).ok());
  Check(PlanBuilder::Scan("stage").FinalAggregate({0}, aggs).Build(), "staged final");
}

INSTANTIATE_TEST_SUITE_P(Seeds, FoldParallelOracle, ::testing::Range(1, 9));

// A merge changes where values live, never what they are: seeded batches
// of Int k, Double k and Double k + 0.5 in one DOUBLE column read back the
// same values, with the same types, and group into the same groups before
// and after each merge (Int 3 and Double 3.0 are two groups).
TEST(MergeOracle, MixedIntDoubleValuesAndGroupsSurviveEachMerge) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    Database db;
    TransactionManager tm;
    ColumnTable* t = *db.CreateTable("t", Schema({ColumnDef("m", DataType::kDouble)}));
    Random rng(seed);
    auto run = [&](const std::string& sql) {
      auto rs = db.Execute(sql);
      EXPECT_TRUE(rs.ok()) << sql << ": " << rs.status().ToString();
      return rs.ok() ? rs->rows : std::vector<Row>{};
    };
    auto types = [](const std::vector<Row>& rows) {
      std::vector<DataType> out;
      for (const Row& row : rows) out.push_back(row[0].type());
      return out;
    };
    for (int batch = 0; batch < 4; ++batch) {
      auto txn = tm.Begin();
      for (int i = 0; i < 40; ++i) {
        auto k = static_cast<int64_t>(rng.Uniform(6));
        Value v = rng.Bernoulli(0.5) ? Value::Int(k)
                                     : Value::Dbl(static_cast<double>(k) +
                                                  (rng.Bernoulli(0.5) ? 0.5 : 0.0));
        ASSERT_TRUE(tm.Insert(txn.get(), t, {v}).ok());
      }
      ASSERT_TRUE(tm.Commit(txn.get()).ok());
      std::vector<Row> values = run("SELECT m FROM t");
      std::vector<Row> groups = run("SELECT m, COUNT(*) AS n FROM t GROUP BY m");
      t->Merge();
      std::string ctx = "seed=" + std::to_string(seed) + " batch=" + std::to_string(batch);
      EXPECT_EQ(run("SELECT m FROM t"), values) << ctx;
      EXPECT_EQ(types(run("SELECT m FROM t")), types(values)) << ctx;
      std::vector<Row> merged = run("SELECT m, COUNT(*) AS n FROM t GROUP BY m");
      EXPECT_EQ(merged, groups) << ctx;
      EXPECT_EQ(types(merged), types(groups)) << ctx;
    }
  }
}

// SUM over BIGINTs keeps an exact int64 sum until an add overflows, then
// returns the double sum, as mixed INT/DOUBLE input does. The rule holds in
// the fold, in the morsel merge and from partial to final aggregate, so
// local and distributed SUM agree.
TEST(AggregateSumTest, BigintOverflowReturnsTheDoubleSum) {
  Database db;
  TransactionManager tm;
  ColumnTable* t = *db.CreateTable("t", Schema({ColumnDef("x", DataType::kInt64)}));
  auto txn = tm.Begin();
  ASSERT_TRUE(tm.Insert(txn.get(), t, {Value::Int(INT64_MAX)}).ok());
  ASSERT_TRUE(tm.Insert(txn.get(), t, {Value::Int(1)}).ok());
  ASSERT_TRUE(tm.Commit(txn.get()).ok());
  const Value expected = Value::Dbl(9.223372036854775808e18);

  auto local = db.Execute("SELECT SUM(x) AS s FROM t");
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  EXPECT_EQ(local->rows, (std::vector<Row>{{expected}}));

  std::vector<AggSpec> sum = {{AggFunc::kSum, Expr::Column(0), "s"}};
  std::vector<PlanPtr> plans = {
      PlanBuilder::Scan("t").Aggregate({}, sum).Build(),
      PlanBuilder::Scan("t").Exchange(ExchangeMode::kGather).Aggregate({}, sum).Build(),
      PlanBuilder::Scan("t")
          .PartialAggregate({}, sum)
          .Exchange(ExchangeMode::kGather)
          .FinalAggregate({}, sum)
          .Build()};
  // One row per morsel: every add that overflows happens in the merge.
  ExecOptions one_row_morsels;
  one_row_morsels.num_threads = 2;
  one_row_morsels.morsel_rows = 1;
  for (const ExecOptions& opts : {ExecOptions(), one_row_morsels}) {
    for (const PlanPtr& plan : plans) {
      Executor exec(&db, tm.AutoCommitView(), opts);
      auto rs = exec.Execute(plan);
      ASSERT_TRUE(rs.ok()) << rs.status().ToString();
      EXPECT_EQ(rs->rows, (std::vector<Row>{{expected}}))
          << plan->ToString() << " morsel_rows=" << opts.morsel_rows;
    }
  }

  // Partial to final: two exact BIGINT partials whose sum overflows.
  auto partials = std::make_shared<ResultSet>();
  partials->column_names = {"s"};
  partials->rows = {{Value::Int(INT64_MAX)}, {Value::Int(1)}};
  Executor exec(&db, tm.AutoCommitView());
  auto final_sum =
      exec.Execute(PlanBuilder::Rows("partials", partials).FinalAggregate({}, sum).Build());
  ASSERT_TRUE(final_sum.ok()) << final_sum.status().ToString();
  EXPECT_EQ(final_sum->rows, (std::vector<Row>{{expected}}));
}

// MIN and MAX replace their value only when strictly better, so of two
// inputs that tie under Value::operator< (Int 3, Double 3.0) the first one
// in input order wins, in the fold, in the morsel merge, and over
// materialized rows alike.
TEST(AggregateTieTest, MinMaxKeepTheFirstOccurrenceOfATie) {
  for (bool int_first : {true, false}) {
    Database db;
    TransactionManager tm;
    ColumnTable* t = *db.CreateTable("t", Schema({ColumnDef("m", DataType::kDouble)}));
    auto txn = tm.Begin();
    Value first = int_first ? Value::Int(3) : Value::Dbl(3.0);
    Value second = int_first ? Value::Dbl(3.0) : Value::Int(3);
    for (const Value& v : {Value::Dbl(4.5), first, second, Value::Dbl(4.5)}) {
      ASSERT_TRUE(tm.Insert(txn.get(), t, {v}).ok());
    }
    ASSERT_TRUE(tm.Commit(txn.get()).ok());
    std::vector<AggSpec> aggs = {{AggFunc::kMin, Expr::Column(0), "lo"},
                                 {AggFunc::kMax, Expr::Column(0), "hi"}};
    ExecOptions one_row_morsels;
    one_row_morsels.num_threads = 2;
    one_row_morsels.morsel_rows = 1;
    for (bool merged : {false, true}) {
      if (merged) t->Merge();
      for (const ExecOptions& opts : {ExecOptions(), one_row_morsels}) {
        for (const PlanPtr& plan :
             {PlanBuilder::Scan("t").Aggregate({}, aggs).Build(),
              PlanBuilder::Scan("t").Exchange(ExchangeMode::kGather).Aggregate({}, aggs).Build()}) {
          Executor exec(&db, tm.AutoCommitView(), opts);
          auto rs = exec.Execute(plan);
          ASSERT_TRUE(rs.ok()) << rs.status().ToString();
          ASSERT_EQ(rs->rows.size(), 1u);
          EXPECT_EQ(rs->rows[0][0], first) << plan->ToString() << " merged=" << merged;
          EXPECT_EQ(rs->rows[0][1], Value::Dbl(4.5)) << plan->ToString();
        }
      }
    }
  }
}

// The mid-merge state a concurrent reader can pin: Merge republishes one
// column at a time, so column 0 may already be merged while the column an
// id range tests is not. Each range must check its own column's main size.
TEST(IdRangeScanTest, RangeColumnChecksItsOwnMainSize) {
  constexpr int kRows = 100000;
  Database db;
  ColumnTable* t = *db.CreateTable(
      "t", Schema({ColumnDef("a", DataType::kInt64), ColumnDef("b", DataType::kInt64)}));
  for (int i = 0; i < 2 * kRows; ++i) {
    ASSERT_TRUE(t->AppendVersion({Value::Int(i), Value::Int(i)}, 1).ok());
    if (i + 1 == kRows) t->Merge();
  }
  const_cast<Column&>(t->column(0)).Merge();
  {
    ColumnTable::ReadGuard g(t);
    ASSERT_EQ(g.col(0).main_size(), 2u * kRows);
    ASSERT_EQ(g.col(1).main_size(), static_cast<uint64_t>(kRows));
  }

  for (const std::string& sql :
       {std::string("SELECT * FROM t WHERE b = 150000"),
        std::string("SELECT * FROM t WHERE a >= 0 AND b = 150000")}) {
    auto rs = db.Execute(sql);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    ASSERT_EQ(rs->num_rows(), 1u) << sql;
    EXPECT_EQ(rs->rows[0], (Row{Value::Int(150000), Value::Int(150000)})) << sql;
  }
  auto n = db.Execute("SELECT COUNT(*) AS n FROM t WHERE a < 50 AND b >= 40");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n->rows[0][0], Value::Int(10));
}

// Conjuncts of one scan predicate are tested on value ids, column by
// column; the point-read signal still means "the whole predicate is one
// id-range atom".
TEST(IdRangeScanTest, ConjunctsTestValueIdsPerColumn) {
  Database db;
  TransactionManager tm;
  ColumnTable* t = *db.CreateTable(
      "t", Schema({ColumnDef("a", DataType::kInt64), ColumnDef("b", DataType::kInt64),
                   ColumnDef("s", DataType::kString)}));
  auto txn = tm.Begin();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(tm.Insert(txn.get(), t,
                          {Value::Int(i % 20), Value::Int(i % 7),
                           Value::Str("s" + std::to_string(i % 3))})
                    .ok());
  }
  ASSERT_TRUE(tm.Commit(txn.get()).ok());
  const std::vector<std::string> predicates = {
      "a >= 5 AND a < 8 AND b = 3",     // two ranges on a intersect, one on b
      "a < 10 AND s = 's1' AND b != 2",  // ranges on a and s, residual !=
      "a = 3 AND (b = 1 OR b = 2)",      // residual OR
      "a > 15 AND a + b > 20",           // residual arithmetic
      "a < 3 AND a > 10"};               // an empty intersection
  auto run_all = [&](uint64_t* point_reads) {
    std::vector<std::vector<Row>> out;
    for (const std::string& p : predicates) {
      auto parsed = SqlParser(&db).Parse("SELECT * FROM t WHERE " + p);
      EXPECT_TRUE(parsed.ok()) << p;
      Executor exec(&db, tm.AutoCommitView());
      auto rs = parsed.ok() ? exec.Execute(Optimizer(nullptr, &db).Optimize(*parsed))
                            : StatusOr<ResultSet>(parsed.status());
      EXPECT_TRUE(rs.ok()) << p;
      out.push_back(rs.ok() ? rs->rows : std::vector<Row>{});
      *point_reads += exec.stats().id_range_scans;
    }
    return out;
  };
  uint64_t point_reads = 0;
  std::vector<std::vector<Row>> delta = run_all(&point_reads);
  t->Merge();
  std::vector<std::vector<Row>> main = run_all(&point_reads);
  EXPECT_EQ(point_reads, 0u);
  for (size_t i = 0; i < predicates.size(); ++i) {
    EXPECT_EQ(delta[i], main[i]) << predicates[i];
  }
  EXPECT_EQ(main[0].size(), 4u);  // i = 45, 66, 87, 185
  EXPECT_TRUE(main[4].empty());
}

}  // namespace
}  // namespace poly
