// soe_sql: distributed SQL through SoeSqlBridge on a 4-node SoeCluster,
// with CommitInserts batches beside it. Dominated by plan lowering,
// fragment dispatch, exchange staging and the coordinator residual — the
// paths the single-node workloads never touch. Every result is checked
// against Database::Execute on a single-node mirror that receives the same
// inserts, at the mirror snapshot matching the statement.

#include <algorithm>
#include <iostream>
#include <memory>
#include <thread>

#include "common/random.h"
#include "query/executor.h"
#include "query/optimizer.h"
#include "query/sql_parser.h"
#include "soe/distributed_planner.h"
#include "soe/sql_bridge.h"
#include "span_trace.h"
#include "storage/mvcc.h"
#include "txn/transaction_manager.h"
#include "workloads.h"

namespace polybench {

namespace {

constexpr size_t kBaseFactRows = 100000;
constexpr int64_t kDimRows = 1000;     // below the planner's broadcast threshold
constexpr int64_t kCustRows = 20000;   // above it: joins with cust shuffle
constexpr int64_t kKeys = 5000;        // f_key domain (the partitioning column)
constexpr size_t kInsertBatch = 64;
constexpr size_t kLoadBatch = 1000;

poly::Schema FactSchema() {
  using poly::ColumnDef;
  using poly::DataType;
  return poly::Schema({ColumnDef("f_id", DataType::kInt64), ColumnDef("f_key", DataType::kInt64),
                       ColumnDef("f_dim", DataType::kInt64), ColumnDef("f_cust", DataType::kInt64),
                       ColumnDef("f_grp", DataType::kInt64), ColumnDef("f_day", DataType::kInt64),
                       ColumnDef("f_v", DataType::kInt64)});
}
poly::Schema DimSchema() {
  return poly::Schema({poly::ColumnDef("d_id", poly::DataType::kInt64),
                       poly::ColumnDef("d_cat", poly::DataType::kInt64)});
}
poly::Schema CustSchema() {
  return poly::Schema({poly::ColumnDef("c_id", poly::DataType::kInt64),
                       poly::ColumnDef("c_seg", poly::DataType::kInt64)});
}

/// Fact rows [first, first + n): a pure function of (seed, id). Values are
/// integers, so distributed partial aggregates merge exactly.
std::vector<Row> FactRows(int64_t first, size_t n, uint64_t seed) {
  std::vector<Row> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const int64_t id = first + static_cast<int64_t>(i);
    poly::Random rng(poly::Random::Mix(seed ^ 0xfac7, static_cast<uint64_t>(id)));
    out.push_back({Value::Int(id), Value::Int(static_cast<int64_t>(rng.Uniform(kKeys))),
                   Value::Int(static_cast<int64_t>(rng.Uniform(kDimRows))),
                   Value::Int(static_cast<int64_t>(rng.Uniform(kCustRows))),
                   Value::Int(static_cast<int64_t>(rng.Uniform(20))),
                   Value::Int(static_cast<int64_t>(rng.Uniform(7))),
                   Value::Int(static_cast<int64_t>(rng.Uniform(10000)))});
  }
  return out;
}

struct Tables {
  std::vector<Row> fact, dim, cust;
};

Tables Generate(size_t fact_rows, uint64_t seed) {
  Tables t;
  t.fact = FactRows(0, fact_rows, seed);
  poly::Random rng(poly::Random::Mix(seed, 4));
  for (int64_t id = 0; id < kDimRows; ++id) {
    t.dim.push_back({Value::Int(id), Value::Int(static_cast<int64_t>(rng.Uniform(20)))});
  }
  for (int64_t id = 0; id < kCustRows; ++id) {
    t.cust.push_back({Value::Int(id), Value::Int(static_cast<int64_t>(rng.Uniform(10)))});
  }
  return t;
}

std::unique_ptr<poly::SoeCluster> SetupCluster(const Tables& t) {
  poly::SoeCluster::Options opts;
  opts.num_nodes = 4;
  auto cluster = std::make_unique<poly::SoeCluster>(opts);
  struct Spec {
    const char* name;
    poly::Schema schema;
    poly::PartitionSpec partitioning;
    const std::vector<Row>* rows;
  };
  Spec specs[] = {{"fact", FactSchema(), poly::PartitionSpec::Hash("f_key", 8), &t.fact},
                  {"dim", DimSchema(), poly::PartitionSpec::Hash("d_id", 4), &t.dim},
                  {"cust", CustSchema(), poly::PartitionSpec::Hash("c_id", 8), &t.cust}};
  for (const Spec& s : specs) {
    if (!cluster->CreateTable(s.name, s.schema, s.partitioning, /*replication=*/2).ok()) {
      return nullptr;
    }
    for (size_t i = 0; i < s.rows->size(); i += kLoadBatch) {
      size_t end = std::min(s.rows->size(), i + kLoadBatch);
      std::vector<Row> batch(s.rows->begin() + i, s.rows->begin() + end);
      if (!cluster->CommitInserts(s.name, batch).ok()) return nullptr;
    }
  }
  return cluster;
}

constexpr int kShapes = 4;
const char* const kShapeNames[kShapes] = {"broadcast_join_agg", "shuffle_join_agg",
                                          "two_key_groupby", "pruned_scan"};
constexpr int kDomain[kShapes] = {8, 8, 8, 16};
/// Statement order. The broadcast join runs twice per rotation so that the
/// median statement falls inside one shape's latencies instead of on the
/// gap between two shapes, where it would jump from run to run.
constexpr int kRotation[] = {0, 1, 2, 3, 0};
constexpr int kRotationLength = sizeof(kRotation) / sizeof(kRotation[0]);

std::string MakeSql(int shape, int param) {
  const std::string bound = std::to_string(1000 * (param + 1));
  switch (shape) {
    case 0:
      return "SELECT d_cat, SUM(f_v) AS s, COUNT(*) AS n FROM fact JOIN dim ON f_dim = d_id "
             "WHERE f_v < " + bound + " GROUP BY d_cat";
    case 1:
      return "SELECT c_seg, SUM(f_v) AS s, COUNT(*) AS n FROM fact JOIN cust ON f_cust = c_id "
             "WHERE f_v < " + bound + " GROUP BY c_seg";
    case 2:
      return "SELECT f_grp, f_day, SUM(f_v) AS s, COUNT(*) AS n FROM fact WHERE f_v < " + bound +
             " GROUP BY f_grp, f_day";
    default:
      return "SELECT f_id, f_v FROM fact WHERE f_key = " + std::to_string(param * 313 % kKeys);
  }
}

bool HasProject(const poly::PlanNode& node) {
  if (node.kind == poly::PlanKind::kProject) return true;
  for (const auto& child : node.children) {
    if (HasProject(*child)) return true;
  }
  return false;
}

/// The coordinator residual of SoeSqlBridge (its private RunResidual),
/// spelled out with the same public calls: stage the gathered rows under
/// the residual input's name and run the residual plan over them.
poly::StatusOr<poly::ResultSet> RunResidual(const poly::DistributedPlan& dplan,
                                            poly::ResultSet gathered) {
  poly::Database staging;
  std::vector<poly::ColumnDef> defs;
  for (size_t c = 0; c < dplan.gather_columns.size(); ++c) {
    defs.emplace_back("_c" + std::to_string(c), poly::DataType::kInt64);
  }
  auto table = staging.CreateTable(dplan.residual_input, poly::Schema(std::move(defs)));
  if (!table.ok()) return table.status();
  for (const Row& row : gathered.rows) {
    auto appended = (*table)->AppendVersion(row, /*cts_stamp=*/1);
    if (!appended.ok()) return appended.status();
  }
  poly::Executor exec(&staging, poly::LatestCommittedView());
  auto rs = exec.Execute(dplan.residual);
  if (!rs.ok()) return rs;
  if (!HasProject(*dplan.residual) && rs->column_names.size() == dplan.gather_columns.size()) {
    rs->column_names = dplan.gather_columns;
  }
  return rs;
}

/// SoeSqlBridge::Execute spelled out as the public calls it makes, each in
/// a span under one "soe.stmt" span; the statement's self time is the
/// residual plus glue. Keep in step with src/soe/sql_bridge.cpp.
poly::StatusOr<poly::ResultSet> TracedSoeExecute(poly::SoeCluster* cluster,
                                                 poly::SoeSqlBridge* bridge,
                                                 const std::string& sql, int shape) {
  Span stmt("soe.stmt");
  stmt.Attr("shape", shape);
  poly::Database shell;
  {
    Span span("soe.bind");
    for (const std::string& name : cluster->catalog().TableNames()) {
      auto info = cluster->catalog().Lookup(name);
      if (!info.ok()) return info.status();
      auto created = shell.CreateTable(name, (*info)->schema);
      if (!created.ok()) return created.status();
    }
  }
  poly::PlanPtr plan;
  {
    Span span("soe.parse");
    auto parsed = poly::SqlParser(&shell).Parse(sql);
    if (!parsed.ok()) return parsed.status();
    plan = *parsed;
  }
  {
    Span span("soe.optimize");
    poly::Optimizer opt(nullptr, &shell);
    plan = opt.Optimize(plan);
  }
  constexpr int kMaxQueryAttempts = 3;
  poly::Status last = poly::Status::Unavailable("distributed query never attempted");
  for (int attempt = 0; attempt < kMaxQueryAttempts; ++attempt) {
    if (attempt > 0) {
      Span span("soe.backoff");
      cluster->CoordinatorBackoff(attempt - 1);
    }
    poly::StatusOr<poly::DistributedPlan> dplan = poly::Status::Internal("unplanned");
    {
      Span span("soe.plan");
      poly::DistributedPlanner planner(&cluster->catalog(), &cluster->discovery());
      dplan = planner.Plan(plan);
    }
    if (!dplan.ok()) return dplan.status();
    if (dplan->use_gather_fallback) {
      stmt.Attr("gather_fallback", 1);
      Span span("soe.gather");
      return bridge->GatherAndExecute(plan);
    }
    poly::StatusOr<poly::ResultSet> run = poly::Status::Internal("not run");
    {
      Span span("soe.fragments");
      run = cluster->RunFragments(*dplan);
      const poly::DistributedQueryStats& qs = cluster->last_query_stats();
      span.Attr("fragments", static_cast<double>(qs.fragments));
      span.Attr("shuffle_bytes", static_cast<double>(qs.shuffle_bytes));
      span.Attr("coordinator_bytes", static_cast<double>(qs.result_bytes_gathered));
      span.Attr("virtual_makespan_ns", static_cast<double>(qs.makespan_nanos));
      span.Attr("retries", static_cast<double>(qs.retries));
      span.Attr("failovers", static_cast<double>(qs.failovers));
    }
    if (!run.ok()) {
      if (!run.status().IsUnavailable()) return run.status();
      last = run.status();
      continue;
    }
    if (dplan->residual == nullptr) return run;
    return RunResidual(*dplan, std::move(*run));
  }
  return last;
}

/// A distributed result kept for checking after the timed loop.
struct Pending {
  int shape = 0;
  int param = 0;
  uint64_t mirror_ts = 0;  ///< mirror snapshot holding the same commits
  bool ok = false;
  std::vector<Row> rows;
};

}  // namespace

int RunSoeSql(const RunConfig& cfg, const std::string& context) {
  const size_t fact_rows = std::max<size_t>(1000, static_cast<size_t>(kBaseFactRows * cfg.scale));

  std::unique_ptr<poly::SoeCluster> cluster;
  double setup_s =
      TimedSetups(&cluster, [&] { return SetupCluster(Generate(fact_rows, cfg.seed)); });
  if (cluster == nullptr) {
    std::cerr << "soe_sql: set-up failed\n";
    return 1;
  }
  poly::SoeSqlBridge bridge(cluster.get());

  // Single-node mirror: the same rows, the same inserts, one node.
  const Tables tables = Generate(fact_rows, cfg.seed);
  poly::Database mirror;
  poly::TransactionManager mirror_tm;
  poly::ColumnTable* mirror_fact = BulkLoad(&mirror, "fact", FactSchema(), tables.fact);
  if (mirror_fact == nullptr || BulkLoad(&mirror, "dim", DimSchema(), tables.dim) == nullptr ||
      BulkLoad(&mirror, "cust", CustSchema(), tables.cust) == nullptr) {
    std::cerr << "soe_sql: mirror set-up failed\n";
    return 1;
  }

  // Warm-up, untimed and read-only: every statement once.
  for (int s = 0; s < kShapes; ++s) {
    for (int p = 0; p < kDomain[s]; ++p) (void)bridge.Execute(MakeSql(s, p));
  }

  std::vector<std::vector<int>> literal_order;
  for (int s = 0; s < kShapes; ++s) {
    literal_order.push_back(SeededPermutation(kDomain[s], poly::Random::Mix(cfg.seed, 400 + s)));
  }
  int64_t next_id = static_cast<int64_t>(fact_rows);
  uint64_t statements = 0;
  uint64_t shape_count[kShapes] = {0, 0, 0, 0};
  uint64_t failed = 0;
  uint64_t gathered_bytes = 0, shuffled_bytes = 0, fragments = 0, queries = 0;
  std::vector<Pending> pending;
  std::vector<Sample> query_ns;
  std::vector<uint64_t> commit_ns;
  std::vector<std::vector<uint64_t>> shape_ns(kShapes);

  LoopTotals loop = RunClosedLoop(cfg, 1, [&](int, uint64_t i, bool traced) -> uint64_t {
    if (i % 10 == 9) {
      std::vector<Row> batch = FactRows(next_id, kInsertBatch, cfg.seed);
      next_id += kInsertBatch;
      uint64_t t0 = NowNs();
      poly::StatusOr<uint64_t> offset = poly::Status::Internal("not run");
      if (traced) {
        Span span("soe.commit");
        span.Attr("rows", static_cast<double>(batch.size()));
        offset = cluster->CommitInserts("fact", batch);
      } else {
        offset = cluster->CommitInserts("fact", batch);
      }
      uint64_t dt = NowNs() - t0;
      if (!traced) commit_ns.push_back(dt);
      bool mirrored = true;
      auto txn = mirror_tm.Begin();
      for (const Row& row : batch) {
        mirrored = mirrored && mirror_tm.Insert(txn.get(), mirror_fact, row).ok();
      }
      mirrored = mirrored && mirror_tm.Commit(txn.get()).ok();
      if (!offset.ok() || !mirrored) ++failed;
      return dt;
    }
    const int shape = kRotation[statements++ % kRotationLength];
    const int param = literal_order[shape][shape_count[shape]++ % kDomain[shape]];
    const std::string sql = MakeSql(shape, param);
    uint64_t t0 = NowNs();
    auto rs = traced ? TracedSoeExecute(cluster.get(), &bridge, sql, shape) : bridge.Execute(sql);
    uint64_t dt = NowNs() - t0;
    const poly::DistributedQueryStats& qs = cluster->last_query_stats();
    ++queries;
    fragments += qs.fragments;
    shuffled_bytes += qs.shuffle_bytes;
    gathered_bytes += qs.result_bytes_gathered;
    if (!traced) {
      query_ns.push_back({t0 + dt, dt});
      shape_ns[shape].push_back(dt);
    }
    Pending p{shape, param, mirror_tm.CurrentTimestamp(), rs.ok(), {}};
    if (rs.ok()) p.rows = std::move(rs->rows);
    pending.push_back(std::move(p));
    return dt;
  });
  const uint64_t attempted = loop.ops[0] + loop.ops[1];

  // Checking runs after the timed loop; a parallel mirror session keeps it
  // short (results do not depend on the thread count).
  poly::ExecOptions check_opts;
  check_opts.num_threads = std::max(1u, std::thread::hardware_concurrency());
  for (const Pending& p : pending) {
    auto want = mirror.Execute(MakeSql(p.shape, p.param), poly::ReadView{p.mirror_ts, 0},
                               check_opts);
    if (!p.ok || !want.ok() || !SameRows(p.rows, want->rows, false)) {
      ++failed;
      std::cerr << "soe_sql: wrong result for " << MakeSql(p.shape, p.param) << "\n";
    }
  }

  Report report;
  report.Info("soe_sql: 4-node SoeCluster, fact " + std::to_string(fact_rows) +
              " rows (hash 8 ways, replication 2), dim " + std::to_string(kDimRows) +
              ", cust " + std::to_string(kCustRows) +
              "; 1 client, closed loop, 90% distributed SQL / 10% 64-row CommitInserts");
  report.Metric("setup_s", setup_s, "s", true);
  report.Metric("ops_per_s", WindowedRate(loop), "ops/s", true);
  report.Metric("read_p50_us", WindowedQuantile(query_ns, 0.5, loop) / 1e3, "us", true);
  report.Metric("read_p90_us", WindowedQuantile(query_ns, 0.9, loop) / 1e3, "us", true);
  report.Metric("peak_rss_mb", PeakRssMb(), "MB", true);
  report.Metric("query_p50_ms", Quantile(query_ns, 0.5) / 1e6, "ms");
  report.Metric("query_p90_ms", Quantile(query_ns, 0.9) / 1e6, "ms");
  for (int s = 0; s < kShapes; ++s) {
    report.Metric(std::string("query_p50_ms.") + kShapeNames[s], Quantile(shape_ns[s], 0.5) / 1e6,
                  "ms");
  }
  report.Metric("write_txn_p50_us", Quantile(commit_ns, 0.5) / 1e3, "us");
  report.Metric("write_txn_p99_us", Quantile(commit_ns, 0.99) / 1e3, "us");
  report.Metric("failed_ratio", attempted ? static_cast<double>(failed) / attempted : 0, "ratio");
  if (queries > 0) {
    report.Metric("fragments_per_query", static_cast<double>(fragments) / queries, "count");
    report.Metric("shuffle_kb_per_query", shuffled_bytes / 1024.0 / queries, "KB");
    report.Metric("coordinator_kb_per_query", gathered_bytes / 1024.0 / queries, "KB");
  }
  report.Info("samples: " + std::to_string(query_ns.size()) + " untraced statements, " +
              std::to_string(commit_ns.size()) + " untraced commits");

  if (cfg.trace) {
    std::string counters;
    JsonField(&counters, "write_txn_p50_us", Quantile(commit_ns, 0.5) / 1e3);
    JsonField(&counters, "write_txn_p99_us", Quantile(commit_ns, 0.99) / 1e3);
    if (!FinishTrace(cfg, context, counters, loop, 1)) return 1;
  }
  report.Finish(failed == 0, attempted, failed);
  return 0;
}

}  // namespace polybench
