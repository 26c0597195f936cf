// olap: one analytic client rotating four SQL shapes over a read-only,
// merged 500k-row orders table and a 10k-row customers table, with a
// 2-thread session. Dominated by the interpreted executor, morsel
// parallelism and engine choice; no point lookups and no writes, so a
// point-path change should leave it flat. Its materialized working set
// (hundreds of MB of rows) is far larger than the CPU caches.

#include <algorithm>
#include <iostream>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>

#include "common/random.h"
#include "span_trace.h"
#include "traced_stmt.h"
#include "workloads.h"

namespace polybench {

namespace {

constexpr size_t kBaseRows = 500000;
/// Two executor threads, not one per core: with a worker on every core
/// plus the client thread, any other process or host contention stalls the
/// morsel barrier, and on a 4-core machine run-to-run spread roughly
/// doubles.
constexpr size_t kThreads = 2;
const char* const kSegments[5] = {"auto", "building", "furniture", "household", "machinery"};

struct OlapEnv {
  poly::Database db;
  std::vector<Order> orders;
  std::vector<int> customer_segment;  ///< segment index of customer id
};

std::unique_ptr<OlapEnv> Setup(const RunConfig& cfg, size_t rows, size_t threads) {
  auto env = std::make_unique<OlapEnv>();
  env->orders = GenerateOrders(rows, cfg.seed);
  std::vector<Row> data;
  data.reserve(rows);
  for (const Order& o : env->orders) data.push_back(o.ToRow());
  if (BulkLoad(&env->db, "orders", OrdersSchema(), data) == nullptr) return nullptr;

  poly::Random rng(poly::Random::Mix(cfg.seed, 3));
  std::vector<Row> customers;
  for (int64_t id = 0; id < kCustomers; ++id) {
    int segment = static_cast<int>(rng.Uniform(5));
    env->customer_segment.push_back(segment);
    customers.push_back({Value::Int(id), Value::Str(kSegments[segment]),
                         Value::Int(static_cast<int64_t>(rng.Uniform(25)))});
  }
  poly::Schema schema({poly::ColumnDef("c_id", poly::DataType::kInt64),
                       poly::ColumnDef("c_segment", poly::DataType::kString),
                       poly::ColumnDef("c_nation", poly::DataType::kInt64)});
  if (BulkLoad(&env->db, "customers", std::move(schema), customers) == nullptr) return nullptr;

  poly::ExecOptions session;
  session.num_threads = threads;
  env->db.set_exec_options(session);
  return env;
}

/// One statement of the rotation with its literal, its SQL, and whether
/// the result order is part of its meaning.
struct Query {
  int shape = 0;
  int param = 0;
  std::string sql;
  bool ordered = false;
};

constexpr int kShapes = 4;
const char* const kShapeNames[kShapes] = {"q6_sum", "q1_groupby", "join_groupby", "topk_customer"};
/// Literal domain size per shape: Q6 (year x qty bound), Q1 (year bound),
/// join (region), top-k (year).
constexpr int kDomain[kShapes] = {14, 7, 6, 7};
/// Statement order. The join, second-fastest of the four (~23 ms against
/// top-k ~20, Q6 ~24, Q1 ~30), runs twice per rotation: it then holds the
/// 20th to 60th percentiles, so the median falls inside it rather than on
/// the gap between two shapes, where it would jump from run to run. The
/// 90th percentile falls inside the Q1 group-by, the slowest shape.
constexpr int kRotation[] = {0, 1, 2, 3, 2};
constexpr int kRotationLength = sizeof(kRotation) / sizeof(kRotation[0]);

Query MakeQuery(int shape, int param) {
  Query q{shape, param, "", false};
  switch (shape) {
    case 0:
      q.sql = "SELECT SUM(amount * qty) AS revenue, COUNT(*) AS n FROM orders WHERE year = " +
              std::to_string(2020 + param % 7) + " AND qty < " +
              std::to_string(param < 7 ? 20 : 30) + " AND amount >= 250";
      break;
    case 1:
      q.sql = "SELECT qty, COUNT(*) AS n, SUM(amount) AS s, AVG(amount) AS a, "
              "MIN(amount) AS lo, MAX(amount) AS hi FROM orders WHERE year <= " +
              std::to_string(2020 + param) + " GROUP BY qty";
      break;
    case 2:
      q.sql = "SELECT c_segment, COUNT(*) AS n, SUM(amount) AS s FROM orders "
              "JOIN customers ON customer = c_id WHERE region = '" +
              std::string(kRegions[param]) + "' GROUP BY c_segment";
      break;
    default:
      q.sql = "SELECT customer, SUM(amount) AS s, COUNT(*) AS n FROM orders WHERE year = " +
              std::to_string(2020 + param) +
              " GROUP BY customer ORDER BY s DESC, customer LIMIT 10";
      q.ordered = true;
      break;
  }
  return q;
}

/// The expected result of (shape, param), computed from the generator's
/// rows without the engine.
std::vector<Row> Reference(const OlapEnv& env, int shape, int param) {
  std::vector<Row> out;
  switch (shape) {
    case 0: {
      const int64_t year = 2020 + param % 7;
      const int64_t qty_bound = param < 7 ? 20 : 30;
      double revenue = 0;
      int64_t n = 0;
      for (const Order& o : env.orders) {
        if (o.year == year && o.qty < qty_bound && o.amount >= 250) {
          revenue += o.amount * static_cast<double>(o.qty);
          ++n;
        }
      }
      out.push_back({Value::Dbl(revenue), Value::Int(n)});
      break;
    }
    case 1: {
      struct Agg {
        int64_t n = 0;
        double sum = 0, lo = 1e300, hi = -1e300;
      };
      std::map<int64_t, Agg> groups;
      for (const Order& o : env.orders) {
        if (o.year > 2020 + param) continue;
        Agg& g = groups[o.qty];
        ++g.n;
        g.sum += o.amount;
        g.lo = std::min(g.lo, o.amount);
        g.hi = std::max(g.hi, o.amount);
      }
      for (const auto& [qty, g] : groups) {
        out.push_back({Value::Int(qty), Value::Int(g.n), Value::Dbl(g.sum),
                       Value::Dbl(g.sum / static_cast<double>(g.n)), Value::Dbl(g.lo),
                       Value::Dbl(g.hi)});
      }
      break;
    }
    case 2: {
      int64_t n[5] = {0, 0, 0, 0, 0};
      double sum[5] = {0, 0, 0, 0, 0};
      for (const Order& o : env.orders) {
        if (o.region != param) continue;
        int segment = env.customer_segment[o.customer];
        ++n[segment];
        sum[segment] += o.amount;
      }
      for (int s = 0; s < 5; ++s) {
        if (n[s] == 0) continue;
        out.push_back({Value::Str(kSegments[s]), Value::Int(n[s]), Value::Dbl(sum[s])});
      }
      break;
    }
    default: {
      std::unordered_map<int64_t, std::pair<double, int64_t>> per_customer;
      for (const Order& o : env.orders) {
        if (o.year != 2020 + param) continue;
        auto& acc = per_customer[o.customer];
        acc.first += o.amount;
        ++acc.second;
      }
      std::vector<std::pair<int64_t, std::pair<double, int64_t>>> ranked(per_customer.begin(),
                                                                          per_customer.end());
      std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
        if (a.second.first != b.second.first) return a.second.first > b.second.first;
        return a.first < b.first;
      });
      for (size_t i = 0; i < ranked.size() && i < 10; ++i) {
        out.push_back({Value::Int(ranked[i].first), Value::Dbl(ranked[i].second.first),
                       Value::Int(ranked[i].second.second)});
      }
      break;
    }
  }
  return out;
}

}  // namespace

int RunOlap(const RunConfig& cfg, const std::string& context) {
  const size_t rows = std::max<size_t>(1000, static_cast<size_t>(kBaseRows * cfg.scale));
  const size_t threads =
      std::min<size_t>(kThreads, std::max(1u, std::thread::hardware_concurrency()));

  std::unique_ptr<OlapEnv> env;
  double setup_s = TimedSetups(&env, [&] { return Setup(cfg, rows, threads); });
  if (env == nullptr) {
    std::cerr << "olap: set-up failed\n";
    return 1;
  }

  // References for every literal of every shape, computed before the timed
  // loop so checking never runs inside it.
  std::vector<std::vector<std::vector<Row>>> reference(kShapes);
  for (int s = 0; s < kShapes; ++s) {
    for (int p = 0; p < kDomain[s]; ++p) reference[s].push_back(Reference(*env, s, p));
  }

  // Warm-up, untimed: every statement once, so the worker pool exists and
  // first-touch page faults are paid before measuring.
  for (int s = 0; s < kShapes; ++s) {
    for (int p = 0; p < kDomain[s]; ++p) (void)env->db.Execute(MakeQuery(s, p).sql);
  }

  std::vector<std::vector<int>> literal_order;
  for (int s = 0; s < kShapes; ++s) {
    literal_order.push_back(SeededPermutation(kDomain[s], poly::Random::Mix(cfg.seed, 300 + s)));
  }
  std::vector<Sample> query_ns;
  std::vector<std::vector<uint64_t>> shape_ns(kShapes);
  std::vector<uint64_t> uses(kShapes, 0);
  uint64_t failed = 0;
  LoopTotals loop = RunClosedLoop(cfg, 1, [&](int, uint64_t i, bool traced) {
    const int shape = kRotation[i % kRotationLength];
    const Query q = MakeQuery(shape, literal_order[shape][uses[shape]++ % kDomain[shape]]);
    uint64_t t0 = NowNs();
    auto rs = traced ? TracedExecute(&env->db, q.sql, env->db.exec_options(),
                                     {{"shape", static_cast<double>(shape)}})
                     : env->db.Execute(q.sql);
    uint64_t dt = NowNs() - t0;
    if (!rs.ok() || !SameRows(rs->rows, reference[q.shape][q.param], q.ordered)) {
      ++failed;
      std::cerr << "olap: wrong result for " << q.sql << "\n";
    }
    if (!traced) {
      query_ns.push_back({t0 + dt, dt});
      shape_ns[shape].push_back(dt);
    }
    return dt;
  });
  const uint64_t attempted = loop.ops[0] + loop.ops[1];

  Report report;
  report.Info("olap: " + std::to_string(rows) + " orders + " + std::to_string(kCustomers) +
              " customers, 1 client, closed loop, session num_threads=" +
              std::to_string(threads) + ", four shapes in rotation, join twice");
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
  report.Metric("failed_ratio", attempted ? static_cast<double>(failed) / attempted : 0, "ratio");
  report.Info("samples: " + std::to_string(query_ns.size()) + " untraced statements");

  if (cfg.trace) {
    std::string counters;
    JsonField(&counters, "memory_bytes", static_cast<double>(env->db.MemoryBytes()));
    JsonField(&counters, "live_rows", static_cast<double>(rows + kCustomers));
    if (!FinishTrace(cfg, context, counters, loop, 1)) return 1;
  }
  report.Finish(failed == 0, attempted, failed);
  return 0;
}

}  // namespace polybench
