// oltp: point reads and short write transactions against one merged
// orders table, through Database::Execute and TransactionManager, with a
// file-backed redo log and a resource governor attached. Dominated by the
// storage scan (a point read visits every row today) and the txn/redo
// commit path; writes beside reads show an index, merge or commit change
// that slows the other side.

#include <atomic>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <iostream>
#include <memory>
#include <mutex>
#include <shared_mutex>

#include "common/random.h"
#include "resource/governor.h"
#include "span_trace.h"
#include "traced_stmt.h"
#include "txn/redo_log.h"
#include "txn/transaction_manager.h"
#include "workloads.h"

namespace polybench {

namespace {

constexpr size_t kBaseRows = 200000;
constexpr int kClients = 2;
constexpr uint64_t kMergeDeltaRows = 2000;
constexpr uint64_t kRecentNs = 1000ull * 1000 * 1000;

struct OltpEnv {
  // Declaration order is destruction order reversed: the governor must
  // outlive the tables bound to it, the registry the governor.
  poly::metrics::Registry registry;
  std::unique_ptr<poly::resource::ResourceGovernor> governor;
  poly::Database db;
  std::unique_ptr<poly::RedoLog> log;
  std::unique_ptr<poly::TransactionManager> tm;
  poly::ColumnTable* orders = nullptr;
  std::vector<Order> loaded;
};

std::unique_ptr<OltpEnv> Setup(const RunConfig& cfg, size_t rows,
                               const std::string& log_path) {
  auto env = std::make_unique<OltpEnv>();
  env->governor = std::make_unique<poly::resource::ResourceGovernor>(
      poly::resource::ResourceGovernor::Options{}, &env->registry);
  env->db.set_metrics_registry(&env->registry);
  env->db.set_resource_governor(env->governor.get());
  env->loaded = GenerateOrders(rows, cfg.seed);
  std::vector<Row> data;
  data.reserve(rows);
  for (const Order& o : env->loaded) data.push_back(o.ToRow());
  env->orders = BulkLoad(&env->db, "orders", OrdersSchema(), data);
  std::remove(log_path.c_str());
  auto log = poly::RedoLog::OpenFile(log_path);
  if (env->orders == nullptr || !log.ok()) return nullptr;
  env->log = std::move(*log);
  env->tm = std::make_unique<poly::TransactionManager>(env->log.get());
  return env;
}

struct ClientState {
  explicit ClientState(uint64_t seed, int c, size_t rows)
      : rng(poly::Random::Mix(seed, 100 + c)),
        key_rng(poly::Random::Mix(seed, 300 + c)),
        zipf(rows, 0.99, poly::Random::Mix(seed, 200 + c)) {}
  /// Operation kinds and write sizes: a fixed sequence per seed, so an
  /// op-bounded run writes exactly the same transactions every time.
  poly::Random rng;
  /// Which recent key a delta read picks (depends on what has committed).
  poly::Random key_rng;
  poly::ZipfGenerator zipf;
  std::vector<Sample> read_ns;
  std::vector<uint64_t> write_ns;
  uint64_t reads = 0, delta_reads = 0, writes = 0, failed = 0;
};

}  // namespace

int RunOltp(const RunConfig& cfg, const std::string& context) {
  const size_t rows = std::max<size_t>(1000, static_cast<size_t>(kBaseRows * cfg.scale));
  const uint64_t merge_rows =
      std::max<uint64_t>(16, static_cast<uint64_t>(kMergeDeltaRows * cfg.scale));
  const std::string log_path = cfg.work_dir + "/redo.log";

  std::unique_ptr<OltpEnv> env;
  double setup_s = TimedSetups(&env, [&] { return Setup(cfg, rows, log_path); });
  if (env == nullptr) {
    std::cerr << "oltp: set-up failed\n";
    return 1;
  }
  poly::Database& db = env->db;
  poly::TransactionManager& tm = *env->tm;

  std::vector<std::unique_ptr<ClientState>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<ClientState>(cfg.seed, c, rows));
  }
  std::atomic<int64_t> next_id{static_cast<int64_t>(rows)};
  std::atomic<uint64_t> committed_rows{0};
  std::mutex recent_mu;
  std::deque<std::pair<int64_t, uint64_t>> recent;  // (key, commit time)
  std::shared_mutex merge_mu;  // writers shared, Merge exclusive
  std::atomic<uint64_t> delta_rows{0};
  std::mutex merge_stats_mu;
  std::vector<uint64_t> merge_ns;

  auto expected = [&](int64_t key) {
    return key < static_cast<int64_t>(rows) ? env->loaded[key] : InsertedOrder(key, cfg.seed);
  };

  auto maybe_merge = [&](bool traced) {
    std::unique_lock<std::shared_mutex> lock(merge_mu);
    uint64_t delta = delta_rows.load();
    if (delta < merge_rows) return;
    uint64_t t0 = NowNs();
    if (traced) {
      Span span("storage.merge");
      span.Attr("delta_rows", static_cast<double>(delta));
      env->orders->Merge();
    } else {
      env->orders->Merge();
    }
    delta_rows.store(0);
    std::lock_guard<std::mutex> stats_lock(merge_stats_mu);
    merge_ns.push_back(NowNs() - t0);
  };

  auto read = [&](ClientState& st, bool traced) -> uint64_t {
    int64_t key = -1;
    if (st.key_rng.Uniform(5) == 0) {
      std::lock_guard<std::mutex> lock(recent_mu);
      uint64_t now = NowNs();
      while (!recent.empty() && now - recent.front().second > kRecentNs) recent.pop_front();
      if (!recent.empty()) key = recent[st.key_rng.Uniform(recent.size())].first;
    }
    const bool delta_key = key >= 0;
    if (!delta_key) {
      // Zipf rank -> key through a fixed bijection, so hot keys spread over
      // the table instead of sitting in its first rows.
      key = static_cast<int64_t>((st.zipf.Next() * 2654435761ull) % rows);
    }
    const std::string sql = "SELECT * FROM orders WHERE o_id = " + std::to_string(key);
    uint64_t t0 = NowNs();
    auto rs = traced ? TracedExecute(&db, sql, db.exec_options(),
                                     {{"delta_rows", static_cast<double>(delta_rows.load())},
                                      {"delta_key", delta_key ? 1.0 : 0.0}})
                     : db.Execute(sql);
    uint64_t dt = NowNs() - t0;
    ++st.reads;
    st.delta_reads += delta_key;
    if (!rs.ok() || !SameRows(rs->rows, {expected(key).ToRow()}, true)) ++st.failed;
    if (!traced) st.read_ns.push_back({t0 + dt, dt});
    return dt;
  };

  auto write = [&](ClientState& st, bool traced) -> uint64_t {
    const int n = 1 + static_cast<int>(st.rng.Uniform(4));
    const int64_t first = next_id.fetch_add(n);
    std::vector<Row> batch;
    for (int i = 0; i < n; ++i) batch.push_back(InsertedOrder(first + i, cfg.seed).ToRow());
    poly::Status status;
    auto keep_first_error = [&status](poly::Status s) {
      if (status.ok()) status = std::move(s);
    };
    uint64_t t0 = NowNs();
    {
      std::shared_lock<std::shared_mutex> lock(merge_mu);
      if (traced) {
        Span stmt("txn.stmt");
        std::unique_ptr<poly::Transaction> txn;
        {
          Span span("txn.begin");
          txn = tm.Begin();
        }
        for (const Row& row : batch) {
          Span span("txn.insert");
          keep_first_error(tm.Insert(txn.get(), env->orders, row));
        }
        Span span("txn.commit");
        keep_first_error(tm.Commit(txn.get()));
      } else {
        auto txn = tm.Begin();
        for (const Row& row : batch) keep_first_error(tm.Insert(txn.get(), env->orders, row));
        keep_first_error(tm.Commit(txn.get()));
      }
    }
    // A merge this write triggers counts in its latency: merge stalls are
    // part of the write path.
    if (delta_rows.fetch_add(n) + n >= merge_rows) maybe_merge(traced);
    uint64_t dt = NowNs() - t0;
    ++st.writes;
    if (!status.ok()) {
      ++st.failed;
    } else {
      committed_rows += n;
      std::lock_guard<std::mutex> lock(recent_mu);
      for (int i = 0; i < n; ++i) recent.emplace_back(first + i, NowNs());
    }
    if (!traced) st.write_ns.push_back(dt);
    return dt;
  };

  LoopTotals loop = RunClosedLoop(cfg, kClients, [&](int c, uint64_t, bool traced) {
    ClientState& st = *clients[c];
    return st.rng.Uniform(100) < 80 ? read(st, traced) : write(st, traced);
  });

  // Every committed row must be visible: the table holds exactly the
  // loaded rows plus the committed inserts.
  uint64_t failed = 0, attempted = 0, delta_reads = 0, reads = 0;
  std::vector<Sample> read_ns;
  std::vector<uint64_t> write_ns;
  for (const auto& st : clients) {
    failed += st->failed;
    attempted += st->reads + st->writes;
    reads += st->reads;
    delta_reads += st->delta_reads;
    read_ns.insert(read_ns.end(), st->read_ns.begin(), st->read_ns.end());
    write_ns.insert(write_ns.end(), st->write_ns.begin(), st->write_ns.end());
  }
  const uint64_t live_rows = rows + committed_rows.load();
  auto count = db.Execute("SELECT COUNT(*) AS n FROM orders");
  const bool count_ok = count.ok() && count->num_rows() == 1 &&
                        count->rows[0][0] == Value::Int(static_cast<int64_t>(live_rows));
  const bool correct = failed == 0 && count_ok;

  const uint64_t commits = tm.CurrentTimestamp() - 1;
  std::error_code ec;
  const uintmax_t log_bytes = std::filesystem::file_size(log_path, ec);

  Report report;
  report.Info("oltp: " + std::to_string(rows) + " rows, " + std::to_string(kClients) +
              " clients, closed loop, 80% point reads / 20% write txns, merge every " +
              std::to_string(merge_rows) + " delta rows");
  report.Metric("setup_s", setup_s, "s", true);
  report.Metric("ops_per_s", WindowedRate(loop), "ops/s", true);
  report.Metric("read_p50_us", WindowedQuantile(read_ns, 0.5, loop) / 1e3, "us", true);
  report.Metric("read_p90_us", WindowedQuantile(read_ns, 0.9, loop) / 1e3, "us", true);
  report.Metric("peak_rss_mb", PeakRssMb(), "MB", true);
  report.Metric("point_read_p50_us", Quantile(read_ns, 0.5) / 1e3, "us");
  report.Metric("point_read_p99_us", Quantile(read_ns, 0.99) / 1e3, "us");
  report.Metric("write_txn_p50_us", Quantile(write_ns, 0.5) / 1e3, "us");
  report.Metric("write_txn_p99_us", Quantile(write_ns, 0.99) / 1e3, "us");
  report.Metric("failed_ratio", attempted ? static_cast<double>(failed) / attempted : 0, "ratio");
  report.Info("samples: " + std::to_string(read_ns.size()) + " untraced point reads (" +
              std::to_string(delta_reads) + " of " + std::to_string(reads) +
              " on recent keys), " + std::to_string(write_ns.size()) + " untraced write txns, " +
              std::to_string(merge_ns.size()) + " merges; final row count " +
              (count_ok ? "ok" : "WRONG"));

  if (cfg.trace) {
    std::string counters;
    JsonField(&counters, "commits", static_cast<double>(commits));
    JsonField(&counters, "log_records", static_cast<double>(env->log->num_records()));
    JsonField(&counters, "log_file_bytes", static_cast<double>(ec ? 0 : log_bytes));
    JsonField(&counters, "merges", static_cast<double>(merge_ns.size()));
    double merge_total_ns = 0;
    for (uint64_t ns : merge_ns) merge_total_ns += static_cast<double>(ns);
    JsonField(&counters, "merge_ms_mean",
              merge_ns.empty() ? 0.0 : merge_total_ns / merge_ns.size() / 1e6);
    JsonField(&counters, "memory_bytes", static_cast<double>(db.MemoryBytes()));
    JsonField(&counters, "live_rows", static_cast<double>(live_rows));
    JsonField(&counters, "write_txn_p50_us", Quantile(write_ns, 0.5) / 1e3);
    JsonField(&counters, "write_txn_p99_us", Quantile(write_ns, 0.99) / 1e3);
    if (!FinishTrace(cfg, context, counters, loop, kClients)) return 1;
  }
  report.Finish(correct, attempted + 1, failed + (count_ok ? 0 : 1));
  return 0;
}

}  // namespace polybench
