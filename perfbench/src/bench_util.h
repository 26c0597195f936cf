#ifndef POLYBENCH_BENCH_UTIL_H_
#define POLYBENCH_BENCH_UTIL_H_

// Shared pieces of the benchmark program: run configuration, clocks,
// latency statistics, the closed-loop client runner, the orders generator
// shared by the single-node workloads, and result comparison.

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "query/result.h"
#include "storage/database.h"

namespace polybench {

using poly::Row;
using poly::Value;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// >0: every client runs exactly this many operations instead of running
  /// for `seconds` (the self-test uses it so counts repeat exactly).
  uint64_t ops = 0;
  /// Data-size multiplier; 1 is the benchmark, the self-test shrinks it.
  double scale = 1.0;
  std::string work_dir;    ///< scratch directory for the redo log
  std::string trace_path;  ///< span file of the traced run
};

uint64_t NowNs();
/// CPU time of the whole process (every thread), in nanoseconds.
uint64_t ProcessCpuNs();
/// VmHWM of this process in MiB.
double PeakRssMb();

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 when empty.
double Quantile(std::vector<uint64_t> v, double q);
double Median(std::vector<double> v);

/// One timed operation: when it completed and how long it took.
struct Sample {
  uint64_t end_ns = 0;
  uint64_t dt_ns = 0;
};
/// Quantile of the samples' latencies.
double Quantile(const std::vector<Sample>& samples, double q);

/// Prints metric lines ("metric <name> <value> <unit>") and the final JSON
/// line. Only names listed in BENCHMARK.json's end_to_end section go into
/// the JSON; every other line is informational.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit,
              bool end_to_end = false);
  void Info(const std::string& line);
  /// Prints the last stdout line: {"correct", "attempted", "failed", "metrics"}.
  void Finish(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> json_;
};

/// Per-phase totals of a closed-loop run. In a traced run, operations
/// alternate between untraced and traced execution so both see the same
/// data and machine state; `busy_ns` sums the timed intervals per phase.
struct LoopTotals {
  uint64_t start_ns = 0;
  uint64_t wall_ns = 0;
  uint64_t ops[2] = {0, 0};      ///< [untraced, traced]
  uint64_t busy_ns[2] = {0, 0};  ///< [untraced, traced]
  std::vector<uint64_t> end_ns;  ///< completion time of every operation
};

/// The end-to-end throughput and latencies are medians over kWindows equal
/// windows of the run's wall time, each window giving its own figure. A
/// stretch of contention from outside the process (other tenants of the
/// machine) that covers under half of the run then does not move them.
constexpr int kWindows = 5;
/// Median over windows of the operations completed per second.
double WindowedRate(const LoopTotals& loop);
/// Median over windows of the q-quantile of the latencies of the samples
/// that completed in each window; windows without samples are skipped.
double WindowedQuantile(const std::vector<Sample>& samples, double q, const LoopTotals& loop);

/// One operation of a client: runs op number `i` (traced or not) and
/// returns the nanoseconds of its timed interval.
using ClientOp = std::function<uint64_t(int client, uint64_t i, bool traced)>;

/// Closed loop: `clients` threads each issue the next operation as soon as
/// the previous one returns, until `cfg.seconds` pass or each has run
/// `cfg.ops` operations. With cfg.trace, every other block of operations
/// runs traced.
LoopTotals RunClosedLoop(const RunConfig& cfg, int clients, const ClientOp& op);

/// A seeded permutation of 0..n-1. Workloads walk each statement shape's
/// literal domain in such an order, so every run covers every literal
/// equally often and only the order depends on the seed.
std::vector<int> SeededPermutation(int n, uint64_t seed);

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

/// Runs `setup` kSetups times, keeping the last result; returns the median
/// wall seconds. Each earlier result is destroyed before the next set-up
/// starts.
template <typename T, typename F>
double TimedSetups(T* out, F setup) {
  std::vector<double> secs;
  for (int i = 0; i < kSetups; ++i) {
    out->reset();
    uint64_t t0 = NowNs();
    *out = setup();
    secs.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  return Median(secs);
}

// ---- orders generator (oltp and olap) -------------------------------------

/// One generated order. Amounts are multiples of 0.25 so sums over them are
/// exact in double precision whatever order they are added in.
struct Order {
  int64_t id = 0;
  int64_t customer = 0;
  int region = 0;
  double amount = 0;
  int64_t qty = 0;
  int64_t year = 0;
  Row ToRow() const;
};

extern const char* const kRegions[6];
constexpr int64_t kCustomers = 10000;
poly::Schema OrdersSchema();
/// `n` orders with ids 0..n-1 and Zipf(0.99)-skewed customers.
std::vector<Order> GenerateOrders(size_t n, uint64_t seed);
/// The order inserted at run time under `id`: a pure function of (seed, id).
Order InsertedOrder(int64_t id, uint64_t seed);

/// Creates `name` and appends `rows` as committed versions (a bulk load, no
/// redo log), then merges the delta into the main store.
poly::ColumnTable* BulkLoad(poly::Database* db, const std::string& name,
                            poly::Schema schema, const std::vector<Row>& rows);

// ---- result checking ------------------------------------------------------

/// Equal values; numbers compare with a 1e-9 relative tolerance (AVG).
bool SameValue(const Value& a, const Value& b);
/// Row-by-row equality; unordered results are sorted first.
bool SameRows(std::vector<Row> got, std::vector<Row> want, bool ordered);

}  // namespace polybench

#endif  // POLYBENCH_BENCH_UTIL_H_
