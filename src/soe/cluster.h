#ifndef POLY_SOE_CLUSTER_H_
#define POLY_SOE_CLUSTER_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "soe/distributed_planner.h"
#include "soe/fault_schedule.h"
#include "soe/node.h"
#include "soe/services.h"
#include "soe/shared_log.h"

namespace poly {

/// Statistics of one distributed query.
struct DistributedQueryStats {
  size_t partitions = 0;
  size_t nodes_used = 0;
  uint64_t result_bytes_gathered = 0;
  uint64_t makespan_nanos = 0;  ///< max per-node local execution time
  uint64_t total_exec_nanos = 0;
  uint64_t retries = 0;    ///< fragment task attempts beyond the first
  uint64_t failovers = 0;  ///< tasks answered by a non-primary replica
  /// Node-to-node staged-input delivery bytes (shuffle/broadcast traffic;
  /// rows consumed on the node that produced them ride for free).
  uint64_t shuffle_bytes = 0;
  size_t fragments = 0;  ///< fragment tasks run, all stages (RunFragments)
};

/// Bounded-retry policy for cluster operations over the fault fabric:
/// exponential backoff with jitter, capped per attempt and by a virtual-time
/// operation deadline. Backoff waits advance the network's virtual clock
/// (and can therefore fire scheduled heal events).
struct RetryPolicy {
  int max_attempts = 5;
  uint64_t base_backoff_nanos = 200 * 1000;     ///< 200 µs first backoff
  uint64_t max_backoff_nanos = 20 * 1000 * 1000;   ///< 20 ms cap per wait
  uint64_t op_timeout_nanos = 400 * 1000 * 1000;   ///< 400 ms virtual deadline
};

/// The SAP HANA SOE as one object graph (Figure 3): query-processing nodes
/// (v2lqp), the distributed query coordinator (v2dqp), the transaction
/// broker over the CORFU-style shared log (v2transact), the catalog/data
/// discovery (v2catalog), discovery&auth (v2disc&auth), and the cluster
/// manager with its statistics service (v2clustermgr, v2stats). Nodes are
/// in-process objects; the network is a cost-accounted fault-injection
/// fabric (src/soe/network.h): a dropped message surfaces as a retried
/// call, never as silent success.
class SoeCluster {
 public:
  struct Options {
    int num_nodes = 4;
    int log_units = 3;
    int log_replication = 2;
    /// Passed through to SharedLog::Options::durable_dir: non-empty keeps
    /// each log unit in a RedoLog at `<dir>/unit<k>.log`, synced before a
    /// replica write counts, and a fresh cluster pointed at the same
    /// directory recovers the log on startup.
    std::string log_durable_dir;
    NodeMode default_mode = NodeMode::kOltp;
    SimulatedNetwork::Options net;
    RetryPolicy retry;
    uint64_t fault_seed = 42;  ///< seeds retry jitter (forked from net's stream)
  };

  explicit SoeCluster(Options options);

  // ---- DDL (catalog + cluster manager) ----

  /// Creates a distributed table: registers schema+spec, places each
  /// partition on `replication` nodes (round-robin), creates local tables.
  Status CreateTable(const std::string& name, const Schema& schema,
                     const PartitionSpec& spec, int replication = 1);

  // ---- Writes (transaction broker, v2transact) ----

  /// Commits one transaction of inserts; returns its commit offset. OLTP
  /// nodes hosting touched partitions apply synchronously; OLAP nodes lag
  /// until Poll. The append is retried under the RetryPolicy; an OK return
  /// means the record is durable in the log (node applies are best-effort
  /// — an unreachable node just stays stale until it next syncs).
  StatusOr<uint64_t> CommitInserts(const std::string& table, const std::vector<Row>& rows);
  StatusOr<uint64_t> Insert(const std::string& table, const Row& row) {
    return CommitInserts(table, {row});
  }

  // ---- Reads (distributed query coordinator, v2dqp) ----

  /// Executes a lowered distributed plan (DESIGN.md §14) — every
  /// distributed read, from a pruned scan to a shuffled join, runs here:
  /// stages run in topological order; partition-sited fragments retry with
  /// replica failover, node-sited shuffle consumers fail over to any live
  /// node. Repartition/broadcast outputs stay in coordinator mailboxes and
  /// are bound into the consumer task's row leaves; delivery is charged
  /// when the consuming task runs, one fabric message per producer node
  /// and staged input (co-located rows are free). Only gather stages pay
  /// coordinator traffic, one message per task result. Returns the last
  /// stage's gathered rows.
  StatusOr<ResultSet> RunFragments(const DistributedPlan& plan);

  /// One coordinator-side backoff step between whole-query attempts (the
  /// SQL bridge re-plans and re-runs after a mid-query node loss): waits
  /// the `attempt`-th backoff in virtual time and fires due fault events.
  void CoordinatorBackoff(int attempt);

  const DistributedQueryStats& last_query_stats() const { return last_stats_; }

  /// Coordinator-side tracing of distributed queries. When on, each
  /// RunFragments attaches an OperatorSpan tree to its ResultSet: the
  /// `DistributedQuery(<strategy>)` span on top, one child span per
  /// fragment task (labeled with its stage, partition table or task index,
  /// and serving node, timed in virtual nanos). The coordinator loop is
  /// single-threaded; tracing is not safe across concurrent distributed
  /// queries on one cluster.
  void set_trace(bool on) { trace_ = on; }
  const std::shared_ptr<OperatorSpan>& last_trace() const {
    return last_trace_;
  }

  // ---- Node lifecycle (cluster manager, v2clustermgr) ----

  Status SetNodeMode(int node, NodeMode mode);
  /// Simulates a node crash: discovery marks it down, the fabric isolates
  /// it, queries fail over. The node keeps its state and catches up from
  /// the log on restart.
  Status KillNode(int node);
  Status RestartNode(int node);
  /// Rebuilds all partitions of dead nodes onto live ones by replaying the
  /// shared log (the prepackaged-partition redistribution of §IV-B).
  /// Idempotent and resumable: interrupted replays continue from their
  /// per-partition watermark on the next call.
  Status Rebalance();

  /// OLAP catch-up ("updates can be incorporated by regularly polling the
  /// log"). Returns records applied.
  StatusOr<uint64_t> PollNode(int node);
  /// Commit offset lag of a node against the log tail.
  uint64_t Staleness(int node) const;

  // ---- Fault schedule (chaos harness) ----

  /// Installs a scripted fault sequence, fired as the virtual clock passes
  /// each event's time. Replaces any previous schedule.
  void InstallFaultSchedule(FaultSchedule schedule);
  /// Fires every due event; called automatically at operation boundaries
  /// and inside retry backoffs.
  void PumpFaults();
  size_t fault_events_fired() const { return fault_schedule_.fired(); }

  /// Total per-operation retry waits performed since construction.
  uint64_t total_retries() const { return total_retries_; }

  // ---- Introspection ----
  SoeNode* node(int id) { return nodes_[id].get(); }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  SharedLog& log() { return log_; }
  SimulatedNetwork& network() { return net_; }
  CatalogService& catalog() { return catalog_; }
  DiscoveryService& discovery() { return discovery_; }
  ClusterStatisticsService& statistics() { return stats_; }

  /// Cluster-wide metric registry (DESIGN.md §10). Every subsystem records
  /// here: the fault fabric (`soe.net.*`), the shared log (`soe.log.*`),
  /// the retry layer (`soe.retry.*`), the distributed query coordinator
  /// (`soe.dqp.*`), the transaction broker (`soe.txn.*`), the cluster
  /// manager (`soe.clustermgr.*`), and v2stats (`soe.node.<id>.*`).
  /// `metrics().TextPage()` is the cluster's Prometheus-style scrape.
  metrics::Registry& metrics() { return metrics_; }

 private:
  /// Brings an OLTP node up to the log tail before it serves a read.
  Status SyncForRead(SoeNode* node);
  /// Runs `op` with bounded retries/backoff on Unavailable. Non-retryable
  /// errors pass through unchanged.
  Status WithRetries(const char* what, const std::function<Status()>& op);
  /// The one retry wait every retry loop takes before retry `attempt`
  /// (0-based): exponential, capped, half jittered; counted in the retry
  /// metrics, slept in virtual time, then due fault events fire.
  void Backoff(int attempt);
  /// Runs one fragment task with bounded retries: each attempt walks the
  /// candidate nodes in order (skipping dead ones), charges dispatch, the
  /// staged-input `deliveries` (producer node, bytes) and, for gather
  /// stages, the result on the fabric, and executes the fragment on the
  /// serving node. Nothing merges until a full attempt succeeds, so
  /// retries never double-count.
  StatusOr<ResultSet> RunFragmentTask(
      const std::string& label, const std::vector<int>& candidates,
      bool sync_for_read, const PlanPtr& plan,
      const std::vector<std::pair<int, uint64_t>>& deliveries, bool gather_rows,
      int* served_by);
  /// When tracing: wraps the per-task spans collected since `trace_start`
  /// under a coordinator span and attaches it to `out` + last_trace().
  void FinishTrace(const std::string& label, uint64_t trace_start,
                   ResultSet* out);

  /// Cached registry pointers for the cluster's own layers (fabric and log
  /// cache their own); created once in the constructor.
  struct ClusterMetrics {
    metrics::Counter* retries = nullptr;           ///< soe.retry.count
    metrics::Counter* backoff_nanos = nullptr;     ///< soe.retry.backoff_nanos
    metrics::Histogram* backoff_hist = nullptr;    ///< soe.retry.backoff_wait_nanos
    metrics::Counter* dqp_queries = nullptr;       ///< soe.dqp.queries
    metrics::Counter* dqp_result_bytes = nullptr;  ///< soe.dqp.result_bytes
    metrics::Counter* dqp_shuffle_bytes = nullptr; ///< soe.dqp.shuffle_bytes
    metrics::Counter* dqp_fragments = nullptr;     ///< soe.dqp.fragments
    metrics::Counter* dqp_failovers = nullptr;     ///< soe.dqp.failovers
    metrics::Histogram* task_nanos = nullptr;      ///< soe.dqp.task_virtual_nanos
    metrics::Counter* txn_commits = nullptr;       ///< soe.txn.commits
    metrics::Counter* txn_rows = nullptr;          ///< soe.txn.rows_committed
    metrics::Counter* node_kills = nullptr;        ///< soe.clustermgr.node_kills
    metrics::Counter* node_restarts = nullptr;     ///< soe.clustermgr.node_restarts
    metrics::Counter* rebuilds = nullptr;          ///< soe.clustermgr.partition_rebuilds
    std::vector<metrics::Counter*> node_rpcs;      ///< soe.rpc.node.<id>.tasks
  };

  Options options_;
  metrics::Registry metrics_;  ///< must outlive every subsystem recording into it
  SimulatedNetwork net_;
  SharedLog log_;
  CatalogService catalog_;
  DiscoveryService discovery_;
  ClusterStatisticsService stats_;
  ClusterMetrics cm_;
  std::vector<std::unique_ptr<SoeNode>> nodes_;
  int next_placement_ = 0;
  DistributedQueryStats last_stats_;
  bool trace_ = false;
  std::vector<OperatorSpan> task_spans_;  ///< current query's task spans
  std::shared_ptr<OperatorSpan> last_trace_;
  FaultSchedule fault_schedule_;
  Random jitter_rng_;
  uint64_t total_retries_ = 0;
};

}  // namespace poly

#endif  // POLY_SOE_CLUSTER_H_
