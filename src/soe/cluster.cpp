#include "soe/cluster.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "federation/federation.h"

namespace poly {

SoeCluster::SoeCluster(Options options)
    : options_(options),
      net_(options.net),
      log_(SharedLog::Options{options.log_units, options.log_replication,
                              options.log_durable_dir},
           &net_),
      stats_(&metrics_),
      jitter_rng_(Random::Mix(options.fault_seed, 0x6a17)) {
  net_.set_metrics(&metrics_);
  log_.set_metrics(&metrics_);
  cm_.retries = metrics_.counter("soe.retry.count");
  cm_.backoff_nanos = metrics_.counter("soe.retry.backoff_nanos");
  cm_.backoff_hist = metrics_.histogram("soe.retry.backoff_wait_nanos");
  cm_.dqp_queries = metrics_.counter("soe.dqp.queries");
  cm_.dqp_result_bytes = metrics_.counter("soe.dqp.result_bytes");
  cm_.dqp_shuffle_bytes = metrics_.counter("soe.dqp.shuffle_bytes");
  cm_.dqp_fragments = metrics_.counter("soe.dqp.fragments");
  cm_.dqp_failovers = metrics_.counter("soe.dqp.failovers");
  cm_.task_nanos = metrics_.histogram("soe.dqp.task_virtual_nanos");
  cm_.txn_commits = metrics_.counter("soe.txn.commits");
  cm_.txn_rows = metrics_.counter("soe.txn.rows_committed");
  cm_.node_kills = metrics_.counter("soe.clustermgr.node_kills");
  cm_.node_restarts = metrics_.counter("soe.clustermgr.node_restarts");
  cm_.rebuilds = metrics_.counter("soe.clustermgr.partition_rebuilds");
  for (int i = 0; i < options_.num_nodes; ++i) {
    cm_.node_rpcs.push_back(
        metrics_.counter("soe.rpc.node." + std::to_string(i) + ".tasks"));
    nodes_.push_back(std::make_unique<SoeNode>(i, options_.default_mode));
    discovery_.RegisterNode(i);
  }
}

// ---- fault schedule ----

void SoeCluster::InstallFaultSchedule(FaultSchedule schedule) {
  fault_schedule_ = std::move(schedule);
}

void SoeCluster::PumpFaults() {
  uint64_t now = net_.virtual_nanos();
  while (const FaultEvent* e = fault_schedule_.Peek()) {
    if (e->at_virtual_nanos > now) break;
    switch (e->kind) {
      case FaultEvent::Kind::kCrashNode:
        if (e->a >= 0 && e->a < num_nodes()) (void)KillNode(e->a);
        break;
      case FaultEvent::Kind::kRestartNode:
        if (e->a >= 0 && e->a < num_nodes()) (void)RestartNode(e->a);
        break;
      case FaultEvent::Kind::kPartition:
        net_.Partition(e->a, e->b);
        break;
      case FaultEvent::Kind::kPartitionOneWay:
        net_.PartitionOneWay(e->a, e->b);
        break;
      case FaultEvent::Kind::kHeal:
        net_.Heal(e->a, e->b);
        break;
      case FaultEvent::Kind::kHealAll:
        net_.HealAll();
        break;
      case FaultEvent::Kind::kSetDropRate: {
        SimulatedNetwork::Options opts = net_.options();
        opts.drop_probability = e->value;
        net_.set_options(opts);
        break;
      }
      case FaultEvent::Kind::kSetDuplicateRate: {
        SimulatedNetwork::Options opts = net_.options();
        opts.duplicate_probability = e->value;
        net_.set_options(opts);
        break;
      }
      case FaultEvent::Kind::kSetDelayRate: {
        SimulatedNetwork::Options opts = net_.options();
        opts.delay_probability = e->value;
        net_.set_options(opts);
        break;
      }
    }
    fault_schedule_.Pop();
  }
}

// ---- retry layer ----

void SoeCluster::Backoff(int attempt) {
  uint64_t backoff = options_.retry.base_backoff_nanos;
  for (int i = 0; i < attempt && backoff < options_.retry.max_backoff_nanos; ++i) {
    backoff *= 2;
  }
  backoff = std::min(backoff, options_.retry.max_backoff_nanos);
  // Half fixed + half jitter: desynchronizes competing retriers while the
  // seeded stream keeps every run replayable.
  uint64_t wait = backoff / 2 + jitter_rng_.Uniform(backoff / 2 + 1);
  ++total_retries_;
  cm_.retries->Add(1);
  cm_.backoff_nanos->Add(wait);
  cm_.backoff_hist->Observe(wait);
  net_.AdvanceVirtualTime(wait);
  PumpFaults();  // time passed: scheduled heals/cuts may fire
}

void SoeCluster::CoordinatorBackoff(int attempt) { Backoff(attempt); }

Status SoeCluster::WithRetries(const char* what, const std::function<Status()>& op) {
  uint64_t start = net_.virtual_nanos();
  Status st;
  for (int attempt = 0; attempt < options_.retry.max_attempts; ++attempt) {
    if (attempt > 0) {
      Backoff(attempt - 1);
      if (net_.virtual_nanos() - start >= options_.retry.op_timeout_nanos) {
        return Status::Unavailable(std::string(what) + " timed out after " +
                                   std::to_string(attempt) + " attempts: " + st.message());
      }
    }
    st = op();
    if (st.ok() || !st.IsUnavailable()) return st;  // only Unavailable is transient
  }
  return Status::Unavailable(std::string(what) + " failed after " +
                             std::to_string(options_.retry.max_attempts) +
                             " attempts: " + st.message());
}

Status SoeCluster::CreateTable(const std::string& name, const Schema& schema,
                               const PartitionSpec& spec, int replication) {
  if (replication < 1) replication = 1;
  if (replication > static_cast<int>(nodes_.size())) {
    return Status::InvalidArgument("replication exceeds cluster size");
  }
  POLY_RETURN_IF_ERROR(schema.IndexOf(spec.column).status());
  CatalogService::TableInfo info;
  info.schema = schema;
  info.spec = spec;
  info.replication = replication;
  info.placement.resize(spec.num_partitions);
  for (size_t p = 0; p < spec.num_partitions; ++p) {
    for (int r = 0; r < replication; ++r) {
      int node = (next_placement_ + r) % static_cast<int>(nodes_.size());
      info.placement[p].push_back(node);
      POLY_RETURN_IF_ERROR(nodes_[node]->HostPartition(name, p, schema));
    }
    next_placement_ = (next_placement_ + 1) % static_cast<int>(nodes_.size());
  }
  return catalog_.RegisterTable(name, std::move(info));
}

StatusOr<uint64_t> SoeCluster::CommitInserts(const std::string& table,
                                             const std::vector<Row>& rows) {
  PumpFaults();
  POLY_ASSIGN_OR_RETURN(const CatalogService::TableInfo* info, catalog_.Lookup(table));
  POLY_ASSIGN_OR_RETURN(size_t key_col, info->schema.IndexOf(info->spec.column));
  SoeLogRecord record;
  record.writes.reserve(rows.size());
  for (const Row& row : rows) {
    if (row.size() != info->schema.num_columns()) {
      return Status::InvalidArgument("row width mismatch for " + table);
    }
    SoeWrite w;
    w.table = table;
    w.partition = PartitionOf(row[key_col], info->spec);
    w.row = row;
    record.writes.push_back(std::move(w));
  }
  // v2transact: serialize + persist through the shared log; the offset is
  // the global commit timestamp. A failed append consumes no offset, so
  // the bounded retry below re-submits the identical record safely.
  std::string encoded = record.Encode();
  net_.Send(encoded.size());  // client -> broker (in-process control plane)
  uint64_t offset = 0;
  POLY_RETURN_IF_ERROR(WithRetries("log append", [&]() -> Status {
    POLY_ASSIGN_OR_RETURN(offset, log_.Append(encoded));
    return Status::OK();
  }));
  cm_.txn_commits->Add(1);
  cm_.txn_rows->Add(rows.size());
  // Catalog statistics for the distributed planner's join-strategy rule:
  // committed rows bump the table's row estimate exactly once (the append
  // consumed one offset; node-side applies/replays never touch it).
  if (auto stats_info = catalog_.MutableLookup(table); stats_info.ok()) {
    (*stats_info)->approx_rows += rows.size();
  }

  // OLTP nodes hosting touched partitions incorporate the log in-line.
  // Best-effort: the commit is already durable, so a node that stays
  // unreachable after retries simply remains stale until it next syncs.
  for (const SoeWrite& w : record.writes) {
    for (int n : info->placement[w.partition]) {
      if (!discovery_.IsAlive(n)) continue;
      if (nodes_[n]->mode() != NodeMode::kOltp) continue;
      if (nodes_[n]->applied_offset() > offset) continue;  // batch already applied
      (void)WithRetries("oltp apply", [&] { return nodes_[n]->ApplyUpTo(log_, offset + 1); });
    }
  }
  return offset;
}

Status SoeCluster::SyncForRead(SoeNode* node) {
  if (node->mode() == NodeMode::kOltp) {
    return node->ApplyUpTo(log_, log_.Tail());
  }
  return Status::OK();  // OLAP nodes serve their (possibly stale) snapshot
}

void SoeCluster::FinishTrace(const std::string& label, uint64_t trace_start,
                             ResultSet* out) {
  if (!trace_) return;
  auto root = std::make_shared<OperatorSpan>();
  root->label = label;
  for (OperatorSpan& task : task_spans_) {
    root->rows_in += task.rows_out;
    root->children.push_back(std::move(task));
  }
  task_spans_.clear();
  root->rows_out = out->rows.size();
  root->bytes_out = last_stats_.result_bytes_gathered;
  root->wall_nanos = net_.virtual_nanos() - trace_start;
  out->trace = root;
  last_trace_ = root;
}

StatusOr<ResultSet> SoeCluster::RunFragmentTask(
    const std::string& label, const std::vector<int>& candidates,
    bool sync_for_read, const PlanPtr& plan,
    const std::vector<std::pair<int, uint64_t>>& deliveries, bool gather_rows,
    int* served_by) {
  uint64_t start = net_.virtual_nanos();
  Status last = Status::Unavailable("no live node for " + label);
  for (int attempt = 0; attempt < options_.retry.max_attempts; ++attempt) {
    if (attempt > 0) {
      ++last_stats_.retries;
      Backoff(attempt - 1);
      if (net_.virtual_nanos() - start >= options_.retry.op_timeout_nanos) break;
    }
    // One pass over the candidate nodes per attempt: preferred site first,
    // then failover candidates.
    bool on_primary = true;
    for (int n : candidates) {
      if (!discovery_.IsAlive(n)) {
        on_primary = false;
        continue;
      }
      SoeNode* node = nodes_[n].get();
      ResultSet result;
      uint64_t exec_nanos = 0;
      uint64_t gathered = 0;
      uint64_t shuffled = 0;
      Status st = [&]() -> Status {
        // Task dispatch, optional freshness sync, staged-input delivery
        // (one message per producer node and input, charged at consumption
        // time — rows a node itself produced ride for free), local
        // execution, and for gather stages the result (one message to the
        // coordinator). Any lost message fails the whole task; nothing
        // merges until the round trip fully succeeds, so retries can never
        // double-count.
        POLY_RETURN_IF_ERROR(net_.Send(kCoordinatorEndpoint, n, 256));
        if (sync_for_read) POLY_RETURN_IF_ERROR(SyncForRead(node));
        for (const auto& [producer, bytes] : deliveries) {
          if (producer == n) continue;
          POLY_RETURN_IF_ERROR(net_.Send(producer, n, bytes));
          shuffled += bytes;
        }
        uint64_t before = node->busy_nanos();
        POLY_ASSIGN_OR_RETURN(result, node->ExecuteLocal(plan));
        exec_nanos = node->busy_nanos() - before;
        if (gather_rows) {
          for (const Row& row : result.rows) gathered += EstimateRowBytes(row);
          POLY_RETURN_IF_ERROR(net_.Send(n, kCoordinatorEndpoint, gathered));
        }
        return Status::OK();
      }();
      if (st.ok()) {
        if (!on_primary) {
          ++last_stats_.failovers;
          cm_.dqp_failovers->Add(1);
        }
        last_stats_.result_bytes_gathered += gathered;
        last_stats_.shuffle_bytes += shuffled;
        last_stats_.total_exec_nanos += exec_nanos;
        stats_.RecordQuery(n, 0, exec_nanos);
        if (n >= 0 && n < static_cast<int>(cm_.node_rpcs.size())) {
          cm_.node_rpcs[n]->Add(1);
        }
        cm_.task_nanos->Observe(net_.virtual_nanos() - start);
        if (trace_) {
          OperatorSpan task;
          task.label = label + "@node" + std::to_string(n);
          task.rows_out = result.rows.size();
          task.bytes_out = gathered + shuffled;
          task.wall_nanos = net_.virtual_nanos() - start;
          task_spans_.push_back(std::move(task));
        }
        *served_by = n;
        return result;
      }
      if (!st.IsUnavailable()) return st;  // execution errors are not transient
      last = st;
      on_primary = false;
    }
  }
  return Status::Unavailable(label + " failed after retries: " + last.message());
}

namespace {

/// Rows routed to one consumer task of a stage (or, for a broadcast, to
/// all of them), in arrival order, with the bytes each producer sent.
struct Mailbox {
  std::shared_ptr<ResultSet> rows;
  std::map<int, uint64_t> bytes_from;  ///< producer node -> payload bytes
};

/// One task's copy of a fragment plan (expressions stay shared): scans of
/// `table` read `part_table`, and every row leaf is bound to the rows
/// staged for this task under its name.
PlanPtr BindTask(const PlanPtr& plan, const std::string& table,
                 const std::string& part_table,
                 const std::map<std::string, std::shared_ptr<const ResultSet>>& inputs) {
  auto copy = std::make_shared<PlanNode>(*plan);
  if (copy->kind == PlanKind::kScan && copy->table == table) copy->table = part_table;
  if (copy->kind == PlanKind::kRows) {
    auto it = inputs.find(copy->table);
    if (it != inputs.end()) copy->rows = it->second;
  }
  for (auto& child : copy->children) child = BindTask(child, table, part_table, inputs);
  return copy;
}

}  // namespace

StatusOr<ResultSet> SoeCluster::RunFragments(const DistributedPlan& dplan) {
  PumpFaults();
  last_stats_ = DistributedQueryStats{};
  uint64_t trace_start = net_.virtual_nanos();
  if (trace_) task_spans_.clear();

  // Coordinator mailboxes: outbox[stage][consumer task]. Routing is decided
  // as soon as a producer task commits; delivery is charged when the
  // consuming task runs.
  std::vector<std::vector<Mailbox>> outbox(dplan.stages.size());

  std::vector<int> consumer_of(dplan.stages.size(), -1);
  for (size_t s = 0; s < dplan.stages.size(); ++s) {
    for (const StagedInput& in : dplan.stages[s].inputs) {
      if (in.producer_stage >= 0) consumer_of[in.producer_stage] = static_cast<int>(s);
    }
  }
  auto TaskCount = [](const FragmentStage& st) -> size_t {
    return st.by_partition ? st.partitions.size()
                           : static_cast<size_t>(std::max(1, st.num_tasks));
  };

  ResultSet gathered;
  gathered.column_names = dplan.gather_columns;
  std::unordered_map<int, uint64_t> node_nanos;

  for (size_t s = 0; s < dplan.stages.size(); ++s) {
    const FragmentStage& st = dplan.stages[s];
    size_t boxes = 0;
    if (st.mode == ExchangeMode::kBroadcast) {
      boxes = 1;
    } else if (st.mode == ExchangeMode::kRepartition) {
      if (consumer_of[s] < 0) {
        return Status::Internal("repartition stage has no consumer");
      }
      boxes = TaskCount(dplan.stages[consumer_of[s]]);
    }
    for (size_t b = 0; b < boxes; ++b) {
      auto rows = std::make_shared<ResultSet>();
      for (size_t c = 0; c < st.output_width; ++c) {
        rows->column_names.push_back("_c" + std::to_string(c));
      }
      outbox[s].push_back({std::move(rows), {}});
    }
    const CatalogService::TableInfo* info = nullptr;
    if (st.by_partition) {
      POLY_ASSIGN_OR_RETURN(info, catalog_.Lookup(st.table));
      last_stats_.partitions += st.partitions.size();
    }
    size_t ntasks = TaskCount(st);
    for (size_t t = 0; t < ntasks; ++t) {
      PumpFaults();  // task edges are the deterministic fault-firing points
      std::vector<int> candidates;
      std::string part_table;
      std::string label;
      if (st.by_partition) {
        size_t p = st.partitions[t];
        if (p >= info->placement.size()) {
          return Status::Internal("partition id out of range for " + st.table);
        }
        part_table = PartitionTableName(st.table, p);
        candidates = info->placement[p];
        label = "Fragment(" + st.label + ":" + part_table + ")";
      } else {
        // Shuffle consumers can run anywhere: preferred node rotates with
        // the task index, the rest of the live set is the failover order.
        std::vector<int> live = discovery_.LiveNodes();
        if (live.empty()) return Status::Unavailable("no live nodes for " + st.label);
        size_t off = t % live.size();
        candidates.assign(live.begin() + static_cast<std::ptrdiff_t>(off), live.end());
        candidates.insert(candidates.end(), live.begin(),
                          live.begin() + static_cast<std::ptrdiff_t>(off));
        label = "Fragment(" + st.label + ":t" + std::to_string(t) + ")";
      }
      std::map<std::string, std::shared_ptr<const ResultSet>> bound;
      std::vector<std::pair<int, uint64_t>> deliveries;
      for (const StagedInput& in : st.inputs) {
        const std::vector<Mailbox>& staged = outbox[in.producer_stage];
        const Mailbox& box = staged[staged.size() == 1 ? 0 : t];
        bound[in.name] = box.rows;
        deliveries.insert(deliveries.end(), box.bytes_from.begin(), box.bytes_from.end());
      }
      PlanPtr task_plan = BindTask(st.plan, st.table, part_table, bound);
      int served_by = -1;
      uint64_t before_exec = last_stats_.total_exec_nanos;
      POLY_ASSIGN_OR_RETURN(
          ResultSet part,
          RunFragmentTask(label, candidates, st.by_partition, task_plan, deliveries,
                          st.mode == ExchangeMode::kGather, &served_by));
      node_nanos[served_by] += last_stats_.total_exec_nanos - before_exec;
      ++last_stats_.fragments;
      if (st.mode == ExchangeMode::kGather) {
        for (Row& row : part.rows) gathered.rows.push_back(std::move(row));
        continue;
      }
      for (Row& row : part.rows) {
        size_t b = 0;
        if (st.mode == ExchangeMode::kRepartition) {
          // Same FNV fold as the executor's group/join keys: equal key
          // values always land on the same consumer.
          size_t h = 1469598103934665603ULL;
          for (size_t key : st.keys) h = (h ^ row[key].Hash()) * 1099511628211ULL;
          b = h % boxes;
        }
        Mailbox& box = outbox[s][b];
        box.bytes_from[served_by] += EstimateRowBytes(row);
        box.rows->rows.push_back(std::move(row));
      }
    }
  }

  last_stats_.nodes_used = node_nanos.size();
  for (const auto& [_, nanos] : node_nanos) {
    last_stats_.makespan_nanos = std::max(last_stats_.makespan_nanos, nanos);
  }
  cm_.dqp_queries->Add(1);
  cm_.dqp_result_bytes->Add(last_stats_.result_bytes_gathered);
  cm_.dqp_shuffle_bytes->Add(last_stats_.shuffle_bytes);
  cm_.dqp_fragments->Add(last_stats_.fragments);
  FinishTrace("DistributedQuery(" + dplan.strategy + ")", trace_start, &gathered);
  return gathered;
}

Status SoeCluster::SetNodeMode(int node, NodeMode mode) {
  if (node < 0 || node >= static_cast<int>(nodes_.size())) {
    return Status::InvalidArgument("no node " + std::to_string(node));
  }
  nodes_[node]->set_mode(mode);
  return Status::OK();
}

Status SoeCluster::KillNode(int node) {
  POLY_RETURN_IF_ERROR(discovery_.MarkDown(node));
  net_.SetEndpointDown(node, true);
  cm_.node_kills->Add(1);
  return Status::OK();
}

Status SoeCluster::RestartNode(int node) {
  POLY_RETURN_IF_ERROR(discovery_.MarkUp(node));
  net_.SetEndpointDown(node, false);
  cm_.node_restarts->Add(1);
  return Status::OK();
}

Status SoeCluster::Rebalance() {
  // For every partition whose replica set contains dead nodes, place a new
  // replica on the least-loaded live node not already hosting it, rebuilt
  // by replaying the shared log (partitions are "prepackaged" for exactly
  // this fast redistribution, §IV-B).
  PumpFaults();
  std::vector<int> live = discovery_.LiveNodes();
  if (live.empty()) return Status::Unavailable("no live nodes");
  for (const std::string& table : catalog_.TableNames()) {
    POLY_ASSIGN_OR_RETURN(CatalogService::TableInfo * info, catalog_.MutableLookup(table));
    for (size_t p = 0; p < info->placement.size(); ++p) {
      std::vector<int>& replicas = info->placement[p];
      int live_count = 0;
      for (int n : replicas) {
        if (discovery_.IsAlive(n)) ++live_count;
      }
      while (live_count < info->replication) {
        // Least-hosting live candidate not already in the replica set.
        int best = -1;
        size_t best_hosted = ~size_t{0};
        for (int n : live) {
          bool already = false;
          for (int r : replicas) already |= (r == n);
          if (already) continue;
          size_t hosted = nodes_[n]->HostedPartitions().size();
          if (hosted < best_hosted) {
            best_hosted = hosted;
            best = n;
          }
        }
        if (best < 0) break;  // not enough live nodes
        // History the node already skipped for this partition, then the
        // shared tail it has not reached yet. The whole rebuild retries as
        // a unit; the backfill cursor makes an interrupted replay resume
        // instead of double-applying (AlreadyExists marks such a resume).
        POLY_RETURN_IF_ERROR(WithRetries("partition rebuild", [&]() -> Status {
          Status hosted = nodes_[best]->HostPartition(table, p, info->schema);
          if (!hosted.ok() && hosted.code() != StatusCode::kAlreadyExists) return hosted;
          POLY_RETURN_IF_ERROR(nodes_[best]->BackfillPartition(log_, table, p));
          return nodes_[best]->ApplyUpTo(log_, log_.Tail());
        }));
        replicas.push_back(best);
        ++live_count;
        cm_.rebuilds->Add(1);
      }
    }
  }
  return Status::OK();
}

StatusOr<uint64_t> SoeCluster::PollNode(int node) {
  if (node < 0 || node >= static_cast<int>(nodes_.size())) {
    return Status::InvalidArgument("no node " + std::to_string(node));
  }
  PumpFaults();
  uint64_t before = nodes_[node]->records_applied();
  POLY_RETURN_IF_ERROR(WithRetries(
      "poll", [&] { return nodes_[node]->ApplyUpTo(log_, log_.Tail()); }));
  uint64_t applied = nodes_[node]->records_applied() - before;
  stats_.RecordApply(node, applied);
  return applied;
}

uint64_t SoeCluster::Staleness(int node) const {
  if (node < 0 || node >= static_cast<int>(nodes_.size())) return 0;
  return log_.Tail() - nodes_[node]->applied_offset();
}

}  // namespace poly
