#include "tiering/daemon.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace poly::tiering {

namespace {

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool IsAgedPartition(const std::string& name) {
  static constexpr char kSuffix[] = "$aged";
  static constexpr size_t kSuffixLen = sizeof(kSuffix) - 1;
  return name.size() > kSuffixLen &&
         name.compare(name.size() - kSuffixLen, kSuffixLen, kSuffix) == 0;
}

/// Policy options as the daemon actually runs them. Without a cold store
/// the warm->cold band is disabled outright (effective heat is clamped at
/// zero, so a negative threshold can never fire) — the daemon degrades to
/// exactly the old two-band behavior. With one, a cost factor of 0
/// ("derive") becomes the measured cold/warm byte-cost ratio.
TieringPolicy::Options EffectivePolicy(TieringPolicy::Options p,
                                       ExtendedStorage* warm,
                                       DfsTierStore* cold) {
  if (cold == nullptr) {
    p.cold_demote_threshold = -1.0;
    if (p.cold_move_cost_factor <= 0.0) p.cold_move_cost_factor = 1.0;
  } else if (p.cold_move_cost_factor <= 0.0) {
    p.cold_move_cost_factor = cold->CostFactorVersus(warm->options());
  }
  return p;
}

}  // namespace

TieringDaemon::TieringDaemon(Database* db, ExtendedStorage* storage,
                             DfsTierStore* cold, Options opts, AgingManager* aging)
    : db_(db),
      storage_(storage),
      cold_(cold),
      aging_(aging),
      opts_(opts),
      heat_(opts.heat),
      policy_(EffectivePolicy(opts.policy, storage, cold)) {
  opts_.policy = policy_.options();  // keep opts_ consistent with what runs
  metrics::Registry& reg = *db->metrics();
  m_epochs_ = reg.counter("tier.daemon.epochs");
  m_promotes_ = reg.counter("tier.daemon.promotes");
  m_demotes_ = reg.counter("tier.daemon.demotes");
  m_cold_promotes_ = reg.counter("tier.daemon.cold_promotes");
  m_cold_demotes_ = reg.counter("tier.daemon.cold_demotes");
  m_moved_bytes_ = reg.counter("tier.daemon.moved_bytes");
  m_priced_bytes_ = reg.counter("tier.daemon.priced_bytes");
  m_deferred_budget_ = reg.counter("tier.daemon.deferred_budget");
  m_deferred_cooldown_ = reg.counter("tier.daemon.deferred_cooldown");
  m_miss_promotes_ = reg.counter("tier.daemon.miss_promotes");
  m_epoch_errors_ = reg.counter("tier.daemon.epoch_errors");
  m_pressure_spills_ = reg.counter("tier.daemon.pressure_spills");
  m_pressure_spilled_bytes_ = reg.counter("tier.daemon.pressure_spilled_bytes");
  m_epoch_nanos_ = reg.histogram("tier.daemon.epoch_nanos");
  db_->set_access_observer(&heat_);
  db_->set_tier_resolver(this);
}

TieringDaemon::~TieringDaemon() {
  Stop();
  // Detach only if still ours: a later daemon may have replaced us.
  if (db_->access_observer() == &heat_) db_->set_access_observer(nullptr);
  if (db_->tier_resolver() == this) db_->set_tier_resolver(nullptr);
}

void TieringDaemon::Manage(const std::string& partition) {
  std::lock_guard<std::mutex> lock(state_mu_);
  managed_.insert(partition);
}

void TieringDaemon::Unmanage(const std::string& partition) {
  std::lock_guard<std::mutex> lock(state_mu_);
  managed_.erase(partition);
}

std::vector<std::string> TieringDaemon::Managed() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return {managed_.begin(), managed_.end()};
}

std::vector<std::string> TieringDaemon::CandidatePartitions() const {
  std::set<std::string> names;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    names = managed_;
  }
  if (aging_ != nullptr) {
    for (const AgingRule& rule : aging_->rules()) {
      std::string aged = AgingManager::AgedName(rule.table);
      if (db_->GetTable(aged).ok() || storage_->Contains(aged) ||
          (cold_ != nullptr && cold_->Contains(aged))) {
        names.insert(aged);
      }
    }
  }
  return {names.begin(), names.end()};
}

StatusOr<EpochReport> TieringDaemon::RunEpoch() {
  std::lock_guard<std::mutex> epoch_lock(epoch_mu_);
  uint64_t started = NowNanos();
  EpochReport report;

  if (opts_.run_aging && aging_ != nullptr) {
    POLY_ASSIGN_OR_RETURN(AgingStats aged, aging_->RunAging());
    report.rows_aged = aged.rows_aged;
  }

  report.epoch = heat_.AdvanceEpoch();

  std::vector<PartitionState> states;
  for (const std::string& name : CandidatePartitions()) {
    PartitionState s;
    s.partition = name;
    s.rule_aged = IsAgedPartition(name);
    s.heat = heat_.HeatOf(name);
    // Pinned: a pressure spill may drop the partition while it is sized.
    auto resident = db_->PinTable(name);
    if (resident.ok()) {
      s.residency = Residency::kHot;
      s.bytes = (*resident)->MemoryBytes();
    } else if (storage_->Contains(name)) {
      s.residency = Residency::kWarm;
      s.bytes = storage_->BytesOf(name);
    } else if (cold_ != nullptr && cold_->Contains(name)) {
      s.residency = Residency::kCold;
      s.bytes = cold_->BytesOf(name);
    } else {
      continue;  // unknown this epoch; nothing the daemon can move
    }
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      auto it = last_move_epoch_.find(name);
      s.last_move_epoch = it == last_move_epoch_.end() ? 0 : it->second;
    }
    states.push_back(std::move(s));
  }

  report.decisions = policy_.Decide(report.epoch, states);

  auto record_move = [&](TieringDecision& d) {
    report.moved_bytes += d.bytes;
    report.priced_bytes += d.priced_bytes;
    m_moved_bytes_->Add(d.bytes);
    m_priced_bytes_->Add(d.priced_bytes);
    std::lock_guard<std::mutex> lock(state_mu_);
    last_move_epoch_[d.partition] = report.epoch;
  };

  for (TieringDecision& d : report.decisions) {
    switch (d.action) {
      case TierAction::kPromote: {
        std::lock_guard<std::mutex> move_lock(move_mu_);
        if (db_->GetTable(d.partition).ok()) break;  // miss-promoted already
        Status moved = Status::OK();
        bool from_cold = false;
        if (storage_->Contains(d.partition)) {
          moved = storage_->Promote(db_, d.partition).status();
        } else if (cold_ != nullptr && cold_->Contains(d.partition)) {
          from_cold = true;
          moved = cold_->PageIn(db_, d.partition).status();
        } else {
          moved = Status::NotFound("'" + d.partition + "' in no tier");
        }
        if (!moved.ok()) {
          m_epoch_errors_->Add(1);
          d.reason += " [move failed: " + moved.ToString() + "]";
          break;
        }
        report.promotes++;
        m_promotes_->Add(1);
        if (from_cold) {
          report.cold_promotes++;
          m_cold_promotes_->Add(1);
        }
        record_move(d);
        break;
      }
      case TierAction::kPromoteFromCold: {
        std::lock_guard<std::mutex> move_lock(move_mu_);
        if (cold_ == nullptr || !cold_->Contains(d.partition)) break;
        Status moved = cold_->Raise(storage_, d.partition);
        if (!moved.ok()) {
          m_epoch_errors_->Add(1);
          d.reason += " [move failed: " + moved.ToString() + "]";
          break;
        }
        report.cold_promotes++;
        m_cold_promotes_->Add(1);
        record_move(d);
        break;
      }
      case TierAction::kDemote: {
        std::lock_guard<std::mutex> move_lock(move_mu_);
        if (!db_->GetTable(d.partition).ok()) break;  // already gone
        Status demoted = storage_->Demote(db_, d.partition);
        if (!demoted.ok()) {
          m_epoch_errors_->Add(1);
          d.reason += " [move failed: " + demoted.ToString() + "]";
          break;
        }
        report.demotes++;
        m_demotes_->Add(1);
        record_move(d);
        break;
      }
      case TierAction::kDemoteToCold: {
        std::lock_guard<std::mutex> move_lock(move_mu_);
        // A hot-tier miss may have pulled it back up while we decided; the
        // hot check is belt-and-braces — sinking anything while a live hot
        // copy exists would fork the partition into two diverging copies.
        if (cold_ == nullptr || db_->GetTable(d.partition).ok() ||
            !storage_->Contains(d.partition)) {
          break;
        }
        Status sunk = cold_->Sink(storage_, d.partition);
        if (!sunk.ok()) {
          m_epoch_errors_->Add(1);
          d.reason += " [move failed: " + sunk.ToString() + "]";
          break;
        }
        report.cold_demotes++;
        m_cold_demotes_->Add(1);
        record_move(d);
        break;
      }
      case TierAction::kDeferredBudget:
        report.deferred_budget++;
        m_deferred_budget_->Add(1);
        break;
      case TierAction::kDeferredCooldown:
        report.deferred_cooldown++;
        m_deferred_cooldown_->Add(1);
        break;
      case TierAction::kKeep:
        break;
    }
    RecordDecision(d);
  }

  m_epochs_->Add(1);
  m_epoch_nanos_->Observe(NowNanos() - started);
  return report;
}

StatusOr<std::shared_ptr<ColumnTable>> TieringDaemon::ResolveMissing(
    const std::string& table) {
  // No pre-lock tier check: a partition mid-sink (warm -> cold) is briefly
  // in neither store, and deciding NotFound on that snapshot would fail a
  // query that only needed to wait for the move to finish. Resolve entirely
  // under the movement lock instead.
  std::lock_guard<std::mutex> move_lock(move_mu_);
  // A concurrent query (or an epoch) may have promoted it while we waited.
  // Pin under the lock: no demotion can run until we return the reference.
  if (auto resident = db_->PinTable(table); resident.ok()) return resident;
  Residency from = Residency::kWarm;
  uint64_t bytes = 0;
  if (storage_->Contains(table)) {
    bytes = storage_->BytesOf(table);
    POLY_RETURN_IF_ERROR(storage_->Promote(db_, table).status());
  } else if (cold_ != nullptr && cold_->Contains(table)) {
    from = Residency::kCold;
    bytes = cold_->BytesOf(table);
    POLY_RETURN_IF_ERROR(cold_->PageIn(db_, table).status());
  } else {
    return Status::NotFound("tiering: '" + table + "' not in warm or cold storage");
  }
  POLY_ASSIGN_OR_RETURN(std::shared_ptr<ColumnTable> promoted,
                        db_->PinTable(table));
  m_miss_promotes_->Add(1);
  if (from == Residency::kCold) m_cold_promotes_->Add(1);
  {
    // On-demand promotion is a tier move: start the cooldown clock so the
    // next epoch does not immediately demote it back.
    std::lock_guard<std::mutex> lock(state_mu_);
    uint64_t epoch = heat_.epoch();
    last_move_epoch_[table] = epoch == 0 ? 1 : epoch;
    managed_.insert(table);  // it came from our storage; keep managing it
  }
  TieringDecision d;
  d.partition = table;
  d.action = TierAction::kPromote;
  d.from = from;
  d.effective_heat = heat_.HeatOf(table);
  d.bytes = bytes;
  d.priced_bytes = policy_.PricedBytes(bytes, from, Residency::kHot);
  d.epoch = heat_.epoch();
  d.reason = from == Residency::kCold
                 ? "hot-tier miss: demand-paged in from cold (DFS) by a query"
                 : "hot-tier miss: promoted on demand by a query";
  RecordDecision(d);
  return promoted;
}

uint64_t TieringDaemon::SpillForPressure(uint64_t bytes_to_free) {
  if (bytes_to_free == 0) return 0;

  // Coldest-first victim list: hot managed partitions ordered by ascending
  // heat. Snapshot outside the movement lock; each eviction re-checks
  // residency under it.
  struct Victim {
    std::string partition;
    double heat;
  };
  std::vector<Victim> victims;
  for (const std::string& name : CandidatePartitions()) {
    if (db_->GetTable(name).ok()) {
      victims.push_back({name, heat_.HeatOf(name)});
    }
  }
  std::sort(victims.begin(), victims.end(),
            [](const Victim& a, const Victim& b) { return a.heat < b.heat; });

  uint64_t freed = 0;
  for (const Victim& v : victims) {
    if (freed >= bytes_to_free) break;
    std::lock_guard<std::mutex> move_lock(move_mu_);
    auto resident = db_->PinTable(v.partition);
    if (!resident.ok()) continue;  // raced an epoch demote; already gone
    uint64_t bytes = (*resident)->MemoryBytes();
    Status demoted = storage_->Demote(db_, v.partition);
    if (!demoted.ok()) {
      m_epoch_errors_->Add(1);
      continue;
    }
    freed += bytes;
    m_demotes_->Add(1);
    m_moved_bytes_->Add(bytes);

    TieringDecision d;
    d.partition = v.partition;
    d.action = TierAction::kDemote;
    d.from = Residency::kHot;
    d.effective_heat = v.heat;
    d.bytes = bytes;
    d.priced_bytes = policy_.PricedBytes(bytes, Residency::kHot, Residency::kWarm);
    d.epoch = heat_.epoch();
    d.reason = "memory pressure: spilled to free " +
               std::to_string(bytes_to_free) + "B (coldest hot partition)";

    // Spill-to-cold: pressure evictions are the "this memory is needed NOW"
    // path, so push the victim all the way down when a cold store exists —
    // a warm stopover would just move the problem to the next spill.
    if (cold_ != nullptr) {
      uint64_t warm_bytes = storage_->BytesOf(v.partition);
      Status sunk = cold_->Sink(storage_, v.partition);
      if (sunk.ok()) {
        d.reason += " [sunk to cold]";
        m_cold_demotes_->Add(1);
        m_moved_bytes_->Add(warm_bytes);
        d.priced_bytes +=
            policy_.PricedBytes(warm_bytes, Residency::kWarm, Residency::kCold);
      } else {
        m_epoch_errors_->Add(1);
      }
    }
    m_priced_bytes_->Add(d.priced_bytes);
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      uint64_t epoch = heat_.epoch();
      last_move_epoch_[v.partition] = epoch == 0 ? 1 : epoch;
    }
    RecordDecision(d);
  }

  if (freed > 0) {
    m_pressure_spills_->Add(1);
    m_pressure_spilled_bytes_->Add(freed);
  }
  return freed;
}

void TieringDaemon::BindPressureBroker(resource::PressureBroker* broker) {
  broker->set_spill(
      [this](uint64_t bytes) { return SpillForPressure(bytes); });
}

void TieringDaemon::RecordDecision(const TieringDecision& decision) {
  std::lock_guard<std::mutex> lock(log_mu_);
  decision_log_.push_back(decision);
  while (decision_log_.size() > opts_.decision_log_capacity) decision_log_.pop_front();
  last_decision_[decision.partition] = decision;
}

std::vector<TieringDecision> TieringDaemon::DecisionLog() const {
  std::lock_guard<std::mutex> lock(log_mu_);
  return {decision_log_.begin(), decision_log_.end()};
}

std::string TieringDaemon::Explain(const std::string& partition) const {
  const char* tier = "absent";
  if (db_->GetTable(partition).ok()) {
    tier = "hot";
  } else if (storage_->Contains(partition)) {
    tier = "warm";
  } else if (cold_ != nullptr && cold_->Contains(partition)) {
    tier = "cold";
  }
  double heat = heat_.HeatOf(partition);

  uint64_t total_scans = 0, total_points = 0;
  for (const HeatSample& s : heat_.Snapshot()) {
    if (s.partition == partition) {
      total_scans = s.total_scans;
      total_points = s.total_point_reads;
      break;
    }
  }

  char head[256];
  std::snprintf(head, sizeof(head),
                "%s: tier=%s heat=%.2f epoch=%llu scans=%llu point_reads=%llu",
                partition.c_str(), tier, heat,
                static_cast<unsigned long long>(heat_.epoch()),
                static_cast<unsigned long long>(total_scans),
                static_cast<unsigned long long>(total_points));
  std::string out = head;

  std::vector<ColumnHeatSample> cols = heat_.ColumnSnapshot(partition);
  if (!cols.empty()) {
    out += "\n  column heat:";
    for (const ColumnHeatSample& c : cols) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), " %s=%.2f", c.column.c_str(), c.heat);
      out += buf;
    }
  }

  std::lock_guard<std::mutex> lock(log_mu_);
  auto it = last_decision_.find(partition);
  if (it == last_decision_.end()) {
    out += "\n  last decision: none (never considered)";
  } else {
    const TieringDecision& d = it->second;
    char line[384];
    std::snprintf(line, sizeof(line),
                  "\n  last decision: %s at epoch %llu (from=%s heat=%.2f, %lluB) — %s",
                  TierActionName(d.action),
                  static_cast<unsigned long long>(d.epoch), ResidencyName(d.from),
                  d.effective_heat, static_cast<unsigned long long>(d.bytes),
                  d.reason.c_str());
    out += line;
  }
  return out;
}

void TieringDaemon::Start() { Start(opts_.period); }

void TieringDaemon::Start(std::chrono::milliseconds period) {
  std::lock_guard<std::mutex> lock(thread_mu_);
  if (thread_.joinable()) return;
  stop_requested_ = false;
  thread_ = std::thread([this, period] {
    std::unique_lock<std::mutex> lock(thread_mu_);
    while (!stop_requested_) {
      if (thread_cv_.wait_for(lock, period, [this] { return stop_requested_; })) {
        break;
      }
      lock.unlock();
      auto report = RunEpoch();
      if (!report.ok()) m_epoch_errors_->Add(1);
      lock.lock();
    }
  });
}

void TieringDaemon::Stop() {
  std::thread joined;
  {
    std::lock_guard<std::mutex> lock(thread_mu_);
    if (!thread_.joinable()) return;
    stop_requested_ = true;
    joined = std::move(thread_);
  }
  thread_cv_.notify_all();
  joined.join();
}

bool TieringDaemon::running() const {
  std::lock_guard<std::mutex> lock(thread_mu_);
  return thread_.joinable();
}

}  // namespace poly::tiering
