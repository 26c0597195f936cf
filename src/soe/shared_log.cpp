#include "soe/shared_log.h"

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "txn/redo_log.h"

namespace poly {

SharedLog::SharedLog(Options options, SimulatedNetwork* net)
    : options_(options), net_(net) {
  if (options_.num_log_units < 1) options_.num_log_units = 1;
  if (options_.replication < 1) options_.replication = 1;
  if (options_.replication > options_.num_log_units) {
    options_.replication = options_.num_log_units;
  }
  units_.resize(options_.num_log_units);
  unit_alive_.assign(options_.num_log_units, true);
  if (!options_.durable_dir.empty()) LoadDurable();
}

SharedLog::~SharedLog() = default;

void SharedLog::LoadDurable() {
  std::error_code ec;
  std::filesystem::create_directories(options_.durable_dir, ec);  // a failure shows at open
  unit_logs_.resize(units_.size());
  uint64_t max_tail = 0;
  for (size_t unit = 0; unit < units_.size(); ++unit) {
    auto log = RedoLog::OpenFile(options_.durable_dir + "/unit" + std::to_string(unit) +
                                 ".log");
    std::map<uint64_t, std::string> records;
    Status read = log.status();
    if (read.ok()) {
      read = (*log)->ForEach([&](const std::string& rec) {
        uint64_t offset = 0;
        if (rec.size() < sizeof(offset)) return Status::Corruption("short log unit record");
        std::memcpy(&offset, rec.data(), sizeof(offset));
        records[offset] = rec.substr(sizeof(offset));
        return Status::OK();
      });
    }
    if (!read.ok()) {
      unit_alive_[unit] = false;  // starts down; its replicas are elsewhere
      continue;
    }
    if (!records.empty()) max_tail = std::max(max_tail, records.rbegin()->first + 1);
    units_[unit] = std::move(records);
    unit_logs_[unit] = std::move(*log);
  }
  sequencer_.store(max_tail, std::memory_order_release);
}

bool SharedLog::WriteReplica(int unit, uint64_t offset, const std::string& record) {
  if (!unit_logs_.empty()) {
    RedoLog* log = unit_logs_[unit].get();
    if (log == nullptr) return false;
    std::string framed(sizeof(offset), '\0');
    std::memcpy(framed.data(), &offset, sizeof(offset));
    framed += record;
    if (!log->Append(std::move(framed)).ok() || !log->Sync().ok()) return false;
  }
  // Keyed by offset: a duplicated delivery overwrites with the same
  // payload — chunk writes are idempotent by construction.
  units_[unit][offset] = record;
  return true;
}

void SharedLog::set_metrics(metrics::Registry* registry) {
  if (registry == nullptr) {
    metrics_ = LogMetrics{};
    return;
  }
  metrics_.appends = registry->counter("soe.log.appends");
  metrics_.append_failures = registry->counter("soe.log.append_failures");
  metrics_.replica_writes = registry->counter("soe.log.replica_writes");
  metrics_.reads = registry->counter("soe.log.reads");
  metrics_.read_failovers = registry->counter("soe.log.read_failovers");
  metrics_.rereplicated_records = registry->counter("soe.log.rereplicated_records");
}

std::vector<int> SharedLog::ReplicasOf(uint64_t offset) const {
  std::vector<int> replicas;
  for (int i = 0; i < options_.replication; ++i) {
    replicas.push_back(static_cast<int>((offset + i) % units_.size()));
  }
  return replicas;
}

StatusOr<uint64_t> SharedLog::Append(std::string record, int writer) {
  std::lock_guard<std::mutex> lock(mu_);
  // The offset is claimed only once at least one replica holds the record:
  // a fully failed append consumes nothing, keeps the log dense, and makes
  // the caller's retry of the same record safe (no hole to fill).
  uint64_t offset = sequencer_.load(std::memory_order_relaxed);
  int written = 0;
  for (int unit : ReplicasOf(offset)) {
    if (!unit_alive_[unit]) continue;
    if (net_) {
      Status sent = net_->Send(writer, LogUnitEndpoint(unit), record.size() + 16);
      if (!sent.ok()) continue;  // this replica missed the write
    }
    if (WriteReplica(unit, offset, record)) ++written;
  }
  if (written == 0) {
    if (metrics_.append_failures != nullptr) metrics_.append_failures->Add(1);
    return Status::Unavailable("no log replica reachable for offset " +
                               std::to_string(offset));
  }
  if (metrics_.appends != nullptr) {
    metrics_.appends->Add(1);
    metrics_.replica_writes->Add(written);
  }
  sequencer_.store(offset + 1, std::memory_order_release);
  return offset;
}

StatusOr<std::string> SharedLog::Read(uint64_t offset, int reader) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (offset >= sequencer_.load(std::memory_order_acquire)) {
    return Status::OutOfRange("offset beyond log tail");
  }
  bool exists = false;
  Status last_send = Status::OK();
  auto try_unit = [&](size_t unit) -> const std::string* {
    if (!unit_alive_[unit]) return nullptr;
    auto it = units_[unit].find(offset);
    if (it == units_[unit].end()) return nullptr;
    exists = true;
    if (net_) {
      Status sent = net_->Send(LogUnitEndpoint(static_cast<int>(unit)), reader,
                               it->second.size() + 16);
      if (!sent.ok()) {
        last_send = sent;
        if (metrics_.read_failovers != nullptr) metrics_.read_failovers->Add(1);
        return nullptr;  // fail over to the next replica
      }
    }
    if (metrics_.reads != nullptr) metrics_.reads->Add(1);
    return &it->second;
  };
  for (int unit : ReplicasOf(offset)) {
    if (const std::string* rec = try_unit(unit)) return *rec;
  }
  // Re-replication may have placed copies outside the deterministic chain;
  // fall back to asking every live unit before declaring the offset lost.
  for (size_t unit = 0; unit < units_.size(); ++unit) {
    if (const std::string* rec = try_unit(unit)) return *rec;
  }
  if (exists) {
    return Status::Unavailable("log offset " + std::to_string(offset) +
                               " unreachable: " + last_send.message());
  }
  return Status::Unavailable("log offset " + std::to_string(offset) + " unavailable");
}

StatusOr<std::vector<std::string>> SharedLog::ReadRange(uint64_t from, uint64_t to,
                                                        int reader) const {
  std::vector<std::string> out;
  out.reserve(to > from ? to - from : 0);
  for (uint64_t off = from; off < to; ++off) {
    POLY_ASSIGN_OR_RETURN(std::string rec, Read(off, reader));
    out.push_back(std::move(rec));
  }
  return out;
}

uint64_t SharedLog::Tail() const { return sequencer_.load(std::memory_order_acquire); }

Status SharedLog::KillUnit(int unit) {
  std::lock_guard<std::mutex> lock(mu_);
  if (unit < 0 || unit >= static_cast<int>(units_.size())) {
    return Status::InvalidArgument("no log unit " + std::to_string(unit));
  }
  unit_alive_[unit] = false;
  return Status::OK();
}

Status SharedLog::ReviveUnit(int unit) {
  std::lock_guard<std::mutex> lock(mu_);
  if (unit < 0 || unit >= static_cast<int>(units_.size())) {
    return Status::InvalidArgument("no log unit " + std::to_string(unit));
  }
  unit_alive_[unit] = true;
  return Status::OK();
}

Status SharedLog::ReReplicate() {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t tail = sequencer_.load(std::memory_order_acquire);
  for (uint64_t off = 0; off < tail; ++off) {
    // Find one live copy anywhere (previous repairs may have moved it off
    // the deterministic chain).
    const std::string* copy = nullptr;
    int source = -1;
    for (size_t unit = 0; unit < units_.size(); ++unit) {
      if (!unit_alive_[unit]) continue;
      auto it = units_[unit].find(off);
      if (it != units_[unit].end()) {
        copy = &it->second;
        source = static_cast<int>(unit);
        break;
      }
    }
    if (copy == nullptr) {
      return Status::Unavailable("log offset " + std::to_string(off) + " lost");
    }
    // Count live holders; top up onto other live units. A dropped copy
    // message just leaves the offset under-replicated for the next pass.
    int holders = 0;
    for (size_t u = 0; u < units_.size(); ++u) {
      if (unit_alive_[u] && units_[u].count(off)) ++holders;
    }
    for (size_t u = 0; u < units_.size() && holders < options_.replication; ++u) {
      if (!unit_alive_[u] || units_[u].count(off)) continue;
      if (net_) {
        Status sent = net_->Send(LogUnitEndpoint(source),
                                 LogUnitEndpoint(static_cast<int>(u)), copy->size() + 16);
        if (!sent.ok()) continue;
      }
      if (!WriteReplica(static_cast<int>(u), off, *copy)) continue;
      ++holders;
      if (metrics_.rereplicated_records != nullptr) {
        metrics_.rereplicated_records->Add(1);
      }
    }
  }
  return Status::OK();
}

uint64_t SharedLog::records_stored(int unit) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (unit < 0 || unit >= static_cast<int>(units_.size())) return 0;
  return units_[unit].size();
}

}  // namespace poly
