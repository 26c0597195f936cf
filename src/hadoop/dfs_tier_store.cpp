#include "hadoop/dfs_tier_store.h"

#include <algorithm>

#include "common/metrics.h"
#include "common/serializer.h"

namespace poly {

namespace {

/// Tier-movement counters in the default registry (DESIGN.md §10:
/// `tier.<temperature>.<direction>` plus byte volumes).
void CountTierMove(const char* counter_name, const char* bytes_name,
                   uint64_t bytes) {
  metrics::Registry& reg = metrics::Default();
  reg.counter(counter_name)->Add(1);
  reg.counter(bytes_name)->Add(bytes);
}

}  // namespace

Status DfsTierStore::Sink(ExtendedStorage* warm, const std::string& table) {
  POLY_ASSIGN_OR_RETURN(std::string payload, warm->TakePayload(table));
  uint64_t bytes = payload.size();
  Status s = dfs_->Write(ColdPath(table), payload);
  if (!s.ok()) {
    // Put the payload back: a failed sink must not lose the only copy.
    (void)warm->AdoptPayload(table, std::move(payload));
    return s;
  }
  CountTierMove("tier.cold.demotes", "tier.cold.demote_bytes", bytes);
  std::lock_guard<std::mutex> lock(mu_);
  catalog_[table] = bytes;
  return Status::OK();
}

Status DfsTierStore::Raise(ExtendedStorage* warm, const std::string& table) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (catalog_.find(table) == catalog_.end()) {
      return Status::NotFound("no cold table '" + table + "'");
    }
  }
  std::string path = ColdPath(table);
  POLY_ASSIGN_OR_RETURN(std::string payload, dfs_->Read(path));
  uint64_t bytes = payload.size();
  POLY_RETURN_IF_ERROR(warm->AdoptPayload(table, std::move(payload)));
  CountTierMove("tier.cold.promotes", "tier.cold.promote_bytes", bytes);
  (void)dfs_->Delete(path);
  std::lock_guard<std::mutex> lock(mu_);
  catalog_.erase(table);
  return Status::OK();
}

StatusOr<ColumnTable*> DfsTierStore::PageIn(Database* db, const std::string& table) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (catalog_.find(table) == catalog_.end()) {
      return Status::NotFound("no cold table '" + table + "'");
    }
  }
  std::string path = ColdPath(table);
  POLY_ASSIGN_OR_RETURN(std::string payload, dfs_->Read(path));
  Deserializer d(payload);
  POLY_ASSIGN_OR_RETURN(auto loaded, ColumnTable::LoadFrom(&d));
  ColumnTable* ptr = loaded.get();
  POLY_RETURN_IF_ERROR(db->AdoptTable(std::move(loaded)));
  CountTierMove("tier.cold.promotes", "tier.cold.promote_bytes", payload.size());
  metrics::Default().counter("tier.cold.page_ins")->Add(1);
  (void)dfs_->Delete(path);
  std::lock_guard<std::mutex> lock(mu_);
  catalog_.erase(table);
  return ptr;
}

bool DfsTierStore::Contains(const std::string& table) const {
  std::lock_guard<std::mutex> lock(mu_);
  return catalog_.count(table) > 0;
}

uint64_t DfsTierStore::BytesOf(const std::string& table) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = catalog_.find(table);
  return it == catalog_.end() ? 0 : it->second;
}

std::vector<std::string> DfsTierStore::ColdTables() const {
  std::vector<std::string> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(catalog_.size());
    for (const auto& [name, _] : catalog_) out.push_back(name);
  }
  return out;  // std::map iterates sorted
}

uint64_t DfsTierStore::bytes_stored() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [_, bytes] : catalog_) total += bytes;
  return total;
}

double DfsTierStore::CostFactorVersus(const ExtendedStorage::Options& warm) const {
  double warm_round_trip = warm.read_nanos_per_byte + warm.write_nanos_per_byte;
  if (warm_round_trip <= 0.0) return 1.0;
  double factor = 2.0 * dfs_->options().read_nanos_per_byte / warm_round_trip;
  return std::max(factor, 1.0);
}

}  // namespace poly
