#include "aging/extended_storage.h"

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

Status ExtendedStorage::Demote(Database* db, const std::string& table) {
  POLY_ASSIGN_OR_RETURN(ColumnTable * t, db->GetTable(table));
  Serializer s;
  t->SaveTo(&s);
  CountTierMove("tier.warm.demotes", "tier.warm.demote_bytes", s.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    simulated_nanos_ += static_cast<double>(s.size()) * options_.write_nanos_per_byte;
    store_[table] = s.Release();
  }
  return db->DropTable(table);
}

StatusOr<ColumnTable*> ExtendedStorage::Promote(Database* db, const std::string& table) {
  // A promote MOVES the partition: leaving the payload behind as a "cache"
  // makes residency ambiguous, and with a cold tier attached a stale warm
  // copy can be sunk to DFS while the real partition is hot — two live
  // copies that then diverge. On any failure past the take, the payload is
  // put back so a half-promote never loses the only copy.
  POLY_ASSIGN_OR_RETURN(std::string payload, TakePayload(table));
  CountTierMove("tier.warm.promotes", "tier.warm.promote_bytes", payload.size());
  Deserializer d(payload);
  auto loaded = ColumnTable::LoadFrom(&d);
  if (!loaded.ok()) {
    (void)AdoptPayload(table, std::move(payload));
    return loaded.status();
  }
  ColumnTable* ptr = loaded->get();
  Status adopted = db->AdoptTable(std::move(*loaded));
  if (!adopted.ok()) {
    (void)AdoptPayload(table, std::move(payload));
    return adopted;
  }
  return ptr;
}

StatusOr<std::string> ExtendedStorage::TakePayload(const std::string& table) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = store_.find(table);
  if (it == store_.end()) {
    return Status::NotFound("no warm table '" + table + "'");
  }
  simulated_nanos_ +=
      static_cast<double>(it->second.size()) * options_.read_nanos_per_byte;
  std::string payload = std::move(it->second);
  store_.erase(it);
  return payload;
}

Status ExtendedStorage::AdoptPayload(const std::string& table, std::string payload) {
  std::lock_guard<std::mutex> lock(mu_);
  simulated_nanos_ +=
      static_cast<double>(payload.size()) * options_.write_nanos_per_byte;
  store_[table] = std::move(payload);
  return Status::OK();
}

bool ExtendedStorage::Contains(const std::string& table) const {
  std::lock_guard<std::mutex> lock(mu_);
  return store_.count(table) > 0;
}

Status ExtendedStorage::Drop(const std::string& table) {
  std::lock_guard<std::mutex> lock(mu_);
  if (store_.erase(table) == 0) return Status::NotFound("no warm table '" + table + "'");
  return Status::OK();
}

uint64_t ExtendedStorage::BytesOf(const std::string& table) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = store_.find(table);
  return it == store_.end() ? 0 : it->second.size();
}

uint64_t ExtendedStorage::bytes_stored() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [_, data] : store_) total += data.size();
  return total;
}

}  // namespace poly
