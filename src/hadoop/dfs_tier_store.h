#ifndef POLY_HADOOP_DFS_TIER_STORE_H_
#define POLY_HADOOP_DFS_TIER_STORE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "aging/extended_storage.h"
#include "common/status.h"
#include "hadoop/dfs.h"
#include "storage/database.h"

namespace poly {

/// Cold tier of Figure 1's temperature pyramid: partition tables serialized
/// onto the SimulatedDfs ("HDFS is used as an aging store for HANA", §IV-C),
/// with a catalog of what lives there so residency stays unambiguous — a
/// table is cold iff this store lists it, and every move OUT of the cold
/// tier deletes the DFS file.
///
/// The on-DFS format is the binary serializer payload (ColumnTable::SaveTo),
/// the same bytes ExtendedStorage holds for the warm tier — NOT the TSV of
/// hadoop/table_connector. The connector re-stamps rows as committed-at-load
/// (right for federated interchange, E15), which would break the pinned-scan
/// protocol: a reader pinned on a pre-demotion table must see the same MVCC
/// stamps if the partition pages back in mid-scan. DESIGN.md §11.4.
///
/// Thread-safe; the daemon calls it under its movement lock but tests may
/// poke it directly.
class DfsTierStore {
 public:
  explicit DfsTierStore(SimulatedDfs* dfs) : dfs_(dfs) {}

  DfsTierStore(const DfsTierStore&) = delete;
  DfsTierStore& operator=(const DfsTierStore&) = delete;

  /// warm -> cold: takes the serialized payload out of `warm` and writes it
  /// to DFS. Counts tier.cold.demotes / tier.cold.demote_bytes.
  Status Sink(ExtendedStorage* warm, const std::string& table);

  /// cold -> warm: reads the payload back from DFS (charging the simulated
  /// cold read cost), hands it to `warm`, and deletes the DFS file. Counts
  /// tier.cold.promotes / tier.cold.promote_bytes.
  Status Raise(ExtendedStorage* warm, const std::string& table);

  /// cold -> hot directly: deserializes the payload straight into `db`
  /// (skipping the warm stopover) and deletes the DFS file. Used both by
  /// policy-driven cold->hot promotion and by demand paging on a scan miss.
  /// Counts tier.cold.promotes / tier.cold.promote_bytes and
  /// tier.cold.page_ins.
  StatusOr<ColumnTable*> PageIn(Database* db, const std::string& table);

  bool Contains(const std::string& table) const;

  /// Serialized size of a cold table; 0 if absent. The unit the policy's
  /// migration budget prices (times the cold cost factor).
  uint64_t BytesOf(const std::string& table) const;

  /// Names of all cold tables, sorted.
  std::vector<std::string> ColdTables() const;

  uint64_t bytes_stored() const;

  /// How much more a cold byte costs than a warm byte, from the two cost
  /// models: dfs reads are charged once on the way out AND the payload is
  /// re-written on the way back in, so the round trip is priced against the
  /// warm tier's read+write. Defaults (10 ns/B cold read vs 2+4 ns/B warm
  /// round trip) give ~3.33. Always >= 1: the cold tier is never priced
  /// cheaper than warm.
  double CostFactorVersus(const ExtendedStorage::Options& warm) const;

  SimulatedDfs* dfs() const { return dfs_; }

  /// DFS file that holds a cold table's payload.
  static std::string ColdPath(const std::string& table) {
    return "/cold/" + table + ".tbl";
  }

 private:
  SimulatedDfs* dfs_;
  mutable std::mutex mu_;
  std::map<std::string, uint64_t> catalog_;  // table -> payload bytes
};

}  // namespace poly

#endif  // POLY_HADOOP_DFS_TIER_STORE_H_
