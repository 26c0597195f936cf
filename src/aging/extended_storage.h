#ifndef POLY_AGING_EXTENDED_STORAGE_H_
#define POLY_AGING_EXTENDED_STORAGE_H_

#include <map>
#include <mutex>
#include <string>

#include "common/status.h"
#include "storage/database.h"

namespace poly {

/// Warm tier of Figure 1 ("HANA Dynamic Tiering / Extended Storage", the IQ
/// technology box of Figure 2): disk-resident table storage with simulated
/// access cost between in-memory and DFS. Tables demoted here leave main
/// memory and are reloaded on demand.
class ExtendedStorage {
 public:
  struct Options {
    double read_nanos_per_byte = 2.0;   ///< ~500 MB/s "local disk"
    double write_nanos_per_byte = 4.0;
  };

  ExtendedStorage() : ExtendedStorage(Options()) {}
  explicit ExtendedStorage(Options options) : options_(options) {}

  /// Serializes and stores a table; removes it from `db`.
  Status Demote(Database* db, const std::string& table);

  /// Moves a table back into `db`, removing the warm copy — residency is
  /// unambiguous (a stale warm "cache" could be independently demoted to
  /// cold while the partition is hot). On failure the payload is restored.
  StatusOr<ColumnTable*> Promote(Database* db, const std::string& table);

  bool Contains(const std::string& table) const;
  Status Drop(const std::string& table);

  /// Removes a warm table and returns its serialized payload (charging the
  /// warm read cost). Payload-level hop used by DfsTierStore::Sink so a
  /// warm->cold move never deserializes: the bytes go straight to DFS with
  /// MVCC stamps intact.
  StatusOr<std::string> TakePayload(const std::string& table);

  /// Inserts a serialized payload as a warm table (charging the warm write
  /// cost). The reverse hop, used by DfsTierStore::Raise for cold->warm.
  Status AdoptPayload(const std::string& table, std::string payload);

  /// Serialized size of a warm table; 0 if absent. The tiering policy
  /// meters its migration budget in these bytes.
  uint64_t BytesOf(const std::string& table) const;

  /// Accrued simulated access cost (ns) and volume.
  double simulated_nanos() const { return simulated_nanos_; }
  uint64_t bytes_stored() const;

  const Options& options() const { return options_; }

 private:
  Options options_;
  mutable std::mutex mu_;
  std::map<std::string, std::string> store_;  // table -> serialized bytes
  mutable double simulated_nanos_ = 0;
};

}  // namespace poly

#endif  // POLY_AGING_EXTENDED_STORAGE_H_
