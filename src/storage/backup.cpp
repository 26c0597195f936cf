#include "storage/backup.h"

#include <unistd.h>

#include <cstdio>

#include "common/serializer.h"

namespace poly {

namespace {
constexpr uint32_t kSnapshotMagic = 0x504F4C59;  // "POLY"
}

std::string SerializeDatabase(const Database& db) {
  Serializer s;
  s.PutU32(kSnapshotMagic);
  std::vector<std::string> names = db.TableNames();
  // Row tables are baseline-only fixtures; snapshot covers column tables.
  std::vector<ColumnTable*> tables;
  for (const auto& name : names) {
    auto t = db.GetTable(name);
    if (t.ok()) tables.push_back(*t);
  }
  s.PutVarint(tables.size());
  for (ColumnTable* t : tables) t->SaveTo(&s);
  return s.Release();
}

Status DeserializeDatabase(const std::string& snapshot, Database* out) {
  Deserializer d(snapshot);
  POLY_ASSIGN_OR_RETURN(uint32_t magic, d.GetU32());
  if (magic != kSnapshotMagic) return Status::Corruption("not a polyphony snapshot");
  POLY_ASSIGN_OR_RETURN(uint64_t count, d.GetVarint());
  for (uint64_t i = 0; i < count; ++i) {
    POLY_ASSIGN_OR_RETURN(auto table, ColumnTable::LoadFrom(&d));
    POLY_RETURN_IF_ERROR(out->AdoptTable(std::move(table)));
  }
  return Status::OK();
}

Status BackupDatabaseToFile(const Database& db, const std::string& path) {
  std::string snapshot = SerializeDatabase(db);
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot open " + path + " for backup");
  // A full disk may show only when the buffer is flushed, synced or closed,
  // so every step is checked. The target is never removed: it may be a
  // device.
  bool written = std::fwrite(snapshot.data(), 1, snapshot.size(), f) == snapshot.size();
  bool flushed = std::fflush(f) == 0;
  bool synced = ::fsync(fileno(f)) == 0;
  bool closed = std::fclose(f) == 0;
  if (!written || !flushed || !synced || !closed) {
    return Status::IOError("cannot write backup to " + path);
  }
  return Status::OK();
}

Status RestoreDatabaseFromFile(const std::string& path, Database* out) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open backup " + path);
  std::string data;
  char buf[1 << 16];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, got);
  std::fclose(f);
  return DeserializeDatabase(data, out);
}

}  // namespace poly
