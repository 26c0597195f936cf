#include "txn/redo_log.h"

#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "common/serializer.h"

namespace poly {

StatusOr<std::unique_ptr<RedoLog>> RedoLog::OpenFile(const std::string& path) {
  auto log = std::make_unique<RedoLog>();
  log->path_ = path;
  // Touch the file so ReadFile on a fresh log succeeds.
  FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) return Status::IOError("cannot open redo log " + path);
  std::fclose(f);
  std::error_code ec;
  uintmax_t size = std::filesystem::file_size(path, ec);
  log->file_bytes_ = ec ? 0 : size;  // a device (e.g. /dev/full) has no size
  return log;
}

void RedoLog::SetFaultInjector(std::function<Status(const char* op)> injector) {
  std::lock_guard<std::mutex> lock(mu_);
  fault_injector_ = std::move(injector);
}

Status RedoLog::Append(std::string record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (fault_injector_) POLY_RETURN_IF_ERROR(fault_injector_("append"));
  if (path_.empty()) {
    records_.push_back(std::move(record));
  } else {
    FILE* f = std::fopen(path_.c_str(), "ab");
    if (f == nullptr) return Status::IOError("cannot append to redo log " + path_);
    uint32_t len = static_cast<uint32_t>(record.size());
    bool written = std::fwrite(&len, sizeof(len), 1, f) == 1 &&
                   std::fwrite(record.data(), 1, record.size(), f) == record.size();
    // fclose flushes the stdio buffer: a full disk (ENOSPC) surfaces here.
    bool closed = std::fclose(f) == 0;
    if (!written || !closed) {
      // Cut any partial frame off again (best effort) so recovery never
      // reads a record that was not acknowledged.
      int ignored = ::truncate(path_.c_str(), static_cast<off_t>(file_bytes_));
      (void)ignored;
      return Status::IOError("cannot write redo record to " + path_);
    }
    file_bytes_ += sizeof(len) + record.size();
  }
  ++num_records_;
  return Status::OK();
}

Status RedoLog::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fault_injector_) POLY_RETURN_IF_ERROR(fault_injector_("sync"));
  return Status::OK();
}

Status RedoLog::ForEach(const std::function<Status(const std::string&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (path_.empty()) {
    for (const auto& r : records_) POLY_RETURN_IF_ERROR(fn(r));
    return Status::OK();
  }
  POLY_ASSIGN_OR_RETURN(std::vector<std::string> records, ReadFile(path_));
  for (const auto& r : records) POLY_RETURN_IF_ERROR(fn(r));
  return Status::OK();
}

uint64_t RedoLog::num_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return num_records_;
}

StatusOr<std::vector<std::string>> RedoLog::ReadFile(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open redo log " + path);
  std::vector<std::string> records;
  for (;;) {
    uint32_t len = 0;
    size_t got = std::fread(&len, sizeof(len), 1, f);
    if (got != 1) break;
    std::string rec(len, '\0');
    if (std::fread(rec.data(), 1, len, f) != len) {
      std::fclose(f);
      return Status::Corruption("truncated redo record in " + path);
    }
    records.push_back(std::move(rec));
  }
  std::fclose(f);
  return records;
}

}  // namespace poly
