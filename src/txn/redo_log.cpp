#include "txn/redo_log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace poly {

namespace {

constexpr size_t kFrameHeader = 8;  // [u32 length][u32 CRC-32C]

/// CRC-32C (Castagnoli, reflected polynomial 0x82F63B78), one table lookup
/// per byte.
struct Crc32cTable {
  uint32_t entry[256] = {};
  constexpr Crc32cTable() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0x82F63B78u & (0u - (c & 1u)));
      entry[i] = c;
    }
  }
};
constexpr Crc32cTable kCrc32c;

uint32_t Crc32c(uint32_t crc, const char* data, size_t n) {
  crc = ~crc;
  for (size_t i = 0; i < n; ++i) {
    crc = kCrc32c.entry[(crc ^ static_cast<uint8_t>(data[i])) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

/// Checksum of the frame whose length field starts at `len_field`. Covering
/// the length makes an all-zero region fail, so a zero-filled tail is never
/// read as empty records.
uint32_t FrameCrc(const char* len_field, const char* payload, uint32_t len) {
  return Crc32c(Crc32c(0, len_field, sizeof(uint32_t)), payload, len);
}

std::string Frame(const std::string& payload) {
  uint32_t len = static_cast<uint32_t>(payload.size());
  std::string frame(kFrameHeader, '\0');
  std::memcpy(frame.data(), &len, sizeof(len));
  uint32_t crc = FrameCrc(frame.data(), payload.data(), len);
  std::memcpy(frame.data() + sizeof(len), &crc, sizeof(crc));
  frame += payload;
  return frame;
}

/// Writes `data` at the end of the file; returns the bytes written, short
/// of data.size() only on an error (errno says which).
size_t WriteAll(int fd, const std::string& data) {
  size_t done = 0;
  while (done < data.size()) {
    ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    done += static_cast<size_t>(n);
  }
  return done;
}

/// Reads the frames of the log file behind `fd` into `records` (may be
/// null) and returns the byte length of the well-formed prefix, which is
/// short of the file size when the file ends in a torn frame. A device
/// such as /dev/full is not a regular file and has nothing to read.
StatusOr<uint64_t> ReadFrames(int fd, const std::string& path,
                              std::vector<std::string>* records) {
  struct stat st;
  if (::fstat(fd, &st) != 0) return Status::IOError("cannot stat redo log " + path);
  if (!S_ISREG(st.st_mode)) return uint64_t{0};
  std::string data(static_cast<size_t>(st.st_size), '\0');
  size_t got = 0;
  while (got < data.size()) {
    ssize_t n = ::pread(fd, data.data() + got, data.size() - got, static_cast<off_t>(got));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return Status::IOError("cannot read redo log " + path);
    if (n == 0) break;
    got += static_cast<size_t>(n);
  }
  data.resize(got);
  size_t pos = 0;
  while (data.size() - pos >= kFrameHeader) {
    uint32_t len = 0, crc = 0;
    std::memcpy(&len, data.data() + pos, sizeof(len));
    std::memcpy(&crc, data.data() + pos + sizeof(len), sizeof(crc));
    size_t left = data.size() - pos - kFrameHeader;
    if (len > left) break;  // runs past end of file: torn tail
    const char* payload = data.data() + pos + kFrameHeader;
    if (FrameCrc(data.data() + pos, payload, len) != crc) {
      if (len == left) break;  // the last frame: torn tail
      return Status::Corruption("redo log " + path + ": checksum mismatch in the frame at byte " +
                                std::to_string(pos));
    }
    if (records != nullptr) records->emplace_back(payload, len);
    pos += kFrameHeader + len;
  }
  return uint64_t{pos};
}

}  // namespace

RedoLog::~RedoLog() {
  if (fd_ >= 0) ::close(fd_);
}

StatusOr<std::unique_ptr<RedoLog>> RedoLog::OpenFile(const std::string& path) {
  auto log = std::make_unique<RedoLog>();
  log->path_ = path;
  log->fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log->fd_ < 0) {
    return Status::IOError("cannot open redo log " + path + ": " + std::strerror(errno));
  }
  POLY_ASSIGN_OR_RETURN(uint64_t valid, ReadFrames(log->fd_, path, nullptr));
  // Cut the torn tail: a frame appended after it would be unreachable to
  // the next reader, losing synced records on the second crash.
  if (::lseek(log->fd_, 0, SEEK_END) > static_cast<off_t>(valid) &&
      ::ftruncate(log->fd_, static_cast<off_t>(valid)) != 0) {
    return Status::IOError("cannot cut the torn tail of redo log " + path);
  }
  log->file_bytes_ = log->synced_bytes_ = valid;
  return log;
}

void RedoLog::SetFaultInjector(std::function<Status(const char* op)> injector) {
  std::lock_guard<std::mutex> lock(mu_);
  fault_injector_ = std::move(injector);
}

bool RedoLog::CutLocked(uint64_t bytes, uint64_t records) {
  if (fault_injector_ && !fault_injector_("truncate").ok()) return false;
  if (fd_ < 0) {
    records_.resize(records);
  } else {
    if (::ftruncate(fd_, static_cast<off_t>(bytes)) != 0) return false;
    file_bytes_ = bytes;
  }
  num_records_ = records;
  return true;
}

Status RedoLog::Append(std::string record) {
  std::lock_guard<std::mutex> lock(mu_);
  POLY_RETURN_IF_ERROR(failed_);
  if (fault_injector_) POLY_RETURN_IF_ERROR(fault_injector_("append"));
  if (fd_ < 0) {
    records_.push_back(std::move(record));
  } else {
    if (record.size() > UINT32_MAX) {
      return Status::InvalidArgument("redo record larger than 4 GiB");
    }
    std::string frame = Frame(record);
    size_t written = WriteAll(fd_, frame);
    if (written < frame.size()) {
      Status err = Status::IOError("cannot write redo record to " + path_ + ": " +
                                   std::strerror(errno));
      // Cut any partial frame off again so recovery never reads a record
      // that was not acknowledged. A partial frame that stays would sit
      // mid-file under the next append: refuse writes instead.
      if (written > 0 && !CutLocked(file_bytes_, num_records_)) failed_ = err;
      return err;
    }
    file_bytes_ += frame.size();
  }
  ++num_records_;
  return Status::OK();
}

Status RedoLog::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  POLY_RETURN_IF_ERROR(failed_);
  Status synced = fault_injector_ ? fault_injector_("sync") : Status::OK();
  if (synced.ok() && fd_ >= 0 && ::fdatasync(fd_) != 0) {
    synced = Status::IOError("cannot sync redo log " + path_ + ": " + std::strerror(errno));
  }
  if (synced.ok()) {
    synced_bytes_ = file_bytes_;
    synced_records_ = num_records_;
    return synced;
  }
  // No retry: cut back to the last synced byte so no record whose sync
  // failed is ever recovered. If the cut fails too, the unsynced records
  // stay in the file and their commit is in doubt (DESIGN.md §9).
  (void)CutLocked(synced_bytes_, synced_records_);
  failed_ = Status::IOError("redo log " + path_ + " refuses writes after a failed sync: " +
                            synced.message());
  return synced;
}

Status RedoLog::ForEach(const std::function<Status(const std::string&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) {
    for (const auto& r : records_) POLY_RETURN_IF_ERROR(fn(r));
    return Status::OK();
  }
  std::vector<std::string> records;
  POLY_RETURN_IF_ERROR(ReadFrames(fd_, path_, &records).status());
  for (const auto& r : records) POLY_RETURN_IF_ERROR(fn(r));
  return Status::OK();
}

uint64_t RedoLog::num_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return num_records_;
}

StatusOr<std::vector<std::string>> RedoLog::ReadFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IOError("cannot open redo log " + path);
  std::vector<std::string> records;
  Status read = ReadFrames(fd, path, &records).status();
  ::close(fd);
  POLY_RETURN_IF_ERROR(read);
  return records;
}

}  // namespace poly
