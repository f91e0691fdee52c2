#include "storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

#include "storage/page_store.h"  // DurableSyncActive()

namespace rtb::storage {
namespace {

// On-disk frame: a 24-byte header followed by payload_len payload bytes.
// The CRC covers everything after itself (length, LSN, type, page id,
// payload), so any bit of a half-written record fails the check.
struct WalDiskHeader {
  uint32_t crc;
  uint32_t payload_len;
  uint64_t lsn;
  uint32_t type;
  uint32_t page_id;
};
static_assert(sizeof(WalDiskHeader) == 24);

constexpr size_t kWalFrameHeaderSize = sizeof(WalDiskHeader);
// Sanity bound while scanning: no record's payload exceeds this (pages are
// a few KiB). Anything larger is torn garbage.
constexpr uint32_t kMaxWalPayload = 1u << 24;

// The file header: identifies a log and its format before any frame is
// trusted.
constexpr char kWalMagic[8] = {'R', 'T', 'B', 'W', 'A', 'L', '\r', '\n'};
struct WalFileHeader {
  char magic[8];
  uint32_t version;
  uint32_t reserved;
};
static_assert(sizeof(WalFileHeader) == kWalFileHeaderSize);

// CRC-32C: Castagnoli polynomial, reflected.
constexpr uint32_t kCrc32cPoly = 0x82F63B78u;

struct Crc32cTables {
  uint32_t t[8][256];
};

// Slicing-by-8 tables: t[0] is the byte-at-a-time table, t[s][b] the CRC
// of byte b followed by s zero bytes.
constexpr Crc32cTables MakeCrc32cTables() {
  Crc32cTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (c >> 1) ^ kCrc32cPoly : c >> 1;
    tables.t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (int s = 1; s < 8; ++s) {
      const uint32_t prev = tables.t[s - 1][i];
      tables.t[s][i] = (prev >> 8) ^ tables.t[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr Crc32cTables kCrc32cTables = MakeCrc32cTables();

#if defined(__x86_64__)
// Eight bytes per crc32 instruction; the 0-7 byte tail goes a byte at a
// time.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(uint32_t crc,
                                                       const uint8_t* data,
                                                       size_t len) {
  uint64_t c = ~crc;
  for (; len >= 8; data += 8, len -= 8) {
    uint64_t word;
    std::memcpy(&word, data, sizeof(word));
    c = _mm_crc32_u64(c, word);
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  for (; len > 0; ++data, --len) c32 = _mm_crc32_u8(c32, *data);
  return ~c32;
}
#endif

using Crc32cFn = uint32_t (*)(uint32_t, const uint8_t*, size_t);

Crc32cFn ResolveCrc32c() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("sse4.2")) return Crc32cSse42;
#endif
  return Crc32cPortable;
}

Crc32cFn ActiveCrc32c() {
  static const Crc32cFn fn = ResolveCrc32c();
  return fn;
}

}  // namespace

uint32_t Crc32cPortable(uint32_t crc, const uint8_t* data, size_t len) {
  const auto& t = kCrc32cTables.t;
  crc = ~crc;
  for (; len >= 8; data += 8, len -= 8) {
    // Little-endian word assembly; compilers fold it into one load.
    const uint32_t lo = crc ^ (uint32_t{data[0]} | uint32_t{data[1]} << 8 |
                               uint32_t{data[2]} << 16 |
                               uint32_t{data[3]} << 24);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][data[4]] ^
          t[2][data[5]] ^ t[1][data[6]] ^ t[0][data[7]];
  }
  for (; len > 0; ++data, --len) {
    crc = t[0][(crc ^ *data) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

uint32_t Crc32c(uint32_t crc, const uint8_t* data, size_t len) {
  return ActiveCrc32c()(crc, data, len);
}

bool Crc32cHardware() { return ActiveCrc32c() != Crc32cPortable; }

Result<std::unique_ptr<WalWriter>> WalWriter::Create(const std::string& path,
                                                     Options options) {
  if (options.group_commit_window == 0) {
    return Status::InvalidArgument("wal: group_commit_window must be >= 1");
  }
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot create wal " + path);
  }
  WalFileHeader header{};
  std::memcpy(header.magic, kWalMagic, sizeof(kWalMagic));
  header.version = kWalFormatVersion;
  if (::pwrite(fd, &header, sizeof(header), 0) !=
      static_cast<ssize_t>(sizeof(header))) {
    ::close(fd);
    return Status::IoError(path + ": cannot write wal header");
  }
  // fsync-on-create: the (empty) log must exist durably before any record
  // in it can claim to. Directory-entry durability would additionally need
  // an fsync of the parent directory; we stop at the file, like the store.
  if (DurableSyncActive() && ::fsync(fd) != 0) {
    ::close(fd);
    return Status::IoError(path + ": fsync after create failed");
  }
  return std::unique_ptr<WalWriter>(new WalWriter(path, fd, options));
}

Result<std::unique_ptr<WalWriter>> WalWriter::Create(const std::string& path) {
  return Create(path, Options());
}

WalWriter::~WalWriter() {
  const bool dead = !sticky_error_.ok();
  Status s = Close();
  if (!s.ok() && !dead) {
    // A dead (simulated-crash) writer failing to close is expected; a live
    // one losing its final drain is not.
    std::fprintf(stderr,
                 "WalWriter: final drain failed in destructor (call Close() "
                 "to handle): %s\n",
                 s.ToString().c_str());
  }
}

Lsn WalWriter::AppendLocked(WalRecordType type, PageId page_id,
                            const uint8_t* payload, size_t len) {
  const Lsn lsn = next_lsn_++;
  WalDiskHeader header;
  header.crc = 0;
  header.payload_len = static_cast<uint32_t>(len);
  header.lsn = lsn;
  header.type = static_cast<uint32_t>(type);
  header.page_id = page_id;
  const size_t begin = pending_.size();
  const auto* head = reinterpret_cast<const uint8_t*>(&header);
  pending_.insert(pending_.end(), head, head + kWalFrameHeaderSize);
  pending_.insert(pending_.end(), payload, payload + len);
  uint8_t* frame = pending_.data() + begin;
  const size_t frame_len = kWalFrameHeaderSize + len;
  const uint32_t crc =
      Crc32c(0, frame + sizeof(uint32_t), frame_len - sizeof(uint32_t));
  std::memcpy(frame, &crc, sizeof(crc));
  buffered_lsn_ = lsn;
  ++stats_.records;
  stats_.bytes += frame_len;
  log_bytes_ += frame_len;
  return lsn;
}

Lsn WalWriter::AppendPageImage(PageId id, const uint8_t* data, size_t len) {
  // Node pages are zero past their last entry; recovery zero-fills a short
  // image, so the zero tail need not be logged. Word-wise first, then the
  // last few bytes.
  uint64_t word;
  while (len >= sizeof(word)) {
    std::memcpy(&word, data + len - sizeof(word), sizeof(word));
    if (word != 0) break;
    len -= sizeof(word);
  }
  while (len > 0 && data[len - 1] == 0) --len;
  std::lock_guard<std::mutex> lock(mu_);
  return AppendLocked(WalRecordType::kPageImage, id, data, len);
}

Result<Lsn> WalWriter::Commit(uint64_t num_pages) {
  std::unique_lock<std::mutex> lk(mu_);
  RTB_RETURN_IF_ERROR(sticky_error_);
  uint8_t payload[sizeof(uint64_t)];
  std::memcpy(payload, &num_pages, sizeof(num_pages));
  const Lsn lsn = AppendLocked(WalRecordType::kCommit, kInvalidPageId,
                               payload, sizeof(payload));
  ++stats_.commits;
  if (++commits_since_sync_ < options_.group_commit_window) {
    // Deferred durability: this commit rides a later sync point.
    return lsn;
  }
  commits_since_sync_ = 0;
  for (;;) {
    RTB_RETURN_IF_ERROR(sticky_error_);
    if (durable_lsn_.load(std::memory_order_relaxed) >= lsn) return lsn;
    if (!sync_in_progress_) break;
    cv_.wait(lk);
  }
  RTB_RETURN_IF_ERROR(DrainLocked(lk));
  return lsn;
}

Status WalWriter::EnsureDurable(Lsn lsn) {
  if (lsn == kNoLsn) return Status::OK();
  if (Durable(lsn)) return Status::OK();
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    RTB_RETURN_IF_ERROR(sticky_error_);
    if (durable_lsn_.load(std::memory_order_relaxed) >= lsn) {
      return Status::OK();
    }
    if (!sync_in_progress_) break;
    // A leader is draining; its sync may already cover `lsn`.
    cv_.wait(lk);
  }
  return DrainLocked(lk);
}

Status WalWriter::DrainLocked(std::unique_lock<std::mutex>& lk) {
  if (pending_.empty()) return Status::OK();
  sync_in_progress_ = true;
  draining_.swap(pending_);  // pending_ takes the empty, reused buffer.
  const Lsn target = buffered_lsn_;
  lk.unlock();
  Status s = WriteAndSync();
  lk.lock();
  draining_.clear();
  sync_in_progress_ = false;
  if (s.ok()) {
    ++stats_.fsyncs;
    if (target > durable_lsn_.load(std::memory_order_relaxed)) {
      durable_lsn_.store(target, std::memory_order_release);
    }
  } else {
    sticky_error_ = s;
  }
  cv_.notify_all();
  return s;
}

Status WalWriter::WriteAndSync() {
  const size_t total = draining_.size();
  size_t allowed = total;
  if (options_.fault_hook != nullptr) {
    allowed = std::min(options_.fault_hook->BeforeWrite(total), total);
  }
  // One pwrite of the allowed prefix, looped over partial writes.
  size_t done = 0;
  while (done < allowed) {
    const ssize_t put =
        ::pwrite(fd_, draining_.data() + done, allowed - done,
                 static_cast<off_t>(file_size_ + done));
    if (put < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(path_ + ": wal write failed");
    }
    done += static_cast<size_t>(put);
  }
  file_size_ += allowed;
  if (allowed < total) {
    return Status::IoError(path_ + ": simulated crash tore the log write");
  }
  if (options_.fault_hook != nullptr && options_.fault_hook->FailSync()) {
    return Status::IoError(path_ + ": simulated crash before fdatasync");
  }
  if (DurableSyncActive() && ::fdatasync(fd_) != 0) {
    return Status::IoError(path_ + ": fdatasync failed");
  }
  return Status::OK();
}

Status WalWriter::Checkpoint(uint64_t num_pages) {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    RTB_RETURN_IF_ERROR(sticky_error_);
    if (!sync_in_progress_) break;
    cv_.wait(lk);
  }
  // The caller flushed and fsynced the store first, so every record logged
  // up to here — including any still buffered — is redundant with durable
  // data pages. The log restarts as its header plus a single checkpoint
  // record.
  pending_.clear();
  if (::ftruncate(fd_, kWalFileHeaderSize) != 0) {
    sticky_error_ = Status::IoError(path_ + ": wal truncate failed");
    return sticky_error_;
  }
  file_size_ = kWalFileHeaderSize;
  log_bytes_ = kWalFileHeaderSize;
  ++stats_.checkpoints;
  uint8_t payload[sizeof(uint64_t)];
  std::memcpy(payload, &num_pages, sizeof(num_pages));
  AppendLocked(WalRecordType::kCheckpoint, kInvalidPageId, payload,
               sizeof(payload));
  commits_since_sync_ = 0;
  return DrainLocked(lk);
}

Status WalWriter::Close() {
  std::unique_lock<std::mutex> lk(mu_);
  if (fd_ < 0) return Status::OK();
  Status result = sticky_error_;
  if (result.ok()) {
    while (sync_in_progress_) cv_.wait(lk);
    result = sticky_error_;
  }
  if (result.ok() && !pending_.empty()) {
    result = DrainLocked(lk);
  }
  if (::close(fd_) != 0 && result.ok()) {
    result = Status::IoError(path_ + ": close failed");
  }
  fd_ = -1;
  return result;
}

Result<std::unique_ptr<WalReader>> WalReader::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("wal not found: " + path);
    }
    return Status::IoError("cannot open wal " + path);
  }
  std::vector<uint8_t> data;
  uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t got = ::read(fd, buf, sizeof(buf));
    if (got < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::IoError(path + ": wal read failed");
    }
    if (got == 0) break;
    data.insert(data.end(), buf, buf + got);
  }
  ::close(fd);
  if (data.size() < kWalFileHeaderSize) {
    // Nothing can have been logged before the header was: an empty log.
    return std::unique_ptr<WalReader>(new WalReader({}, 0));
  }
  WalFileHeader header;
  std::memcpy(&header, data.data(), sizeof(header));
  if (std::memcmp(header.magic, kWalMagic, sizeof(kWalMagic)) != 0) {
    return Status::NotSupported(
        path + ": not a version-" + std::to_string(kWalFormatVersion) +
        " wal (no file header; a version-1 log needs the binary that wrote "
        "it to recover)");
  }
  if (header.version != kWalFormatVersion) {
    return Status::NotSupported(path + ": wal format version " +
                                std::to_string(header.version) +
                                ", this binary reads version " +
                                std::to_string(kWalFormatVersion));
  }
  return std::unique_ptr<WalReader>(
      new WalReader(std::move(data), kWalFileHeaderSize));
}

bool WalReader::Next(WalRecord* out) {
  if (done_) return false;
  if (data_.size() - pos_ < kWalFrameHeaderSize) {
    // Trailing bytes too short for a header are a torn append (a clean end
    // lands exactly on a record boundary).
    torn_tail_ = pos_ < data_.size();
    done_ = true;
    return false;
  }
  WalDiskHeader header;
  std::memcpy(&header, data_.data() + pos_, kWalFrameHeaderSize);
  if (header.payload_len > kMaxWalPayload ||
      data_.size() - pos_ - kWalFrameHeaderSize < header.payload_len) {
    torn_tail_ = true;
    done_ = true;
    return false;
  }
  const size_t frame = kWalFrameHeaderSize + header.payload_len;
  const uint32_t crc = Crc32c(0, data_.data() + pos_ + sizeof(uint32_t),
                              frame - sizeof(uint32_t));
  if (crc != header.crc) {
    torn_tail_ = true;
    done_ = true;
    return false;
  }
  out->type = static_cast<WalRecordType>(header.type);
  out->lsn = header.lsn;
  out->page_id = header.page_id;
  out->num_pages = 0;
  const auto begin = data_.begin() + static_cast<ptrdiff_t>(pos_);
  out->payload.assign(begin + static_cast<ptrdiff_t>(kWalFrameHeaderSize),
                      begin + static_cast<ptrdiff_t>(frame));
  if ((out->type == WalRecordType::kCommit ||
       out->type == WalRecordType::kCheckpoint) &&
      out->payload.size() >= sizeof(uint64_t)) {
    std::memcpy(&out->num_pages, out->payload.data(), sizeof(uint64_t));
  }
  pos_ += frame;
  valid_bytes_ = pos_;
  return true;
}

}  // namespace rtb::storage
