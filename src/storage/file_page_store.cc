#include "storage/file_page_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <string>
#include <vector>

#include "storage/wal.h"

namespace rtb::storage {
namespace {

constexpr uint32_t kFileMagic = 0x52544253;  // "RTBS"
constexpr uint32_t kFileVersion = 1;
constexpr size_t kHeaderSize = 32;

// Longest run one preadv/pwritev covers; longer runs split. Far below
// IOV_MAX, and comfortably above the buffer pools' fetch windows.
constexpr size_t kMaxVectoredRun = 64;

struct Header {
  uint32_t magic;
  uint32_t version;
  uint64_t page_size;
  uint64_t num_pages;
  uint64_t reserved;
};
static_assert(sizeof(Header) == kHeaderSize);

off_t PageOffset(PageId id, size_t page_size) {
  return static_cast<off_t>(kHeaderSize +
                            static_cast<uint64_t>(id) * page_size);
}

// Full-length positioned read: retries partial transfers and EINTR.
// Returns false on error or premature EOF (short file).
bool PreadFull(int fd, uint8_t* buf, size_t len, off_t offset) {
  size_t done = 0;
  while (done < len) {
    const ssize_t got =
        ::pread(fd, buf + done, len - done, offset + static_cast<off_t>(done));
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (got == 0) return false;  // EOF before the page ended.
    done += static_cast<size_t>(got);
  }
  return true;
}

// Full-length positioned write: retries partial transfers and EINTR.
bool PwriteFull(int fd, const uint8_t* buf, size_t len, off_t offset) {
  size_t done = 0;
  while (done < len) {
    const ssize_t put = ::pwrite(fd, buf + done, len - done,
                                 offset + static_cast<off_t>(done));
    if (put < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(put);
  }
  return true;
}

// Every id in `ids[0..n)` must be allocated; `op` names the access.
Status CheckAllocated(const PageId* ids, size_t n, PageId num_pages,
                      const char* op) {
  for (size_t i = 0; i < n; ++i) {
    if (ids[i] >= num_pages) {
      return Status::NotFound(std::string(op) + " of unallocated page " +
                              std::to_string(ids[i]));
    }
  }
  return Status::OK();
}

// Length of the run of consecutive ids at the front of `ids[0..n)`: those
// pages are contiguous on disk, so one syscall covers them.
size_t RunLength(const PageId* ids, size_t n) {
  size_t run = 1;
  while (run < kMaxVectoredRun && run < n && ids[run] == ids[0] + run) {
    ++run;
  }
  return run;
}

}  // namespace

Result<std::unique_ptr<FilePageStore>> FilePageStore::Create(
    const std::string& path, size_t page_size) {
  if (page_size == 0) {
    return Status::InvalidArgument("page size must be positive");
  }
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot create " + path);
  }
  auto store = std::unique_ptr<FilePageStore>(
      new FilePageStore(path, fd, page_size, 0));
  {
    std::lock_guard<std::mutex> lock(store->mu_);
    RTB_RETURN_IF_ERROR(store->WriteHeader());
    // fsync-on-create (behind the DurableSync seam): a store that claims to
    // exist must survive a crash right after Create, or recovery would find
    // a missing/empty file where the WAL expects a formatted one.
    if (DurableSyncActive() && ::fsync(fd) != 0) {
      return Status::IoError(path + ": fsync after create failed");
    }
  }
  return store;
}

Result<std::unique_ptr<FilePageStore>> FilePageStore::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) {
    return Status::IoError("cannot open " + path);
  }
  Header header;
  if (!PreadFull(fd, reinterpret_cast<uint8_t*>(&header), sizeof(header),
                 0)) {
    ::close(fd);
    return Status::Corruption(path + ": truncated header");
  }
  if (header.magic != kFileMagic) {
    ::close(fd);
    return Status::Corruption(path + ": bad magic");
  }
  if (header.version != kFileVersion) {
    ::close(fd);
    return Status::NotSupported(path + ": unsupported version " +
                                std::to_string(header.version));
  }
  if (header.page_size == 0 || header.num_pages > kInvalidPageId) {
    ::close(fd);
    return Status::Corruption(path + ": implausible header fields");
  }
  return std::unique_ptr<FilePageStore>(new FilePageStore(
      path, fd, static_cast<size_t>(header.page_size),
      static_cast<PageId>(header.num_pages)));
}

FilePageStore::~FilePageStore() {
  Status s = Close();
  if (!s.ok()) {
    // Destructors cannot return the error; surface it loudly instead of
    // losing it. Callers that must not lose data call Close() themselves.
    std::fprintf(stderr,
                 "FilePageStore: final flush failed in destructor "
                 "(call Close() to handle): %s\n",
                 s.ToString().c_str());
    RTB_DCHECK(s.ok());
  }
}

Status FilePageStore::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) return Status::OK();
  Status result = WriteHeader();
  if (result.ok() && DurableSyncActive() && ::fsync(fd_) != 0) {
    result = Status::IoError(path_ + ": fsync failed");
  }
  // The descriptor is released even when the flush failed: a half-closed
  // store must not leak the fd, and retrying against it can't help.
  if (::close(fd_) != 0 && result.ok()) {
    result = Status::IoError(path_ + ": close failed");
  }
  fd_ = -1;
  return result;
}

void FilePageStore::Abandon() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) return;
  ::close(fd_);
  fd_ = -1;
}

Status FilePageStore::WriteHeader() {
  Header header{kFileMagic, kFileVersion, page_size_,
                num_pages_.load(std::memory_order_acquire), 0};
  if (!PwriteFull(fd_, reinterpret_cast<const uint8_t*>(&header),
                  sizeof(header), 0)) {
    return Status::IoError(path_ + ": header write failed");
  }
  return Status::OK();
}

Result<PageId> FilePageStore::Allocate() {
  std::lock_guard<std::mutex> lock(mu_);
  const PageId id = num_pages_.load(std::memory_order_relaxed);
  if (id >= kInvalidPageId) {
    return Status::ResourceExhausted("page id space exhausted");
  }
  if (!PwriteFull(fd_, zero_page_.data(), page_size_,
                  PageOffset(id, page_size_))) {
    return Status::IoError(path_ + ": page allocation write failed");
  }
  num_pages_.store(id + 1, std::memory_order_release);
  allocations_.fetch_add(1, std::memory_order_relaxed);
  return id;
}

Status FilePageStore::ReadBatch(const PageId* ids, size_t n,
                                uint8_t* const* out) {
  RTB_RETURN_IF_ERROR(CheckAllocated(
      ids, n, num_pages_.load(std::memory_order_acquire), "read"));
  for (size_t i = 0; i < n;) {
    const size_t run = RunLength(ids + i, n - i);
    RTB_RETURN_IF_ERROR(MoveRun(/*write=*/false, ids[i], run, out + i));
    i += run;
  }
  return Status::OK();
}

Status FilePageStore::WriteBatch(const PageId* ids, size_t n,
                                 const uint8_t* const* data) {
  RTB_RETURN_IF_ERROR(CheckAllocated(
      ids, n, num_pages_.load(std::memory_order_acquire), "write"));
  for (size_t i = 0; i < n;) {
    const size_t run = RunLength(ids + i, n - i);
    // A write only reads the buffers; MoveRun is not const-correct because
    // the iovec API is not.
    RTB_RETURN_IF_ERROR(MoveRun(/*write=*/true, ids[i], run,
                                const_cast<uint8_t* const*>(data + i)));
    i += run;
  }
  return Status::OK();
}

Status FilePageStore::MoveRun(bool write, PageId first, size_t run,
                              uint8_t* const* bufs) {
  const off_t base = PageOffset(first, page_size_);
  if (run == 1) {
    if (write ? !PwriteFull(fd_, bufs[0], page_size_, base)
              : !PreadFull(fd_, bufs[0], page_size_, base)) {
      return Status::IoError(path_ + (write ? ": page write failed"
                                            : ": page read failed"));
    }
  } else {
    // One iovec per page: the run is contiguous in the file, the buffers
    // need not be in memory. A partial transfer resumes mid-page.
    const size_t total = run * page_size_;
    size_t done = 0;
    while (done < total) {
      struct iovec iov[kMaxVectoredRun];
      int cnt = 0;
      const size_t skip = done % page_size_;
      for (size_t p = done / page_size_; p < run; ++p) {
        const size_t from = cnt == 0 ? skip : 0;
        iov[cnt].iov_base = bufs[p] + from;
        iov[cnt].iov_len = page_size_ - from;
        ++cnt;
      }
      const off_t offset = base + static_cast<off_t>(done);
      const ssize_t moved = write ? ::pwritev(fd_, iov, cnt, offset)
                                  : ::preadv(fd_, iov, cnt, offset);
      if (moved < 0) {
        if (errno == EINTR) continue;
        return Status::IoError(path_ + (write ? ": batch page write failed"
                                              : ": batch page read failed"));
      }
      if (moved == 0) {
        return Status::IoError(path_ + ": short transfer in page batch");
      }
      done += static_cast<size_t>(moved);
    }
    (write ? write_batches_ : read_batches_)
        .fetch_add(1, std::memory_order_relaxed);
    (write ? write_batch_pages_ : batch_pages_)
        .fetch_add(run, std::memory_order_relaxed);
  }
  (write ? writes_ : reads_).fetch_add(run, std::memory_order_relaxed);
  return Status::OK();
}

Status FilePageStore::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  RTB_RETURN_IF_ERROR(WriteHeader());
  if (DurableSyncActive() && ::fsync(fd_) != 0) {
    return Status::IoError(path_ + ": fsync failed");
  }
  return Status::OK();
}

Status FilePageStore::ResizeToPages(PageId n) {
  const PageId current = num_pages_.load(std::memory_order_acquire);
  if (n == current) return Status::OK();
  if (n < current) {
    // Undo of uncommitted allocations: pages past the committed count hold
    // garbage from a batch that never committed; cut them off.
    if (::ftruncate(fd_, PageOffset(n, page_size_)) != 0) {
      return Status::IoError(path_ + ": recovery truncate failed");
    }
  } else {
    // Committed allocations whose zero-fill write may not have completed:
    // extend with zeros, then the committed after-images overwrite them.
    for (PageId id = current; id < n; ++id) {
      if (!PwriteFull(fd_, zero_page_.data(), page_size_,
                      PageOffset(id, page_size_))) {
        return Status::IoError(path_ + ": recovery page extension failed");
      }
    }
  }
  num_pages_.store(n, std::memory_order_release);
  return Status::OK();
}

Result<std::unique_ptr<FilePageStore>> FilePageStore::OpenWithRecovery(
    const std::string& path, const std::string& wal_path,
    WalRecoveryReport* report) {
  WalRecoveryReport local;
  WalRecoveryReport& rep = report != nullptr ? *report : local;
  rep = WalRecoveryReport{};
  // The log is read first: a log this binary cannot read (NotSupported: an
  // older format) fails the open before the store is opened, so neither
  // file is touched and the older binary can still recover them.
  Result<std::unique_ptr<WalReader>> reader = WalReader::Open(wal_path);
  if (!reader.ok() && reader.status().code() != StatusCode::kNotFound) {
    return reader.status();
  }
  RTB_ASSIGN_OR_RETURN(std::unique_ptr<FilePageStore> store, Open(path));
  if (!reader.ok()) return store;  // No log, nothing to recover.

  // Scan the whole valid prefix. Checkpoints truncate the file when they
  // are written, so the last checkpoint is normally record 0 — but recovery
  // replays from the *last* one regardless, which also covers a log that
  // somehow accreted several.
  std::vector<WalRecord> records;
  WalRecord rec;
  size_t restart = 0;  // Index of the record after the last checkpoint.
  Lsn last_commit = kNoLsn;
  // Baseline committed page count: the on-disk header (durable as of the
  // last store Sync), overridden by the last checkpoint, overridden by the
  // last commit.
  uint64_t committed_pages = store->num_pages();
  while ((*reader)->Next(&rec)) {
    if (rec.type == WalRecordType::kCheckpoint) {
      restart = records.size() + 1;
      committed_pages = rec.num_pages;
    } else if (rec.type == WalRecordType::kCommit) {
      last_commit = rec.lsn;
      committed_pages = rec.num_pages;
    }
    records.push_back(std::move(rec));
  }
  rep.wal_found = true;
  rep.records_scanned = records.size();
  rep.tail_torn = (*reader)->torn_tail();
  rep.last_commit_lsn = last_commit;

  if (committed_pages > kInvalidPageId) {
    return Status::Corruption(wal_path + ": implausible committed page count");
  }
  {
    std::lock_guard<std::mutex> lock(store->mu_);
    RTB_RETURN_IF_ERROR(
        store->ResizeToPages(static_cast<PageId>(committed_pages)));
  }
  // Redo: committed after-images in LSN (= file) order. Images the store
  // already has are rewritten — idempotent and simpler than tracking page
  // LSNs on disk. Images past the last commit need nothing: the pools never
  // write an uncommitted page to the store (no-steal), so the store never
  // saw them.
  const size_t stride = store->page_size();
  std::vector<uint8_t> page(stride);
  for (size_t i = restart; i < records.size(); ++i) {
    const WalRecord& r = records[i];
    if (r.type != WalRecordType::kPageImage || r.lsn > last_commit) continue;
    if (r.payload.size() > stride || r.page_id >= committed_pages) {
      return Status::Corruption(wal_path + ": malformed page image record");
    }
    // The log drops an image's trailing zero bytes; put them back.
    std::copy(r.payload.begin(), r.payload.end(), page.begin());
    std::fill(page.begin() + static_cast<ptrdiff_t>(r.payload.size()),
              page.end(), uint8_t{0});
    RTB_RETURN_IF_ERROR(store->Write(r.page_id, page.data()));
    ++rep.redo_pages;
  }
  // The recovered state must be durable before the log that produced it is
  // discarded.
  RTB_RETURN_IF_ERROR(store->Sync());
  {
    const int wal_fd = ::open(wal_path.c_str(), O_WRONLY);
    if (wal_fd < 0) {
      return Status::IoError("cannot reopen wal for truncation: " + wal_path);
    }
    struct stat st;
    if (::fstat(wal_fd, &st) == 0 &&
        static_cast<uint64_t>(st.st_size) > (*reader)->valid_bytes()) {
      rep.torn_bytes =
          static_cast<uint64_t>(st.st_size) - (*reader)->valid_bytes();
    }
    const bool truncated = ::ftruncate(wal_fd, 0) == 0;
    const bool synced = !DurableSyncActive() || ::fsync(wal_fd) == 0;
    ::close(wal_fd);
    if (!truncated || !synced) {
      return Status::IoError(wal_path + ": wal reset after recovery failed");
    }
  }
  // Replay I/O is recovery cost, not workload cost; runs opened through
  // recovery report the same counters a clean open would.
  store->ResetStats();
  return store;
}

}  // namespace rtb::storage
