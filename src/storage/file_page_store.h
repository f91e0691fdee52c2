// FilePageStore: a PageStore backed by a real file.
//
// MemPageStore is the workhorse for experiments (counts are what the paper
// measures); FilePageStore makes the library usable as an actual persistent
// index. The file layout is a 32-byte header (magic, version, page size,
// page count) followed by the pages.
//
// I/O is positioned (`pread`/`pwrite` on a raw descriptor), so reads and
// writes of distinct pages proceed fully in parallel — no shared file
// position, no lock on the data path. The only mutex serializes Allocate
// and header writes; counters are atomic, matching MemPageStore.
//
// ReadBatch and WriteBatch coalesce runs of consecutive page ids into a
// single `preadv`/`pwritev` per run (consecutive pages are contiguous on
// disk) whose iovecs point at the callers' page buffers — the pools'
// frames — so the batch executor's page-ordered miss windows and the pools'
// sorted dirty sets reach the kernel as one syscall per run instead of one
// per page, with no copy. A run of one page is a plain `pread`/`pwrite`.
// Per-page counts (`IoStats::reads`/`writes`) are the same whichever way a
// page travels; only runs of two or more pages add to the batch counters.

#ifndef RTB_STORAGE_FILE_PAGE_STORE_H_
#define RTB_STORAGE_FILE_PAGE_STORE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "storage/page.h"
#include "storage/page_store.h"
#include "util/result.h"

namespace rtb::storage {

/// What FilePageStore::OpenWithRecovery found and did. All-zero (with
/// `wal_found == false`) when there was no log to recover from.
struct WalRecoveryReport {
  bool wal_found = false;
  bool tail_torn = false;        // The log ended in a torn/corrupt frame.
  uint64_t records_scanned = 0;  // Valid records in the log.
  uint64_t torn_bytes = 0;       // Bytes discarded after the valid prefix.
  uint64_t redo_pages = 0;       // Committed after-images replayed.
  Lsn last_commit_lsn = 0;       // kNoLsn when no commit survived.
};

/// File-backed PageStore. Create with Open (existing file) or Create (new
/// or truncated file); both return errors rather than throwing.
class FilePageStore final : public PageStore {
 public:
  /// Creates (or truncates) a store file with the given page size.
  static Result<std::unique_ptr<FilePageStore>> Create(
      const std::string& path, size_t page_size = kDefaultPageSize);

  /// Opens an existing store file; the page size and count come from the
  /// header.
  static Result<std::unique_ptr<FilePageStore>> Open(const std::string& path);

  /// Opens `path` and recovers it against the write-ahead log at
  /// `wal_path`: scans the log from its last checkpoint, discards the torn
  /// tail (CRC), replays the committed suffix's after-images in LSN order
  /// (the log is redo-only: the pools never write uncommitted pages),
  /// truncates the page count to the last committed count, fsyncs the data
  /// file (DurableSync seam) and finally truncates the log — so a repeated
  /// recovery is a no-op. A missing log file means nothing to recover
  /// (plain Open semantics). A log in a format this binary does not read
  /// returns NotSupported with both files untouched. `report`, when
  /// non-null, receives what was found and done.
  static Result<std::unique_ptr<FilePageStore>> OpenWithRecovery(
      const std::string& path, const std::string& wal_path,
      WalRecoveryReport* report = nullptr);

  FilePageStore(const FilePageStore&) = delete;
  FilePageStore& operator=(const FilePageStore&) = delete;

  ~FilePageStore() override;

  size_t page_size() const override { return page_size_; }
  PageId num_pages() const override {
    return num_pages_.load(std::memory_order_acquire);
  }

  Result<PageId> Allocate() override;
  /// Runs of consecutive ids become one preadv each, scattered straight
  /// into the run's destinations; a lone page is one pread.
  Status ReadBatch(const PageId* ids, size_t n, uint8_t* const* out) override;
  /// The write-side twin of ReadBatch: runs of consecutive ids become one
  /// pwritev each, gathered from the run's sources. The buffer pools feed
  /// it page-id-sorted dirty sets (flush, eviction clusters).
  Status WriteBatch(const PageId* ids, size_t n,
                    const uint8_t* const* data) override;

  IoStats stats() const override {
    IoStats snapshot;
    snapshot.reads = reads_.load(std::memory_order_relaxed);
    snapshot.writes = writes_.load(std::memory_order_relaxed);
    snapshot.allocations = allocations_.load(std::memory_order_relaxed);
    snapshot.read_batches = read_batches_.load(std::memory_order_relaxed);
    snapshot.batch_pages = batch_pages_.load(std::memory_order_relaxed);
    snapshot.write_batches = write_batches_.load(std::memory_order_relaxed);
    snapshot.write_batch_pages =
        write_batch_pages_.load(std::memory_order_relaxed);
    return snapshot;
  }
  void ResetStats() override {
    reads_.store(0, std::memory_order_relaxed);
    writes_.store(0, std::memory_order_relaxed);
    allocations_.store(0, std::memory_order_relaxed);
    read_batches_.store(0, std::memory_order_relaxed);
    batch_pages_.store(0, std::memory_order_relaxed);
    write_batches_.store(0, std::memory_order_relaxed);
    write_batch_pages_.store(0, std::memory_order_relaxed);
  }

  /// Writes the header and forces everything to stable storage with
  /// fsync(2) — the store's durability point (WAL checkpoints call it
  /// between flushing the pool and truncating the log). The fsync honors
  /// the DurableSync seam (RTB_NO_FSYNC / SetDurableSync); the header write
  /// always happens.
  Status Sync() override;

  /// Sync + close(2), releasing the descriptor. Idempotent (a second call
  /// returns OK); every error on the way out is reported, but the
  /// descriptor is always released. The destructor calls this too, but can
  /// only log a failure — callers that must not lose data call Close() and
  /// check the status.
  Status Close() override;

  /// Releases the descriptor *without* the final header write + fsync —
  /// the teardown of a simulated crash, where nothing the dying process
  /// does may reach the file. Idempotent; the store must not be used
  /// afterwards (the destructor sees it already closed).
  void Abandon();

  const std::string& path() const { return path_; }

 private:
  FilePageStore(std::string path, int fd, size_t page_size, PageId num_pages)
      : path_(std::move(path)),
        fd_(fd),
        page_size_(page_size),
        zero_page_(page_size, 0),
        num_pages_(num_pages) {}

  // Requires mu_ to be held.
  Status WriteHeader();

  // Moves the `run` consecutive pages starting at `first` between the file
  // and `bufs[0..run)` (one page_size_ buffer per page): a pread/pwrite for
  // one page, a preadv/pwritev for more. Counts `run` per-page reads or
  // writes, plus one batch of `run` pages when run >= 2. The ids must be
  // allocated.
  Status MoveRun(bool write, PageId first, size_t run, uint8_t* const* bufs);

  // Recovery helper: grows (zero-filling) or shrinks (ftruncate) the file
  // to exactly `n` pages. Requires mu_ to be held.
  Status ResizeToPages(PageId n);

  std::string path_;
  int fd_ = -1;
  size_t page_size_;
  // One page of zeros: what Allocate writes for a new page, and what
  // recovery writes to extend the file.
  const std::vector<uint8_t> zero_page_;
  mutable std::mutex mu_;  // Serializes Allocate and header writes only.
  std::atomic<PageId> num_pages_;
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> allocations_{0};
  std::atomic<uint64_t> read_batches_{0};
  std::atomic<uint64_t> batch_pages_{0};
  std::atomic<uint64_t> write_batches_{0};
  std::atomic<uint64_t> write_batch_pages_{0};
};

}  // namespace rtb::storage

#endif  // RTB_STORAGE_FILE_PAGE_STORE_H_
