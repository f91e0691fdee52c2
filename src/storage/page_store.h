// PageStore: the simulated disk.
//
// The paper's metric is the number of disk accesses; PageStore is the layer
// where those accesses happen and are counted. MemPageStore keeps pages in
// memory (this reproduction does not need real I/O latency, only accurate
// counts), but the interface is the one a file-backed store would implement.
//
// Stores are thread-safe: the concurrent query-execution layer
// (ShardedBufferPool + ParallelRunner) drives reads and writes from many
// worker threads at once. Counters are atomic and stats() returns a
// consistent snapshot; single-threaded runs see exactly the same counts as
// before the stores were made concurrent.

#ifndef RTB_STORAGE_PAGE_STORE_H_
#define RTB_STORAGE_PAGE_STORE_H_

#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <vector>

#include "storage/page.h"
#include "util/result.h"
#include "util/status.h"

namespace rtb::storage {

/// Whether stores and the WAL issue real fsync/fdatasync at their
/// durability points (Create, Sync, Close, commit sync points). On by
/// default; the RTB_NO_FSYNC environment variable (1|on|true) or
/// SetDurableSync(false) turns the syscalls off — for tests and benches on
/// shared hardware, where a real fsync is slow and noisy. Durability
/// *counters* (IoStats::wal_fsyncs) still advance with the seam off, so
/// fsync-count assertions and benches are deterministic either way.
bool DurableSyncActive();
void SetDurableSync(bool on);

/// Cumulative I/O counters for a PageStore (a plain snapshot; the stores
/// keep the live counters in atomics).
///
/// `reads` counts every page read regardless of how it reached the store
/// (one per page even inside a coalesced batch), so the paper's disk-access
/// metric is unchanged by the batch-first API. `read_batches`/`batch_pages`
/// additionally count the vectored operations a store managed to coalesce:
/// a ReadBatch run of k >= 2 consecutive pages served by one preadv adds 1
/// to `read_batches` and k to `batch_pages`. Stores without a vectored path
/// (MemPageStore) leave both at zero.
/// Read syscalls issued are therefore `reads - batch_pages + read_batches`.
///
/// The write side mirrors this exactly: `writes` stays per-page (the
/// paper's disk-write metric), `write_batches`/`write_batch_pages` count
/// the pwritev runs a store coalesced, and write syscalls issued are
/// `writes - write_batch_pages + write_batches`.
struct IoStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t allocations = 0;
  uint64_t read_batches = 0;  // Coalesced (vectored) read operations.
  uint64_t batch_pages = 0;   // Pages covered by those operations.
  uint64_t write_batches = 0;      // Coalesced (vectored) write operations.
  uint64_t write_batch_pages = 0;  // Pages covered by those operations.

  // Write-ahead-log counters (storage/wal.h), merged in by callers that run
  // a WalWriter next to the store (engine::Run). All zero when the WAL seam
  // is off, so WAL-off runs report byte-identical stats to pre-WAL builds.
  uint64_t wal_records = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_commits = 0;
  uint64_t wal_fsyncs = 0;

  double PagesPerBatch() const {
    return read_batches == 0 ? 0.0
                             : static_cast<double>(batch_pages) /
                                   static_cast<double>(read_batches);
  }
  double PagesPerWriteBatch() const {
    return write_batches == 0 ? 0.0
                              : static_cast<double>(write_batch_pages) /
                                    static_cast<double>(write_batches);
  }

  uint64_t ReadSyscalls() const { return reads - batch_pages + read_batches; }
  uint64_t WriteSyscalls() const {
    return writes - write_batch_pages + write_batches;
  }
};

/// Abstract page-granular storage with access counting.
class PageStore {
 public:
  virtual ~PageStore() = default;

  /// Size in bytes of every page in this store.
  virtual size_t page_size() const = 0;

  /// Number of allocated pages; valid page ids are [0, num_pages()).
  virtual PageId num_pages() const = 0;

  /// Allocates a new zero-filled page and returns its id.
  virtual Result<PageId> Allocate() = 0;

  /// Reads page `id` into `out` (must hold page_size() bytes). Counts one
  /// disk read.
  virtual Status Read(PageId id, uint8_t* out) = 0;

  /// Multi-get: reads pages `ids[0..n)` into `out` (`n * page_size()`
  /// bytes, page i at `out + i * page_size()`). Counts one disk read per
  /// page. The default implementation loops Read, so every store is correct
  /// by construction; stores with a faster path (FilePageStore's preadv
  /// over runs of consecutive ids) override it. On error the contents of
  /// `out` are unspecified — a mid-batch failure may have filled a prefix.
  virtual Status ReadBatch(const PageId* ids, size_t n, uint8_t* out);

  /// Whether ReadBatch can do better than a loop of Read calls (true for
  /// FilePageStore, false for MemPageStore). Callers that would have to
  /// stage a batch through a bounce buffer — the buffer pools, whose frames
  /// are not contiguous per batch — consult this to skip the staging copy
  /// when the store would just loop anyway. Purely an optimization hint:
  /// ReadBatch is correct (and counts identically) regardless.
  virtual bool CoalescesBatchReads() const { return false; }

  /// Writes page `id` from `data` (page_size() bytes). Counts one disk
  /// write.
  virtual Status Write(PageId id, const uint8_t* data) = 0;

  /// Multi-put: writes pages `ids[0..n)` from `data` (`n * page_size()`
  /// bytes, page i at `data + i * page_size()`). Counts one disk write per
  /// page, so the paper's metric is independent of batching. The default
  /// loops Write; FilePageStore coalesces runs of consecutive ids into
  /// pwritev. On error a prefix of the batch may have reached the store —
  /// page writes are idempotent, so callers (the buffer pools) keep every
  /// page of a failed batch dirty and retry the whole batch.
  virtual Status WriteBatch(const PageId* ids, size_t n, const uint8_t* data);

  /// Whether WriteBatch can do better than a loop of Write calls (true for
  /// FilePageStore, false for MemPageStore). The write-side twin of
  /// CoalescesBatchReads: pools consult it to decide whether sorting and
  /// staging a dirty set through a bounce buffer can pay off. Purely an
  /// optimization hint — WriteBatch is correct (and counts identically)
  /// regardless.
  virtual bool CoalescesBatchWrites() const { return false; }

  /// Makes every write issued so far durable (header + data + fsync for
  /// FilePageStore, honoring the DurableSync seam). A no-op for stores with
  /// nothing to sync (MemPageStore). The WAL checkpoint protocol calls this
  /// between flushing the pool and truncating the log.
  virtual Status Sync() { return Status::OK(); }

  /// Flushes any store-held state and releases the underlying resource,
  /// surfacing the errors the destructor would otherwise have to swallow
  /// (FilePageStore's final header write + fsync). Idempotent; the store
  /// must not be used for I/O afterwards. Callers that care about
  /// durability call this and check; the destructor only logs.
  virtual Status Close() { return Status::OK(); }

  /// Snapshot of the I/O counters since construction (or the last
  /// ResetStats()).
  virtual IoStats stats() const = 0;
  virtual void ResetStats() = 0;
};

/// In-memory PageStore with exact access counting. Thread-safe: Allocate
/// takes an exclusive lock, Read/Write of distinct pages proceed in
/// parallel under a shared lock. Concurrent writes to the *same* page are
/// the caller's responsibility (the buffer pools never issue them: one
/// frame per page).
class MemPageStore final : public PageStore {
 public:
  explicit MemPageStore(size_t page_size = kDefaultPageSize);

  MemPageStore(const MemPageStore&) = delete;
  MemPageStore& operator=(const MemPageStore&) = delete;

  size_t page_size() const override { return page_size_; }
  PageId num_pages() const override {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return static_cast<PageId>(pages_.size());
  }

  Result<PageId> Allocate() override;
  Status Read(PageId id, uint8_t* out) override;
  Status Write(PageId id, const uint8_t* data) override;

  IoStats stats() const override {
    IoStats snapshot;
    snapshot.reads = reads_.load(std::memory_order_relaxed);
    snapshot.writes = writes_.load(std::memory_order_relaxed);
    snapshot.allocations = allocations_.load(std::memory_order_relaxed);
    return snapshot;
  }
  void ResetStats() override {
    reads_.store(0, std::memory_order_relaxed);
    writes_.store(0, std::memory_order_relaxed);
    allocations_.store(0, std::memory_order_relaxed);
  }

 private:
  size_t page_size_;
  mutable std::shared_mutex mu_;  // Guards pages_ growth vs. access.
  std::vector<std::vector<uint8_t>> pages_;
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> allocations_{0};
};

}  // namespace rtb::storage

#endif  // RTB_STORAGE_PAGE_STORE_H_
