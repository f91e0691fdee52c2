// PageStore: the simulated disk.
//
// The paper's metric is the number of disk accesses; PageStore is the layer
// where those accesses happen and are counted. MemPageStore keeps pages in
// memory (this reproduction does not need real I/O latency, only accurate
// counts), but the interface is the one a file-backed store would implement.
//
// Stores are thread-safe: a ShardedBufferPool's shards, driven by the
// batch executor's worker threads, issue reads and writes concurrently.
// Counters are atomic and stats() returns a consistent snapshot;
// single-threaded runs see exactly the same counts as before the stores
// were made concurrent.
//
// Each direction has one I/O entry point, ReadBatch / WriteBatch, taking
// one buffer pointer per page; Read and Write are one-page calls into it.

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
/// to `read_batches` and k to `batch_pages`. MemPageStore, which has no
/// syscalls to save, leaves both at zero.
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

  /// Multi-get: reads page `ids[i]` into `out[i]` (page_size() bytes each)
  /// for i in [0, n). Counts one disk read per page, so the paper's metric
  /// is independent of batching. The destinations need not be contiguous
  /// or ordered — the buffer pools pass their frames directly.
  /// MemPageStore loops; FilePageStore turns each run of consecutive ids
  /// into one preadv scattered over the run's destinations. On error the
  /// destinations are unspecified — a mid-batch failure may have filled
  /// some of them.
  virtual Status ReadBatch(const PageId* ids, size_t n,
                           uint8_t* const* out) = 0;

  /// Multi-put: writes page `ids[i]` from `data[i]` (page_size() bytes
  /// each) for i in [0, n). Counts one disk write per page. FilePageStore
  /// coalesces runs of consecutive ids into pwritev. On error a prefix of
  /// the batch may have reached the store — page writes are idempotent, so
  /// callers (the buffer pools) keep every page of a failed batch dirty
  /// and retry the whole batch.
  virtual Status WriteBatch(const PageId* ids, size_t n,
                            const uint8_t* const* data) = 0;

  /// Reads page `id` into `out` (page_size() bytes): a ReadBatch of one.
  Status Read(PageId id, uint8_t* out) { return ReadBatch(&id, 1, &out); }

  /// Writes page `id` from `data` (page_size() bytes): a WriteBatch of one.
  Status Write(PageId id, const uint8_t* data) {
    return WriteBatch(&id, 1, &data);
  }

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
/// takes an exclusive lock, batches of distinct pages proceed in parallel
/// under a shared lock. Concurrent writes to the *same* page are
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
  Status ReadBatch(const PageId* ids, size_t n, uint8_t* const* out) override;
  Status WriteBatch(const PageId* ids, size_t n,
                    const uint8_t* const* data) override;

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
