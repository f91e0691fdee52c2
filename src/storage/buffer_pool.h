// BufferPool: a fixed number of in-memory page frames in front of a
// PageStore, with a pluggable replacement policy and support for pinning
// pages permanently (used to pin the top levels of an R-tree, Section 3.3 /
// 5.5 of the paper).
//
// Two implementations of the PageCache interface exist:
//
//   * BufferPool — single-threaded by design: the paper's workload is a
//     serial query stream, and keeping the pool lock-free makes the
//     disk-access counts exactly reproducible.
//   * ShardedBufferPool (sharded_buffer_pool.h) — a thread-safe pool built
//     from N lock-striped BufferPool shards, for concurrent workloads.
//
// Code that executes queries (RTree, the workload runners) depends only on
// PageCache, so serial experiments and concurrent serving share one code
// path.

#ifndef RTB_STORAGE_BUFFER_POOL_H_
#define RTB_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "storage/page.h"
#include "storage/page_store.h"
#include "storage/page_table.h"
#include "storage/replacement.h"
#include "util/result.h"
#include "util/status.h"

namespace rtb::storage {

class WalWriter;

/// Hit/miss counters for a page cache.
struct BufferStats {
  uint64_t requests = 0;    // Logical page requests.
  uint64_t hits = 0;        // Served from the pool.
  uint64_t misses = 0;      // Required a disk read.
  uint64_t evictions = 0;   // Pages pushed out.
  uint64_t writebacks = 0;  // Dirty pages written on eviction/flush.
  // Frames taken beyond capacity because every frame was pinned or held
  // uncommitted pages (WAL-attached pools only; returned at commit).
  uint64_t spare_frames = 0;

  double HitRate() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(requests);
  }

  BufferStats& operator+=(const BufferStats& other) {
    requests += other.requests;
    hits += other.hits;
    misses += other.misses;
    evictions += other.evictions;
    writebacks += other.writebacks;
    spare_frames += other.spare_frames;
    return *this;
  }
};

/// A page held in the pool. Returned by Fetch; the caller must Unpin it
/// (directly or via PageGuard) when done. `frame_id` is the pool-internal
/// frame index, carried so releasing the pin indexes the frame directly
/// instead of re-probing the page table.
struct Frame {
  PageId page_id = kInvalidPageId;
  uint8_t* data = nullptr;
  FrameId frame_id = 0;
};

class PageCache;

/// RAII unpinning wrapper around a fetched frame.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(PageCache* pool, Frame frame, bool mark_dirty)
      : pool_(pool), frame_(frame), dirty_(mark_dirty) {}

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
  PageGuard& operator=(PageGuard&& other) noexcept;

  ~PageGuard() { Release(); }

  /// Unpins now (idempotent).
  void Release();

  PageId page_id() const { return frame_.page_id; }
  const uint8_t* data() const { return frame_.data; }
  uint8_t* mutable_data() {
    dirty_ = true;
    return frame_.data;
  }
  bool valid() const { return pool_ != nullptr; }

 private:
  PageCache* pool_ = nullptr;
  Frame frame_;
  bool dirty_ = false;
};

/// Abstract page cache: the surface RTree and the workload runners execute
/// against. Implementations decide whether calls must be externally
/// serialized (BufferPool) or are internally synchronized
/// (ShardedBufferPool).
class PageCache {
 public:
  virtual ~PageCache() = default;

  /// Total number of frames.
  virtual size_t capacity() const = 0;
  virtual size_t page_size() const = 0;

  /// Fetches a page, reading from the store on a miss. The returned guard
  /// keeps the page pinned until released.
  virtual Result<PageGuard> Fetch(PageId id) = 0;

  /// Fetches for writing; the page is marked dirty.
  virtual Result<PageGuard> FetchMutable(PageId id) = 0;

  /// Multi-get: fetches `count` pages at once, returning one pinned guard
  /// per id in the same order (a duplicated id gets an independent pin).
  /// The base implementation loops Fetch; internally synchronized caches
  /// override it to amortize their locking over coalesced runs of ids.
  /// On error no pins are retained, but requests issued before the failing
  /// one are still counted in the stats. All `count` pages are pinned
  /// simultaneously, so callers batching against a small pool must keep
  /// `count` well under the unpinned-frame budget (the batch executor
  /// windows its fetches for exactly this reason).
  virtual Result<std::vector<PageGuard>> FetchBatch(const PageId* ids,
                                                    size_t count);

  /// Allocates a fresh page in the store and returns it pinned and dirty.
  virtual Result<PageGuard> NewPage() = 0;

  /// Permanently pins `id` (fetching it if absent). A level-pinned page
  /// never leaves the buffer and all subsequent accesses are hits. Fails
  /// with ResourceExhausted when no frame can be freed.
  virtual Status PinPermanently(PageId id) = 0;

  /// Releases a permanent pin.
  virtual Status UnpinPermanently(PageId id) = 0;

  /// Number of permanently pinned pages.
  virtual size_t num_permanent_pins() const = 0;

  /// Writes all dirty pages back to the store (pages stay cached).
  virtual Status FlushAll() = 0;

  /// Final flush with the error surfaced: what the destructor does, minus
  /// the ability to report. Call before destroying a pool whose dirty data
  /// matters; the cache stays usable afterwards (Close is just a checked
  /// FlushAll for pools).
  virtual Status Close() { return FlushAll(); }

  /// Flushes and drops every unpinned page, returning the cache to a cold
  /// state (permanently pinned pages stay).
  virtual Status EvictAll() = 0;

  /// Attaches a write-ahead log (storage/wal.h), switching the cache to the
  /// no-steal, no-force discipline: a page modified since the last commit
  /// is *uncommitted* — never an eviction victim, skipped by FlushAll —
  /// until the next commit logs its after-image; commits log after-images
  /// instead of forcing pages out; and any writeback of a committed page
  /// first ensures its commit record is durable. When every frame is pinned
  /// or uncommitted, a fetch takes a spare frame beyond capacity
  /// (BufferStats::spare_frames) instead of stealing or failing; the next
  /// commit writes it back and returns it. `wal` is not owned and must
  /// outlive the cache. Default: the cache has no WAL and behaves exactly
  /// as before (the seam off).
  virtual void AttachWal(WalWriter* wal) { (void)wal; }

  /// The writer passed to AttachWal, or null when the cache runs without a
  /// WAL.
  virtual WalWriter* attached_wal() const { return nullptr; }

  /// Commit point for the attached WAL: logs an after-image for every
  /// uncommitted page and appends one commit record (made durable per the
  /// writer's group-commit window); the pages become committed, evictable
  /// and stay dirty in the pool — no data-file I/O here (no-force) except
  /// to return spare frames. Then, once the log has grown past its bound
  /// (WalWriter::CheckpointDue), runs WalCheckpoint online: updates come
  /// from one thread at a time, so right after a commit no page is
  /// uncommitted, and this is the close-time checkpoint at a commit
  /// boundary. Every commit (the update executor's and the serial runner's)
  /// comes through here, so this is the one place that bounds the log.
  /// Returns the commit record's LSN; kNoLsn (a no-op) without a WAL.
  Result<Lsn> WalCommit();

  /// Checkpoint: flush every committed dirty page (WAL-first), fsync the
  /// store, then truncate the log to a fresh checkpoint record. After this,
  /// recovery has nothing to replay. A no-op without a WAL.
  virtual Status WalCheckpoint() { return Status::OK(); }

  /// Pages modified since the last commit (0 without a WAL): the dirty set
  /// the next WalCommit logs.
  virtual size_t num_uncommitted() const { return 0; }

  /// Uncommitted pages in the shard holding the most of them. Each shard is
  /// no-steal on its own frames, so this, not the total, is what decides
  /// when a shard runs out; num_uncommitted() for a single-shard cache.
  virtual size_t peak_shard_uncommitted() const { return num_uncommitted(); }

  /// Drops all dirty state without writing anything — the teardown of a
  /// simulated crash, where the dying process's buffered pages must NOT
  /// reach the store. Frames stay resident but clean; the cache is only
  /// good for destruction afterwards.
  virtual void DiscardAll() {}

  /// True if `id` currently resides in the cache (no access recorded).
  virtual bool Contains(PageId id) const = 0;

  /// Merged hit/miss counters across the whole cache (all shards).
  virtual BufferStats AggregateStats() const = 0;
  virtual void ResetStats() = 0;

  /// Independent partitions of the frame budget. Each shard has its own
  /// frames, replacement policy and counters, so accesses to different
  /// shards never interact: the hit/miss sequence of one shard depends only
  /// on the accesses routed to it. A single-partition cache returns 1.
  virtual size_t num_shards() const { return 1; }

  /// The shard `id` routes to, in [0, num_shards()).
  virtual size_t ShardOf(PageId id) const {
    (void)id;
    return 0;
  }

  /// Frames of shard `shard` that hold neither a permanently pinned nor an
  /// uncommitted page: how many pages a caller can pin there at once before
  /// a fetch fails (or, with a WAL, takes a spare frame). Pins that other
  /// callers hold are not subtracted.
  virtual size_t shard_pinnable_frames(size_t shard) const {
    (void)shard;
    const size_t held = num_permanent_pins() + num_uncommitted();
    return capacity() > held ? capacity() - held : 0;
  }

  /// Shard-lock acquisitions that had to wait for another thread (0 for
  /// caches without locks).
  virtual uint64_t lock_waits() const { return 0; }

 protected:
  /// The commit half of WalCommit: image every uncommitted page, append one
  /// commit record and mark the pages committed. Returns the commit
  /// record's LSN. Called only with a WAL attached.
  virtual Result<Lsn> WalAppendCommit() { return kNoLsn; }

 private:
  friend class PageGuard;

  /// Drops one pin on `frame`'s page, marking it dirty when `dirty`. Called
  /// by PageGuard on release, possibly from a different thread than Fetch
  /// for internally synchronized implementations.
  virtual void Unpin(const Frame& frame, bool dirty) = 0;
};

/// Buffer pool of `capacity` frames over `store`. Single-threaded: callers
/// must externally serialize access (or use ShardedBufferPool).
class BufferPool final : public PageCache {
 public:
  /// The pool does not own `store`; it must outlive the pool.
  BufferPool(PageStore* store, size_t capacity,
             std::unique_ptr<ReplacementPolicy> policy);

  /// Convenience: LRU pool, the paper's configuration.
  static std::unique_ptr<BufferPool> MakeLru(PageStore* store,
                                             size_t capacity);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  ~BufferPool() override;

  size_t capacity() const override { return capacity_; }
  size_t page_size() const override { return store_->page_size(); }

  Result<PageGuard> Fetch(PageId id) override;
  Result<PageGuard> FetchMutable(PageId id) override;

  /// Overrides the loop-Fetch default to route the window's misses through
  /// one PageStore::ReadBatch call straight into their frames (page-id
  /// sorted, so consecutive pages coalesce into vectored reads on a
  /// FilePageStore). Hit/miss accounting happens per id in presentation
  /// order before any read is issued, so BufferStats are byte-identical to
  /// the looped path; only the number of read *syscalls* changes.
  Result<std::vector<PageGuard>> FetchBatch(const PageId* ids,
                                            size_t count) override;

  Result<PageGuard> NewPage() override;

  Status PinPermanently(PageId id) override;
  Status UnpinPermanently(PageId id) override;
  size_t num_permanent_pins() const override { return num_permanent_pins_; }

  Status FlushAll() override;
  Status EvictAll() override;

  void AttachWal(WalWriter* wal) override { wal_ = wal; }
  WalWriter* attached_wal() const override { return wal_; }
  Status WalCheckpoint() override;
  size_t num_uncommitted() const override { return uncommitted_.size(); }
  void DiscardAll() override;

  /// Checked final flush. With a WAL attached this commits any uncommitted
  /// pages and then checkpoints (flush + store sync + log truncation) so
  /// the log does not outlive the pool with stale content.
  Status Close() override;

  bool Contains(PageId id) const override {
    return page_table_.Contains(id);
  }

  const BufferStats& stats() const { return stats_; }
  BufferStats AggregateStats() const override { return stats_; }
  void ResetStats() override { stats_ = BufferStats{}; }

 protected:
  Result<Lsn> WalAppendCommit() override;

 private:
  friend class PageGuard;
  friend class ShardedBufferPool;

  struct FrameMeta {
    PageId page_id = kInvalidPageId;
    // LSN of the commit record that last logged this frame's image;
    // writeback must EnsureDurable up to here first. kNoLsn when the page
    // was never logged (WAL off, or content unchanged since the store).
    Lsn lsn = kNoLsn;
    // Plain counter: every access is serialized — externally for a bare
    // BufferPool (single-threaded by contract), by the owning shard's mutex
    // for ShardedBufferPool (every entry point, including PageGuard
    // release, takes it) — so the mutex already provides the cross-thread
    // ordering an atomic would.
    uint32_t pin_count = 0;
    bool permanent = false;
    bool dirty = false;
    bool in_use = false;
    // WAL attached only: modified since the last commit (set when a
    // dirtying guard — FetchMutable, NewPage — releases it). Never an
    // eviction victim, never written to the store, until the next commit
    // logs its image.
    bool uncommitted = false;

    void Reset() {
      page_id = kInvalidPageId;
      lsn = kNoLsn;
      pin_count = 0;
      permanent = false;
      dirty = false;
      in_use = false;
      uncommitted = false;
    }
  };

  // One id of an in-flight FetchBatch: the frame it pinned, and whether the
  // frame is still pending (installed in the table and pinned, but its data
  // not yet read from the store).
  struct BatchEntry {
    PageId id = kInvalidPageId;
    FrameId frame = 0;
    bool pending = false;
  };

  // Finds a frame for a new page: a free frame if any, otherwise evicts;
  // when nothing is evictable but uncommitted pages hold frames, a spare.
  Result<FrameId> AcquireFrame();

  // Spare frames have ids from capacity_ up; the replacement policy never
  // tracks them.
  bool IsSpare(FrameId f) const { return f >= capacity_; }

  // A frame beyond capacity, with its own page buffer (reused once
  // returned). Counted in stats_.spare_frames.
  FrameId AcquireSpareFrame();

  // Writes back and frees every unpinned spare frame. Run right after a
  // commit, when every spare's page is committed.
  Status ReturnSpareFrames();

  // Writes the dirty eviction victim back, clustered with the dirty
  // unpinned frames holding *consecutive* page ids (probed in both
  // directions through the page table): the whole run goes out as one
  // WriteBatch — a single pwritev on a FilePageStore. The neighbors stay
  // resident, just clean, so their own later eviction needs no write. On
  // failure every page of the cluster stays dirty (page writes are
  // idempotent; retry rewrites).
  Status WritebackVictim(FrameId victim);

  // Writes the frames listed in wb_frames_ (all dirty and committed) with
  // one page-id-sorted WriteBatch straight from the frames, after the WAL
  // pre-step, and marks them clean once the whole batch succeeded. The
  // shared tail of WritebackVictim and FlushAll.
  Status WriteBackFrames();

  // Pins the page into a frame, reading it on a miss. Core of Fetch.
  Result<FrameId> PinPage(PageId id);

  // Like PinPage, but a miss installs the frame (pinned, in the page table)
  // without reading from the store; `*pending` is set and the caller must
  // either fill FrameData() — misses of a batch are filled together by
  // ReadPendingFrames — or roll the install back with UninstallPending.
  // A repeated id in the same batch hits the pending frame, exactly as it
  // would hit the already-read frame on the looped path.
  Result<FrameId> PinPageNoRead(PageId id, bool* pending);

  // Rolls back a pending install from PinPageNoRead: the frame (never
  // filled) leaves the page table, the policy forgets it, and it returns to
  // the free list. Any extra pins from repeated ids must be dropped first.
  void UninstallPending(FrameId f);

  // Pins `ids[0..count)` in presentation order into batch_entries_ and
  // fills the misses with one store ReadBatch. On error every pin taken is
  // unwound (nothing from the batch stays resident) and the error
  // returned. The core of both pools' FetchBatch: the entries hold one
  // pinned frame per id for the caller to turn into guards.
  Status PinBatch(const PageId* ids, size_t count);

  // Reads every still-pending entry of batch_entries_ from the store with
  // one ReadBatch (page-id sorted to maximize consecutive runs) straight
  // into the frames, clearing the pending flags on success. On error the
  // entries stay pending (PinBatch unwinds them).
  Status ReadPendingFrames();

  // Installs the already-allocated, zero-filled page `id` into a frame,
  // pinned and dirty. Core of NewPage; also used by ShardedBufferPool,
  // which allocates centrally and routes the page to its shard.
  Result<FrameId> InstallNewPage(PageId id);

  void Unpin(const Frame& frame, bool dirty) override;

  // Releases every pin in batch_entries_ in reverse order; entries still
  // pending are uninstalled, the rest unpinned.
  void UnwindPins();

  // WAL pre-step of any writeback (every frame of the set is committed):
  // blocks until the commit record covering each frame is durable. A no-op
  // without an attached WAL. Used by WritebackVictim and FlushAll before
  // their store writes.
  Status WalBeforeWriteback(const FrameId* frames, size_t n);

  // Logs an after-image for every uncommitted frame without forcing
  // durability — the front half of a commit. The frames stay uncommitted
  // (unevictable) until WalMarkCommitted, so no other thread of a sharded
  // pool can write one back before its commit record exists. Shared with
  // ShardedBufferPool, whose WalAppendCommit runs this per shard, writes
  // one commit record for all of them, then marks every shard committed.
  void WalLogUncommitted();

  // The back half of a commit whose record got LSN `commit`: the logged
  // frames become committed and evictable, then spare frames are returned.
  Status WalMarkCommitted(Lsn commit);

  uint8_t* FrameData(FrameId f) {
    if (IsSpare(f)) return spare_data_[f - capacity_].get();
    return buffer_.data() + static_cast<size_t>(f) * page_size();
  }

  PageStore* store_;
  // Not owned; null = WAL discipline off (the historical write path).
  WalWriter* wal_ = nullptr;
  size_t capacity_;
  std::unique_ptr<ReplacementPolicy> policy_;
  std::vector<uint8_t> buffer_;
  std::vector<FrameMeta> frames_;
  std::vector<FrameId> free_frames_;
  // Page buffers of the spare frames (frame capacity_ + i uses
  // spare_data_[i]), and the returned ones ready for reuse.
  std::vector<std::unique_ptr<uint8_t[]>> spare_data_;
  std::vector<FrameId> free_spares_;
  // Frames whose `uncommitted` flag is set, in the order they were dirtied.
  std::vector<FrameId> uncommitted_;
  // Open-addressed page-id -> frame index, sized at construction so
  // steady-state fetches never allocate (see storage/page_table.h).
  PageTable page_table_;
  // Reused per-call scratch for PinBatch / ReadPendingFrames, so the
  // small, frequent fetch windows of low batch sizes don't pay a heap
  // allocation each. Safe as members: the pool is externally serialized
  // (per shard for ShardedBufferPool) and neither call re-enters.
  std::vector<BatchEntry> batch_entries_;
  std::vector<BatchEntry*> batch_pending_;
  std::vector<PageId> batch_ids_;
  std::vector<uint8_t*> batch_bufs_;
  // Scratch for the write side (FlushAll's sorted sweep and eviction-time
  // write clustering). Separate from the read-side batch_* scratch because
  // an eviction while FetchBatch pins must not scribble over the fetch
  // batch in progress.
  std::vector<FrameId> wb_frames_;
  std::vector<PageId> wb_ids_;
  std::vector<const uint8_t*> wb_bufs_;
  size_t num_permanent_pins_ = 0;
  BufferStats stats_;
};

}  // namespace rtb::storage

#endif  // RTB_STORAGE_BUFFER_POOL_H_
