// ShardedBufferPool: a thread-safe PageCache built from N lock-striped
// BufferPool shards.
//
// Pages are hashed by 8-page block onto a shard; each shard owns an
// independent slice of the frame budget, its own replacement policy, and its
// own BufferStats, all guarded by one mutex per shard. A fetch therefore takes
// exactly one uncontended lock in the common case, and two threads touching
// pages on different shards never serialize. AggregateStats() merges the
// per-shard counters into the single view the experiments report.
//
// Semantics vs. the single-threaded BufferPool:
//   * Replacement is per-shard LRU (or any PolicyKind), not global LRU; a
//     page can be evicted from its full shard while another shard has free
//     frames. With uniform page hashing and >= ~8 frames per shard the
//     measured hit rate tracks global LRU closely (see DESIGN.md §7).
//   * With num_shards == 1 the pool degenerates to a mutex around one
//     BufferPool, so single-shard runs reproduce the serial pool's counts
//     exactly.
//   * PageGuard is thread-safe here: guards may be released on any thread;
//     pin counts are atomic and the release re-takes the owning shard lock.

#ifndef RTB_STORAGE_SHARDED_BUFFER_POOL_H_
#define RTB_STORAGE_SHARDED_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/page_store.h"
#include "storage/replacement.h"
#include "util/result.h"
#include "util/status.h"

namespace rtb::storage {

/// Thread-safe, lock-striped page cache. The store must itself be
/// thread-safe (MemPageStore and FilePageStore are).
class ShardedBufferPool final : public PageCache {
 public:
  struct Options {
    /// Number of lock stripes; must be set (> 0). Rounded down to a power
    /// of two and capped so every shard keeps at least kMinFramesPerShard
    /// frames (a pool smaller than that gets one shard).
    size_t num_shards = 0;
    /// Replacement policy instantiated per shard.
    PolicyKind policy = PolicyKind::kLru;
    /// Seed for randomized policies (shard i uses seed + i).
    uint64_t seed = 0;
  };

  /// Frame floor per shard. A shard's frames can all be pinned by other
  /// threads, and a full shard fails the fetch instead of waiting, so every
  /// shard keeps room for a few concurrent pins.
  static constexpr size_t kMinFramesPerShard = 8;

  /// The pool does not own `store`; it must outlive the pool.
  ShardedBufferPool(PageStore* store, size_t capacity, Options options);

  /// Convenience: per-shard LRU, the paper's policy.
  static std::unique_ptr<ShardedBufferPool> MakeLru(PageStore* store,
                                                    size_t capacity,
                                                    size_t num_shards);

  ShardedBufferPool(const ShardedBufferPool&) = delete;
  ShardedBufferPool& operator=(const ShardedBufferPool&) = delete;

  size_t capacity() const override { return capacity_; }
  size_t page_size() const override { return store_->page_size(); }
  size_t num_shards() const override { return shards_.size(); }

  /// Routes by 8-page block: SplitMix64 of `id >> 3`. Consecutive
  /// ids of one block share a shard, so a page-sorted fetch window drawn
  /// from one shard still coalesces into vectored store reads, while the
  /// blocks of a contiguously laid-out tree level spread over the stripes.
  size_t ShardOf(PageId id) const override {
    uint64_t z = (static_cast<uint64_t>(id) >> kBlockShift) +
                 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return static_cast<size_t>((z ^ (z >> 31)) & shard_mask_);
  }

  /// Contended shard-lock acquisitions (a failed try_lock, then a blocking
  /// lock), summed over the shards.
  uint64_t lock_waits() const override;

  Result<PageGuard> Fetch(PageId id) override;
  Result<PageGuard> FetchMutable(PageId id) override;

  /// Takes one shard-lock acquisition per run of consecutive ids routed to
  /// the same shard, and routes each run's misses through one store
  /// ReadBatch under that lock. The batch executor draws each window from
  /// one shard, so a window is one run and its consecutive misses coalesce
  /// into vectored reads, as on the serial BufferPool.
  Result<std::vector<PageGuard>> FetchBatch(const PageId* ids,
                                            size_t count) override;

  Result<PageGuard> NewPage() override;

  Status PinPermanently(PageId id) override;
  Status UnpinPermanently(PageId id) override;
  size_t num_permanent_pins() const override;

  Status FlushAll() override;
  Status EvictAll() override;

  /// Like BufferPool::Close: a WAL-attached pool commits what is pending
  /// and checkpoints on the way out so the log does not outlive it with
  /// stale content.
  Status Close() override {
    if (wal_ == nullptr) return FlushAll();
    if (num_uncommitted() > 0) RTB_RETURN_IF_ERROR(WalAppendCommit().status());
    return WalCheckpoint();
  }

  /// WAL surface: the writer is shared (it is internally synchronized);
  /// each shard logs its own images under its own lock, and a commit or
  /// checkpoint writes ONE record for the whole pool — batch atomicity is
  /// pool-wide, not per-shard.
  void AttachWal(WalWriter* wal) override;
  WalWriter* attached_wal() const override { return wal_; }
  Status WalCheckpoint() override;
  size_t num_uncommitted() const override;
  size_t peak_shard_uncommitted() const override;
  size_t shard_pinnable_frames(size_t shard) const override;
  void DiscardAll() override;

  bool Contains(PageId id) const override;

  BufferStats AggregateStats() const override;
  void ResetStats() override;

  /// Per-shard counters (same order as shard ids), for tests and the
  /// scaling bench.
  std::vector<BufferStats> ShardStats() const;

 protected:
  Result<Lsn> WalAppendCommit() override;

 private:
  /// Pages per routing block (a power of two).
  static constexpr unsigned kBlockShift = 3;

  struct Shard {
    mutable std::mutex mu;
    mutable std::atomic<uint64_t> lock_waits{0};
    std::unique_ptr<BufferPool> pool;
  };

  // Takes the shard's lock, counting the acquisition in lock_waits when
  // another thread holds it.
  static std::unique_lock<std::mutex> Lock(const Shard& s) {
    std::unique_lock<std::mutex> lock(s.mu, std::try_to_lock);
    if (!lock.owns_lock()) {
      s.lock_waits.fetch_add(1, std::memory_order_relaxed);
      lock.lock();
    }
    return lock;
  }

  void Unpin(const Frame& frame, bool dirty) override;

  PageStore* store_;
  WalWriter* wal_ = nullptr;  // Not owned; null = WAL off.
  size_t capacity_;
  size_t shard_mask_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace rtb::storage

#endif  // RTB_STORAGE_SHARDED_BUFFER_POOL_H_
