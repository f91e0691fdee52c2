#include "storage/sharded_buffer_pool.h"

#include <algorithm>
#include <utility>

#include "storage/wal.h"

namespace rtb::storage {

namespace {

// Largest power of two <= n (n >= 1).
size_t FloorPow2(size_t n) {
  size_t p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

}  // namespace

ShardedBufferPool::ShardedBufferPool(PageStore* store, size_t capacity,
                                     Options options)
    : store_(store), capacity_(capacity) {
  RTB_CHECK(store_ != nullptr);
  RTB_CHECK(capacity_ > 0);
  RTB_CHECK(options.num_shards > 0);
  // Power-of-two stripe count (for mask routing), with at least
  // kMinFramesPerShard frames per shard: a shard of one or two frames is
  // exhausted as soon as that many threads pin a page hashing to it.
  const size_t n = FloorPow2(std::max<size_t>(
      1, std::min(options.num_shards, capacity_ / kMinFramesPerShard)));
  shard_mask_ = n - 1;
  shards_.reserve(n);
  const size_t base = capacity_ / n;
  const size_t rem = capacity_ % n;
  for (size_t i = 0; i < n; ++i) {
    const size_t shard_capacity = base + (i < rem ? 1 : 0);
    auto shard = std::make_unique<Shard>();
    shard->pool = std::make_unique<BufferPool>(
        store_, shard_capacity,
        MakePolicy(options.policy, shard_capacity, options.seed + i));
    shards_.push_back(std::move(shard));
  }
}

std::unique_ptr<ShardedBufferPool> ShardedBufferPool::MakeLru(
    PageStore* store, size_t capacity, size_t num_shards) {
  Options options;
  options.num_shards = num_shards;
  return std::make_unique<ShardedBufferPool>(store, capacity, options);
}

Result<PageGuard> ShardedBufferPool::Fetch(PageId id) {
  Shard& s = *shards_[ShardOf(id)];
  const auto lock = Lock(s);
  RTB_ASSIGN_OR_RETURN(FrameId f, s.pool->PinPage(id));
  return PageGuard(this, Frame{id, s.pool->FrameData(f), f},
                   /*mark_dirty=*/false);
}

Result<PageGuard> ShardedBufferPool::FetchMutable(PageId id) {
  Shard& s = *shards_[ShardOf(id)];
  const auto lock = Lock(s);
  RTB_ASSIGN_OR_RETURN(FrameId f, s.pool->PinPage(id));
  return PageGuard(this, Frame{id, s.pool->FrameData(f), f},
                   /*mark_dirty=*/true);
}

Result<std::vector<PageGuard>> ShardedBufferPool::FetchBatch(
    const PageId* ids, size_t count) {
  std::vector<PageGuard> guards;
  guards.reserve(count);
  Status error = Status::OK();
  size_t i = 0;
  while (i < count) {
    // One lock acquisition per run of consecutive ids on the same shard.
    // Within the run the misses are staged (pinned, unread) and then filled
    // through one store ReadBatch, all under the shard lock, so no other
    // thread ever observes an unfilled frame.
    const size_t shard = ShardOf(ids[i]);
    size_t end = i + 1;
    while (end < count && ShardOf(ids[end]) == shard) ++end;
    Shard& s = *shards_[shard];
    const auto lock = Lock(s);
    // A failed run is unwound entirely under its own lock by PinBatch. The
    // raw pins never became guards, so no guard release re-takes the mutex
    // held here. Guards from earlier runs (other shards) are released by
    // the clear below, outside any lock.
    error = s.pool->PinBatch(ids + i, end - i);
    if (!error.ok()) break;
    for (const BufferPool::BatchEntry& e : s.pool->batch_entries_) {
      guards.emplace_back(this,
                          Frame{e.id, s.pool->FrameData(e.frame), e.frame},
                          /*mark_dirty=*/false);
    }
    i = end;
  }
  if (!error.ok()) {
    guards.clear();  // Outside any shard lock; safe to unpin.
    return error;
  }
  return guards;
}

Result<PageGuard> ShardedBufferPool::NewPage() {
  // Allocate centrally (the store is thread-safe), then install the page in
  // the shard its id hashes to.
  RTB_ASSIGN_OR_RETURN(PageId id, store_->Allocate());
  Shard& s = *shards_[ShardOf(id)];
  const auto lock = Lock(s);
  RTB_ASSIGN_OR_RETURN(FrameId f, s.pool->InstallNewPage(id));
  return PageGuard(this, Frame{id, s.pool->FrameData(f), f},
                   /*mark_dirty=*/true);
}

void ShardedBufferPool::Unpin(const Frame& frame, bool dirty) {
  // The guard's frame_id indexes into the owning shard's pool; route by the
  // page id's shard hash, as Fetch did.
  Shard& s = *shards_[ShardOf(frame.page_id)];
  const auto lock = Lock(s);
  s.pool->Unpin(frame, dirty);
}

Status ShardedBufferPool::PinPermanently(PageId id) {
  Shard& s = *shards_[ShardOf(id)];
  const auto lock = Lock(s);
  return s.pool->PinPermanently(id);
}

Status ShardedBufferPool::UnpinPermanently(PageId id) {
  Shard& s = *shards_[ShardOf(id)];
  const auto lock = Lock(s);
  return s.pool->UnpinPermanently(id);
}

size_t ShardedBufferPool::num_permanent_pins() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    const auto lock = Lock(*shard);
    total += shard->pool->num_permanent_pins();
  }
  return total;
}

Status ShardedBufferPool::FlushAll() {
  for (const auto& shard : shards_) {
    const auto lock = Lock(*shard);
    RTB_RETURN_IF_ERROR(shard->pool->FlushAll());
  }
  return Status::OK();
}

Status ShardedBufferPool::EvictAll() {
  for (const auto& shard : shards_) {
    const auto lock = Lock(*shard);
    RTB_RETURN_IF_ERROR(shard->pool->EvictAll());
  }
  return Status::OK();
}

void ShardedBufferPool::AttachWal(WalWriter* wal) {
  wal_ = wal;
  for (const auto& shard : shards_) {
    const auto lock = Lock(*shard);
    shard->pool->AttachWal(wal);
  }
}

Result<Lsn> ShardedBufferPool::WalAppendCommit() {
  // Image every shard's uncommitted pages first, then one commit record
  // covers the whole pool's batch; only then may any shard evict them.
  for (const auto& shard : shards_) {
    const auto lock = Lock(*shard);
    shard->pool->WalLogUncommitted();
  }
  RTB_ASSIGN_OR_RETURN(const Lsn lsn, wal_->Commit(store_->num_pages()));
  for (const auto& shard : shards_) {
    const auto lock = Lock(*shard);
    RTB_RETURN_IF_ERROR(shard->pool->WalMarkCommitted(lsn));
  }
  return lsn;
}

size_t ShardedBufferPool::num_uncommitted() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    const auto lock = Lock(*shard);
    total += shard->pool->num_uncommitted();
  }
  return total;
}

size_t ShardedBufferPool::peak_shard_uncommitted() const {
  size_t peak = 0;
  for (const auto& shard : shards_) {
    const auto lock = Lock(*shard);
    peak = std::max(peak, shard->pool->num_uncommitted());
  }
  return peak;
}

size_t ShardedBufferPool::shard_pinnable_frames(size_t shard) const {
  const Shard& s = *shards_.at(shard);
  const auto lock = Lock(s);
  return s.pool->shard_pinnable_frames(0);
}

Status ShardedBufferPool::WalCheckpoint() {
  if (wal_ == nullptr) return Status::OK();
  RTB_RETURN_IF_ERROR(FlushAll());
  RTB_RETURN_IF_ERROR(store_->Sync());
  return wal_->Checkpoint(store_->num_pages());
}

void ShardedBufferPool::DiscardAll() {
  for (const auto& shard : shards_) {
    const auto lock = Lock(*shard);
    shard->pool->DiscardAll();
  }
}

bool ShardedBufferPool::Contains(PageId id) const {
  const Shard& s = *shards_[ShardOf(id)];
  const auto lock = Lock(s);
  return s.pool->Contains(id);
}

BufferStats ShardedBufferPool::AggregateStats() const {
  BufferStats total;
  for (const auto& shard : shards_) {
    const auto lock = Lock(*shard);
    total += shard->pool->stats();
  }
  return total;
}

void ShardedBufferPool::ResetStats() {
  for (const auto& shard : shards_) {
    const auto lock = Lock(*shard);
    shard->pool->ResetStats();
  }
}

uint64_t ShardedBufferPool::lock_waits() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->lock_waits.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<BufferStats> ShardedBufferPool::ShardStats() const {
  std::vector<BufferStats> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const auto lock = Lock(*shard);
    out.push_back(shard->pool->stats());
  }
  return out;
}

}  // namespace rtb::storage
