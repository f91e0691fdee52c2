#include "storage/buffer_pool.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

#include "storage/wal.h"

namespace rtb::storage {

// Move-into-engaged-guard: the current guard's pin is released before
// adopting `other`'s frame, and self-assignment is a no-op (releasing first
// would otherwise drop the pin we are about to adopt).
PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_ = other.frame_;
    dirty_ = other.dirty_;
    other.pool_ = nullptr;
    other.frame_ = Frame{};
    other.dirty_ = false;
  }
  return *this;
}

void PageGuard::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_, dirty_);
    pool_ = nullptr;
  }
}

Result<std::vector<PageGuard>> PageCache::FetchBatch(const PageId* ids,
                                                     size_t count) {
  std::vector<PageGuard> guards;
  guards.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    RTB_ASSIGN_OR_RETURN(PageGuard guard, Fetch(ids[i]));
    guards.push_back(std::move(guard));
  }
  return guards;
}

BufferPool::BufferPool(PageStore* store, size_t capacity,
                       std::unique_ptr<ReplacementPolicy> policy)
    : store_(store),
      capacity_(capacity),
      policy_(std::move(policy)),
      buffer_(capacity * store->page_size()),
      frames_(capacity),
      page_table_(capacity) {
  RTB_CHECK(store_ != nullptr);
  RTB_CHECK(capacity_ > 0);
  RTB_CHECK(policy_ != nullptr);
  free_frames_.reserve(capacity_);
  // Hand out low frame ids first.
  for (size_t f = capacity_; f > 0; --f) {
    free_frames_.push_back(static_cast<FrameId>(f - 1));
  }
}

std::unique_ptr<BufferPool> BufferPool::MakeLru(PageStore* store,
                                                size_t capacity) {
  return std::make_unique<BufferPool>(
      store, capacity, std::make_unique<LruPolicy>(capacity));
}

BufferPool::~BufferPool() {
  // Best-effort writeback so a store outliving the pool sees final state; a
  // destructor can only log the failure — callers that must not lose data
  // call Close() and check.
  Status s = FlushAll();
  if (!s.ok()) {
    std::fprintf(stderr,
                 "BufferPool: writeback failed in destructor (call Close() "
                 "to handle): %s\n",
                 s.ToString().c_str());
    RTB_DCHECK(s.ok());
  }
}

Status BufferPool::Close() {
  if (wal_ == nullptr) return FlushAll();
  if (!uncommitted_.empty()) RTB_RETURN_IF_ERROR(WalAppendCommit().status());
  return WalCheckpoint();
}

Result<FrameId> BufferPool::AcquireFrame() {
  if (!free_frames_.empty()) {
    FrameId f = free_frames_.back();
    free_frames_.pop_back();
    return f;
  }
  FrameId victim;
  if (!policy_->Evict(&victim)) {
    // No-steal: uncommitted pages may not leave the pool, so when they are
    // what fills it the pool grows past capacity until the next commit
    // rather than failing the batch that dirtied them.
    if (!uncommitted_.empty()) return AcquireSpareFrame();
    return Status::ResourceExhausted(
        "buffer pool full: all frames pinned (capacity " +
        std::to_string(capacity_) + ")");
  }
  FrameMeta& meta = frames_[victim];
  RTB_DCHECK(meta.in_use && meta.pin_count == 0 && !meta.permanent);
  if (meta.dirty) {
    Status write = WritebackVictim(victim);
    if (!write.ok()) {
      // Keep the victim resident and evictable (at MRU position) so the
      // pool stays consistent; the dirty data is not lost and the caller
      // can retry.
      policy_->RecordAccess(victim);
      policy_->SetEvictable(victim, true);
      return write;
    }
  }
  page_table_.Erase(meta.page_id);
  ++stats_.evictions;
  meta.Reset();
  return victim;
}

FrameId BufferPool::AcquireSpareFrame() {
  ++stats_.spare_frames;
  if (!free_spares_.empty()) {
    const FrameId f = free_spares_.back();
    free_spares_.pop_back();
    return f;
  }
  const FrameId f = static_cast<FrameId>(frames_.size());
  frames_.emplace_back();
  spare_data_.push_back(std::make_unique<uint8_t[]>(page_size()));
  page_table_.Reserve(frames_.size());
  return f;
}

Status BufferPool::ReturnSpareFrames() {
  for (FrameId f = static_cast<FrameId>(capacity_); f < frames_.size(); ++f) {
    FrameMeta& meta = frames_[f];
    if (!meta.in_use || meta.pin_count > 0 || meta.permanent) continue;
    if (meta.dirty) RTB_RETURN_IF_ERROR(WritebackVictim(f));
    page_table_.Erase(meta.page_id);
    meta.Reset();
    free_spares_.push_back(f);
  }
  return Status::OK();
}

Status BufferPool::WalBeforeWriteback(const FrameId* frames, size_t n) {
  if (wal_ == nullptr) return Status::OK();
  Lsn max_lsn = kNoLsn;
  for (size_t k = 0; k < n; ++k) {
    RTB_DCHECK(!frames_[frames[k]].uncommitted);
    max_lsn = std::max(max_lsn, frames_[frames[k]].lsn);
  }
  // WAL-before-data: the commit covering every one of these pages is
  // durable before a single data byte is overwritten. After a commit, the
  // first writeback pays one sync point and covers every page committed so
  // far.
  return wal_->EnsureDurable(max_lsn);
}

void BufferPool::WalLogUncommitted() {
  for (const FrameId f : uncommitted_) {
    wal_->AppendPageImage(frames_[f].page_id, FrameData(f), page_size());
  }
}

Status BufferPool::WalMarkCommitted(Lsn commit) {
  for (const FrameId f : uncommitted_) {
    FrameMeta& m = frames_[f];
    m.uncommitted = false;
    m.lsn = commit;
    if (m.pin_count == 0 && !m.permanent && !IsSpare(f)) {
      policy_->SetEvictable(f, true);
    }
  }
  uncommitted_.clear();
  if (frames_.size() == capacity_) return Status::OK();
  return ReturnSpareFrames();
}

Result<Lsn> PageCache::WalCommit() {
  WalWriter* wal = attached_wal();
  if (wal == nullptr) return kNoLsn;
  RTB_ASSIGN_OR_RETURN(const Lsn lsn, WalAppendCommit());
  if (wal->CheckpointDue()) RTB_RETURN_IF_ERROR(WalCheckpoint());
  return lsn;
}

Result<Lsn> BufferPool::WalAppendCommit() {
  WalLogUncommitted();
  RTB_ASSIGN_OR_RETURN(const Lsn lsn, wal_->Commit(store_->num_pages()));
  RTB_RETURN_IF_ERROR(WalMarkCommitted(lsn));
  return lsn;
}

Status BufferPool::WalCheckpoint() {
  if (wal_ == nullptr) return Status::OK();
  // FlushAll writes every committed dirty page after ensuring its commit
  // is durable, so the store ends up holding the committed state the log
  // describes; Sync makes it durable; then the log can restart empty.
  // Uncommitted pages stay in the pool for the next commit to log.
  RTB_RETURN_IF_ERROR(FlushAll());
  RTB_RETURN_IF_ERROR(store_->Sync());
  return wal_->Checkpoint(store_->num_pages());
}

void BufferPool::DiscardAll() {
  for (FrameMeta& m : frames_) {
    if (m.in_use) {
      m.dirty = false;
      m.uncommitted = false;
    }
  }
  uncommitted_.clear();
}

Status BufferPool::WritebackVictim(FrameId victim) {
  // Grow a consecutive run of dirty, unpinned pages around the victim.
  // Group-by-leaf batches dirty page-id-adjacent leaves, so the run is
  // often long; the bound keeps the run within one pwritev at the store.
  constexpr size_t kMaxWritebackCluster = 32;
  wb_frames_.clear();
  wb_frames_.push_back(victim);
  const auto clusterable = [this](FrameId f) {
    const FrameMeta& m = frames_[f];
    return m.dirty && m.pin_count == 0 && !m.uncommitted;
  };
  PageId lo = frames_[victim].page_id;
  PageId hi = lo;
  while (wb_frames_.size() < kMaxWritebackCluster && lo > 0) {
    const FrameId f = page_table_.Find(lo - 1);
    if (f == PageTable::kNoFrame || !clusterable(f)) break;
    wb_frames_.push_back(f);
    --lo;
  }
  while (wb_frames_.size() < kMaxWritebackCluster &&
         hi + 1 != kInvalidPageId) {
    const FrameId f = page_table_.Find(hi + 1);
    if (f == PageTable::kNoFrame || !clusterable(f)) break;
    wb_frames_.push_back(f);
    ++hi;
  }
  return WriteBackFrames();
}

Status BufferPool::WriteBackFrames() {
  std::sort(wb_frames_.begin(), wb_frames_.end(),
            [this](FrameId a, FrameId b) {
              return frames_[a].page_id < frames_[b].page_id;
            });
  RTB_RETURN_IF_ERROR(
      WalBeforeWriteback(wb_frames_.data(), wb_frames_.size()));
  wb_ids_.resize(wb_frames_.size());
  wb_bufs_.resize(wb_frames_.size());
  for (size_t k = 0; k < wb_frames_.size(); ++k) {
    wb_ids_[k] = frames_[wb_frames_[k]].page_id;
    wb_bufs_[k] = FrameData(wb_frames_[k]);
  }
  RTB_RETURN_IF_ERROR(
      store_->WriteBatch(wb_ids_.data(), wb_ids_.size(), wb_bufs_.data()));
  // Clean marks only land after the whole batch succeeded: a mid-batch
  // error may have written a prefix, and rewriting a page is harmless while
  // losing a dirty bit is not.
  for (const FrameId f : wb_frames_) {
    frames_[f].dirty = false;
    ++stats_.writebacks;
  }
  return Status::OK();
}

Result<FrameId> BufferPool::PinPageNoRead(PageId id, bool* pending) {
  *pending = false;
  ++stats_.requests;
  const FrameId resident = page_table_.Find(id);
  if (resident != PageTable::kNoFrame) {
    ++stats_.hits;
    FrameId f = resident;
    FrameMeta& meta = frames_[f];
    const uint32_t prev = meta.pin_count++;
    if (IsSpare(f)) return f;
    policy_->RecordAccess(f);
    if (prev == 0 && !meta.permanent) {
      policy_->SetEvictable(f, false);
    }
    return f;
  }
  ++stats_.misses;
  RTB_ASSIGN_OR_RETURN(FrameId f, AcquireFrame());
  FrameMeta& meta = frames_[f];
  meta.page_id = id;
  meta.pin_count = 1;
  meta.permanent = false;
  meta.dirty = false;
  meta.in_use = true;
  page_table_.Insert(id, f);
  if (!IsSpare(f)) {
    policy_->RecordAccess(f);
    policy_->SetEvictable(f, false);
  }
  *pending = true;
  return f;
}

void BufferPool::UninstallPending(FrameId f) {
  FrameMeta& meta = frames_[f];
  page_table_.Erase(meta.page_id);
  meta.Reset();
  if (IsSpare(f)) {
    free_spares_.push_back(f);
    return;
  }
  policy_->Remove(f);
  free_frames_.push_back(f);
}

Result<FrameId> BufferPool::PinPage(PageId id) {
  bool pending = false;
  RTB_ASSIGN_OR_RETURN(FrameId f, PinPageNoRead(id, &pending));
  if (!pending) return f;
  Status read = store_->Read(id, FrameData(f));
  if (!read.ok()) {
    UninstallPending(f);
    return read;
  }
  return f;
}

Status BufferPool::ReadPendingFrames() {
  // Collect the pending subset sorted by page id: the batch executor's
  // elevator sweep presents descending ids every other batch, and the
  // store's run coalescing wants ascending consecutive ids. The store reads
  // straight into the frames.
  batch_pending_.clear();
  for (BatchEntry& e : batch_entries_) {
    if (e.pending) batch_pending_.push_back(&e);
  }
  if (batch_pending_.empty()) return Status::OK();
  std::sort(batch_pending_.begin(), batch_pending_.end(),
            [](const BatchEntry* a, const BatchEntry* b) {
              return a->id < b->id;
            });
  batch_ids_.resize(batch_pending_.size());
  batch_bufs_.resize(batch_pending_.size());
  for (size_t k = 0; k < batch_pending_.size(); ++k) {
    batch_ids_[k] = batch_pending_[k]->id;
    batch_bufs_[k] = FrameData(batch_pending_[k]->frame);
  }
  RTB_RETURN_IF_ERROR(store_->ReadBatch(batch_ids_.data(), batch_ids_.size(),
                                        batch_bufs_.data()));
  for (BatchEntry* e : batch_pending_) e->pending = false;
  return Status::OK();
}

void BufferPool::UnwindPins() {
  // Reverse order: a repeated id's extra pin on a pending frame drops
  // before the pending install itself is rolled back.
  for (size_t i = batch_entries_.size(); i > 0; --i) {
    const BatchEntry& e = batch_entries_[i - 1];
    if (e.pending) {
      UninstallPending(e.frame);
    } else {
      Unpin(Frame{e.id, FrameData(e.frame), e.frame}, /*dirty=*/false);
    }
  }
}

Status BufferPool::PinBatch(const PageId* ids, size_t count) {
  // Stage 1: pin every id in presentation order — hits and misses are
  // counted here, so BufferStats match the loop-Fetch path exactly — but
  // defer the miss reads. Stage 2 fills all misses with one store
  // ReadBatch. Until both succeed the pins are raw, which keeps the error
  // unwind free of guard-ordering hazards.
  batch_entries_.clear();
  batch_entries_.reserve(count);
  Status error = Status::OK();
  for (size_t i = 0; i < count && error.ok(); ++i) {
    bool pending = false;
    Result<FrameId> f = PinPageNoRead(ids[i], &pending);
    if (f.ok()) {
      batch_entries_.push_back(BatchEntry{ids[i], *f, pending});
    } else {
      error = f.status();
    }
  }
  if (error.ok()) error = ReadPendingFrames();
  if (!error.ok()) UnwindPins();
  return error;
}

Result<std::vector<PageGuard>> BufferPool::FetchBatch(const PageId* ids,
                                                      size_t count) {
  RTB_RETURN_IF_ERROR(PinBatch(ids, count));
  std::vector<PageGuard> guards;
  guards.reserve(count);
  for (const BatchEntry& e : batch_entries_) {
    guards.emplace_back(this, Frame{e.id, FrameData(e.frame), e.frame},
                        /*mark_dirty=*/false);
  }
  return guards;
}

Result<PageGuard> BufferPool::Fetch(PageId id) {
  RTB_ASSIGN_OR_RETURN(FrameId f, PinPage(id));
  return PageGuard(this, Frame{id, FrameData(f), f}, /*mark_dirty=*/false);
}

Result<PageGuard> BufferPool::FetchMutable(PageId id) {
  RTB_ASSIGN_OR_RETURN(FrameId f, PinPage(id));
  return PageGuard(this, Frame{id, FrameData(f), f}, /*mark_dirty=*/true);
}

Result<FrameId> BufferPool::InstallNewPage(PageId id) {
  // The new page is zero-filled in the store; fetching it would count one
  // read, which mirrors a real system formatting the page after allocation.
  // Avoid that read by installing the page directly.
  ++stats_.requests;
  ++stats_.misses;
  RTB_ASSIGN_OR_RETURN(FrameId f, AcquireFrame());
  FrameMeta& meta = frames_[f];
  meta.page_id = id;
  meta.pin_count = 1;
  meta.permanent = false;
  meta.dirty = true;
  meta.in_use = true;
  std::fill(FrameData(f), FrameData(f) + page_size(), uint8_t{0});
  page_table_.Insert(id, f);
  if (!IsSpare(f)) {
    policy_->RecordAccess(f);
    policy_->SetEvictable(f, false);
  }
  return f;
}

Result<PageGuard> BufferPool::NewPage() {
  RTB_ASSIGN_OR_RETURN(PageId id, store_->Allocate());
  RTB_ASSIGN_OR_RETURN(FrameId f, InstallNewPage(id));
  return PageGuard(this, Frame{id, FrameData(f), f}, /*mark_dirty=*/true);
}

void BufferPool::Unpin(const Frame& frame, bool dirty) {
  const FrameId f = frame.frame_id;
  RTB_DCHECK(f < frames_.size() && frames_[f].page_id == frame.page_id);
  FrameMeta& meta = frames_[f];
  const uint32_t prev = meta.pin_count--;
  RTB_CHECK(prev > 0);
  if (dirty) {
    meta.dirty = true;
    if (wal_ != nullptr && !meta.uncommitted) {
      // No-steal: the page stays resident until a commit logs it. An
      // uncommitted allocation needs nothing more: recovery truncates the
      // store to the committed page count.
      meta.uncommitted = true;
      uncommitted_.push_back(f);
    }
  }
  if (prev == 1 && !meta.permanent && !meta.uncommitted && !IsSpare(f)) {
    policy_->SetEvictable(f, true);
  }
}

Status BufferPool::PinPermanently(PageId id) {
  RTB_ASSIGN_OR_RETURN(FrameId f, PinPage(id));
  FrameMeta& meta = frames_[f];
  if (!meta.permanent) {
    meta.permanent = true;
    ++num_permanent_pins_;
  }
  // Drop the transient pin from PinPage; the permanent flag keeps the frame
  // unevictable.
  const uint32_t prev = meta.pin_count--;
  RTB_CHECK(prev > 0);
  return Status::OK();
}

Status BufferPool::UnpinPermanently(PageId id) {
  const FrameId f = page_table_.Find(id);
  if (f == PageTable::kNoFrame) {
    return Status::NotFound("page " + std::to_string(id) + " not in pool");
  }
  FrameMeta& meta = frames_[f];
  if (!meta.permanent) {
    return Status::FailedPrecondition("page " + std::to_string(id) +
                                      " is not permanently pinned");
  }
  meta.permanent = false;
  --num_permanent_pins_;
  if (meta.pin_count == 0 && !meta.uncommitted && !IsSpare(f)) {
    policy_->SetEvictable(f, true);
  }
  return Status::OK();
}

Status BufferPool::EvictAll() {
  RTB_RETURN_IF_ERROR(FlushAll());
  for (FrameId f = 0; f < frames_.size(); ++f) {
    FrameMeta& meta = frames_[f];
    if (!meta.in_use || meta.permanent) continue;
    if (meta.pin_count > 0 || meta.uncommitted) {
      return Status::FailedPrecondition(
          "cannot evict page " + std::to_string(meta.page_id) +
          (meta.pin_count > 0 ? ": still pinned" : ": not committed"));
    }
    page_table_.Erase(meta.page_id);
    meta.Reset();
    if (IsSpare(f)) {
      free_spares_.push_back(f);
      continue;
    }
    policy_->Remove(f);
    free_frames_.push_back(f);
  }
  return Status::OK();
}

Status BufferPool::FlushAll() {
  // No-steal: an uncommitted page waits for its commit. Page-id order (in
  // WriteBackFrames) turns the flush into the longest possible consecutive
  // runs for WriteBatch.
  wb_frames_.clear();
  for (FrameId f = 0; f < frames_.size(); ++f) {
    const FrameMeta& meta = frames_[f];
    if (meta.in_use && meta.dirty && !meta.uncommitted) wb_frames_.push_back(f);
  }
  if (wb_frames_.empty()) return Status::OK();
  return WriteBackFrames();
}

}  // namespace rtb::storage
