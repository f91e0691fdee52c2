// Fault-injecting PageStore wrapper for failure testing.
//
// Wraps any PageStore and fails selected operations with an injected
// status. Used by the test suite to verify that I/O errors propagate
// cleanly through the buffer pool and the R-tree (no crashes, no state
// corruption, no silent data loss) — and available to downstream users for
// the same purpose.

#ifndef RTB_STORAGE_FAULT_INJECTION_H_
#define RTB_STORAGE_FAULT_INJECTION_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "storage/page_store.h"
#include "storage/wal.h"

namespace rtb::storage {

/// A syscall budget shared by everything a simulated process touches (its
/// page store via ArmCrash, its WAL via CrashWalHook): each store
/// read/write/allocation/sync and each WAL write/sync sync-point consumes
/// one tick, and the first operation past the budget "crashes" — it fails,
/// and every operation after it fails too (`dead`). Sweeping `budget` over
/// [0, N] in a test crashes the same deterministic workload at every
/// possible I/O point.
struct CrashClock {
  uint64_t budget = UINT64_MAX;  // Operations allowed before the crash.
  bool torn = false;             // The dying write persists a prefix.
  uint64_t torn_bytes = 0;       // How much of the dying write survives.
  bool dead = false;

  /// Consumes one tick. Returns true while the process lives; `*dying` is
  /// set (once) on the exact operation that crosses the budget, which is
  /// the only one eligible for a torn prefix.
  bool Tick(bool* dying = nullptr) {
    if (dead) return false;
    if (budget == 0) {
      dead = true;
      if (dying != nullptr) *dying = true;
      return false;
    }
    --budget;
    return true;
  }
};

/// WalFaultHook driving WalWriter from a CrashClock, so the log and the
/// store die at the same moment of the same simulated process.
class CrashWalHook final : public WalFaultHook {
 public:
  explicit CrashWalHook(CrashClock* clock) : clock_(clock) {
    RTB_CHECK(clock_ != nullptr);
  }

  size_t BeforeWrite(size_t len) override {
    bool dying = false;
    if (clock_->Tick(&dying)) return len;
    if (dying && clock_->torn) {
      return std::min<size_t>(clock_->torn_bytes, len);
    }
    return 0;
  }

  bool FailSync() override { return !clock_->Tick(); }

 private:
  CrashClock* clock_;
};

/// Pass-through PageStore that can fail reads/writes/allocations on
/// demand. Not thread-safe: the fault counters are plain fields.
class FaultInjectingPageStore final : public PageStore {
 public:
  /// Wraps `base` (not owned; must outlive this object).
  explicit FaultInjectingPageStore(PageStore* base) : base_(base) {
    RTB_CHECK(base_ != nullptr);
  }

  /// Fails the next `count` reads with `status`, then recovers.
  void FailNextReads(int count, Status status) {
    failing_reads_ = count;
    read_status_ = std::move(status);
  }

  /// Fails the next `count` writes.
  void FailNextWrites(int count, Status status) {
    failing_writes_ = count;
    write_status_ = std::move(status);
  }

  /// Fails the next `count` allocations (before the base store sees them).
  void FailNextAllocations(int count, Status status) {
    failing_allocations_ = count;
    alloc_status_ = std::move(status);
  }

  /// Fails every read of page `id` until cleared with kInvalidPageId.
  void FailPage(PageId id, Status status) {
    poisoned_page_ = id;
    poisoned_status_ = std::move(status);
  }

  /// Fails every write of page `id` (scalar or inside a batch) until
  /// cleared with kInvalidPageId. The write-side twin of FailPage: lets a
  /// test target one dirty page's writeback while the rest of a flush
  /// succeeds.
  void FailPageWrites(PageId id, Status status) {
    write_poisoned_page_ = id;
    write_poisoned_status_ = std::move(status);
  }

  /// Arms crash simulation: every read/write/allocation/sync ticks
  /// `clock`, and the operation that exhausts its budget fails — tearing a
  /// prefix of the dying page write into the base store when `clock->torn`
  /// is set — after which every operation fails. Batches degrade to
  /// page-at-a-time while armed, so the budget counts (and the crash can
  /// land between) individual pages. Pass nullptr to disarm. `clock` is
  /// not owned and is shared with the CrashWalHook of the same simulated
  /// process.
  void ArmCrash(CrashClock* clock) { crash_ = clock; }

  size_t page_size() const override { return base_->page_size(); }
  PageId num_pages() const override { return base_->num_pages(); }

  Result<PageId> Allocate() override {
    if (crash_ != nullptr && !crash_->Tick()) {
      return Status::IoError("simulated crash at allocation");
    }
    if (failing_allocations_ > 0) {
      --failing_allocations_;
      return alloc_status_;
    }
    return base_->Allocate();
  }

  Status ReadBatch(const PageId* ids, size_t n,
                   uint8_t* const* out) override {
    // Only a batch that would actually fault degrades to page-at-a-time: a
    // read countdown hits whatever comes next, but a poisoned page only
    // matters if this batch contains it. Healthy batches keep the base
    // store's vectored behavior (and its read_batches accounting), so fault
    // tests measure the same batch I/O production takes.
    if (failing_reads_ <= 0 && crash_ == nullptr &&
        !Contains(ids, n, poisoned_page_)) {
      return base_->ReadBatch(ids, n, out);
    }
    // Page at a time, so an injected failure lands mid-batch at exactly the
    // page it would hit on the serial path (a countdown of k fails the
    // batch's page k).
    for (size_t i = 0; i < n; ++i) {
      RTB_RETURN_IF_ERROR(ReadPage(ids[i], out[i]));
    }
    return Status::OK();
  }

  Status WriteBatch(const PageId* ids, size_t n,
                    const uint8_t* const* data) override {
    // Same degradation rule as ReadBatch: only a batch that would actually
    // fault falls back to page-at-a-time, so healthy batches keep the base
    // store's pwritev coalescing (and its write_batches accounting), and an
    // armed countdown lands at exactly the page it would hit serially.
    if (failing_writes_ <= 0 && crash_ == nullptr &&
        !Contains(ids, n, write_poisoned_page_)) {
      return base_->WriteBatch(ids, n, data);
    }
    for (size_t i = 0; i < n; ++i) {
      RTB_RETURN_IF_ERROR(WritePage(ids[i], data[i]));
    }
    return Status::OK();
  }

  Status Sync() override {
    if (crash_ != nullptr && !crash_->Tick()) {
      return Status::IoError("simulated crash at store sync");
    }
    return base_->Sync();
  }

  Status Close() override { return base_->Close(); }

  IoStats stats() const override { return base_->stats(); }
  void ResetStats() override { base_->ResetStats(); }

 private:
  static bool Contains(const PageId* ids, size_t n, PageId id) {
    return id != kInvalidPageId && std::find(ids, ids + n, id) != ids + n;
  }

  // One page of a degraded batch: ticks the crash clock and applies the
  // armed faults before reaching the base store.
  Status ReadPage(PageId id, uint8_t* out) {
    if (crash_ != nullptr && !crash_->Tick()) {
      return Status::IoError("simulated crash at page read");
    }
    if (poisoned_page_ == id) return poisoned_status_;
    if (failing_reads_ > 0) {
      --failing_reads_;
      return read_status_;
    }
    return base_->Read(id, out);
  }

  Status WritePage(PageId id, const uint8_t* data) {
    if (crash_ != nullptr) {
      bool dying = false;
      if (!crash_->Tick(&dying)) {
        if (dying && crash_->torn && crash_->torn_bytes > 0) {
          // Torn page write: a prefix of the new bytes lands over the old
          // content — exactly what a power cut mid-write leaves behind.
          const size_t prefix =
              std::min<size_t>(crash_->torn_bytes, page_size());
          torn_scratch_.resize(page_size());
          if (base_->Read(id, torn_scratch_.data()).ok()) {
            std::memcpy(torn_scratch_.data(), data, prefix);
            (void)base_->Write(id, torn_scratch_.data());
          }
        }
        return Status::IoError("simulated crash at page write");
      }
    }
    if (write_poisoned_page_ == id) return write_poisoned_status_;
    if (failing_writes_ > 0) {
      --failing_writes_;
      return write_status_;
    }
    return base_->Write(id, data);
  }

  PageStore* base_;
  int failing_reads_ = 0;
  int failing_writes_ = 0;
  int failing_allocations_ = 0;
  Status read_status_ = Status::IoError("injected read fault");
  Status write_status_ = Status::IoError("injected write fault");
  Status alloc_status_ = Status::IoError("injected allocation fault");
  PageId poisoned_page_ = kInvalidPageId;
  Status poisoned_status_ = Status::IoError("poisoned page");
  PageId write_poisoned_page_ = kInvalidPageId;
  Status write_poisoned_status_ = Status::IoError("poisoned page write");
  CrashClock* crash_ = nullptr;  // Not owned; null = crash sim disarmed.
  std::vector<uint8_t> torn_scratch_;
};

}  // namespace rtb::storage

#endif  // RTB_STORAGE_FAULT_INJECTION_H_
