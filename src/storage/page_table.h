// PageTable: the buffer pool's page-id -> frame-id index, as a fixed-size
// open-addressing hash table.
//
// The page table sits on the hot path of every Fetch: a buffer hit is one
// probe here plus a pin, so the structure is built for that case. Compared
// with the std::unordered_map it replaces:
//
//   * all storage is one flat array allocated at pool construction — a
//     steady-state fetch performs zero heap allocations;
//   * linear probing over a power-of-two slot array keeps a hit's probe
//     sequence in one or two cache lines instead of chasing bucket nodes;
//   * keys are scrambled with the SplitMix64 finalizer (the same mix
//     ShardedBufferPool uses to stripe pages), so the contiguous page ids a
//     bulk-loaded R-tree level produces do not cluster into long runs.
//
// The pool inserts at most one entry per frame and the constructor sizes the
// array to keep the load factor at or below 1/2; the table grows (Reserve)
// only when a WAL-attached pool takes spare frames beyond its capacity.
// Deletion uses backward-shift compaction, so no tombstones accumulate and
// lookups stay O(probe run) forever. Not thread-safe; the owning BufferPool
// serializes access (directly or behind its shard lock).

#ifndef RTB_STORAGE_PAGE_TABLE_H_
#define RTB_STORAGE_PAGE_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "storage/page.h"
#include "storage/replacement.h"
#include "util/macros.h"

namespace rtb::storage {

/// Fixed-capacity open-addressing map from PageId to FrameId.
class PageTable {
 public:
  /// Returned by Find when the page is not resident.
  static constexpr FrameId kNoFrame = static_cast<FrameId>(-1);

  /// A table that will hold at most `max_entries` concurrent mappings (one
  /// per pool frame). Allocates all storage up front.
  explicit PageTable(size_t max_entries) {
    size_t slots = 8;
    while (slots < 2 * max_entries) slots *= 2;
    slots_.resize(slots);
    mask_ = slots - 1;
  }

  /// Frame holding `id`, or kNoFrame.
  FrameId Find(PageId id) const {
    for (size_t i = Home(id);; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.key == id) return slot.frame;
      if (slot.key == kInvalidPageId) return kNoFrame;
    }
  }

  bool Contains(PageId id) const { return Find(id) != kNoFrame; }

  /// Maps `id` to `frame`. `id` must not already be present (the pool never
  /// double-installs a page) and the table is sized so a free slot always
  /// exists within one wrap.
  void Insert(PageId id, FrameId frame) {
    RTB_DCHECK(id != kInvalidPageId);
    RTB_DCHECK(size_ < slots_.size());
    for (size_t i = Home(id);; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      RTB_DCHECK(slot.key != id);
      if (slot.key == kInvalidPageId) {
        slot.key = id;
        slot.frame = frame;
        ++size_;
        return;
      }
    }
  }

  /// Removes `id`; returns false when absent. Backward-shift compaction:
  /// every displaced successor in the probe run moves up, so the run stays
  /// dense and no tombstone is left behind.
  bool Erase(PageId id) {
    size_t hole;
    for (size_t i = Home(id);; i = (i + 1) & mask_) {
      if (slots_[i].key == id) {
        hole = i;
        break;
      }
      if (slots_[i].key == kInvalidPageId) return false;
    }
    for (size_t j = (hole + 1) & mask_; slots_[j].key != kInvalidPageId;
         j = (j + 1) & mask_) {
      // slots_[j] may move into the hole iff its home position precedes the
      // hole along the probe order (cyclically): probing from home would
      // then reach `hole` before `j`.
      const size_t home = Home(slots_[j].key);
      if (((hole - home) & mask_) < ((j - home) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].key = kInvalidPageId;
    --size_;
    return true;
  }

  /// Grows the table, if needed, to hold `max_entries` mappings at a load
  /// factor of at most 1/2, rehashing every entry. Never shrinks.
  void Reserve(size_t max_entries) {
    if (2 * max_entries <= slots_.size()) return;
    std::vector<Slot> old = std::move(slots_);
    size_t slots = old.size();
    while (slots < 2 * max_entries) slots *= 2;
    slots_.assign(slots, Slot{});
    mask_ = slots - 1;
    size_ = 0;
    for (const Slot& slot : old) {
      if (slot.key != kInvalidPageId) Insert(slot.key, slot.frame);
    }
  }

  size_t size() const { return size_; }
  size_t num_slots() const { return slots_.size(); }

 private:
  struct Slot {
    PageId key = kInvalidPageId;
    FrameId frame = 0;
  };

  size_t Home(PageId id) const {
    // SplitMix64 finalizer, as in ShardedBufferPool::ShardOf.
    uint64_t z = static_cast<uint64_t>(id) + 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return static_cast<size_t>((z ^ (z >> 31)) & mask_);
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace rtb::storage

#endif  // RTB_STORAGE_PAGE_TABLE_H_
