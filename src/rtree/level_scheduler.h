// LevelScheduler: runs one tree level's page runs over worker threads, split
// by buffer shard. The batched search (batch.h) and the batched update
// (update_batch.h) executors hand it their level passes; a server owns one
// scheduler and shares it between its two executors.
//
// A level arrives as its distinct-page runs in sweep order. A level of fewer
// than kMinParallelRuns runs (the root levels, a batch of a few queries) is
// walked inline on the calling thread in sweep order, its fetch windows
// spanning shards exactly as on a serial pool. A larger level is bucketed by
// PageCache::ShardOf, keeping the sweep order within each shard, and the
// workers — the calling thread (worker 0) and W - 1 helper threads started
// once and parked between levels — claim the non-empty shards largest first,
// each claim one compare-exchange on a shared cursor. The claimer walks the
// whole shard, so every shard is walked by exactly one worker in sweep order:
// shards share no frames, policy or counters, so each sees the same pins,
// reads and releases whatever W is and whichever worker claims it, and every
// BufferStats counter is independent of the worker count and the claim
// order. Which path a level takes depends on its run count alone.
//
// Claiming replaces a fixed shard-to-worker map (worker w walked shards
// w, w + W, ...), under which a helper that started late held back its whole
// share of the level. With claims the workers that start first take the late
// one's shards, and largest-first leaves the small shards for last, so the
// workers finish close together. The level ends when its last claim is
// walked, not when every helper has checked in: the cursor carries the
// level's generation, so a helper that wakes after its level ended claims
// nothing of the next one. It pays once the pool has more shards than workers
// (ServingStack: 8 shards for 4 workers).
//
// After each level the calling thread calls Merge for every worker, in
// worker order, to fold the workers' buffered output into the level's result.

#ifndef RTB_RTREE_LEVEL_SCHEDULER_H_
#define RTB_RTREE_LEVEL_SCHEDULER_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"
#include "util/macros.h"
#include "util/result.h"

namespace rtb::rtree {

/// A run of a level's frontier items that share a page: items [begin, end)
/// of the caller's frontier all reference `page`.
struct PageRun {
  storage::PageId page = storage::kInvalidPageId;
  uint32_t begin = 0;
  uint32_t end = 0;
};

/// What a scheduler did over its lifetime.
struct SchedulerStats {
  /// Levels split by shard over the workers (the rest ran inline).
  uint64_t parallel_levels = 0;
  /// Per worker (worker 0 is the calling thread): shards it claimed.
  std::vector<uint64_t> shard_claims;
  /// Time the calling thread waited at split levels' barriers for helpers
  /// still walking their claims.
  uint64_t barrier_wait_us = 0;
};

/// Pages per fetch window on `pool`: min(8, frames per shard / 4), at
/// least 1. Small on purpose: a wide window on a small pool would pin frames
/// the walk itself still needs.
size_t FetchWindow(const storage::PageCache& pool);

/// Fetches the pages of `runs` in order, `window` at a time: one FetchBatch
/// per window (the pool reads a window's misses as one vectored batch and
/// takes one shard lock per same-shard stretch), or one Fetch per page when
/// the multi-get fails (a pool too small for the window) or window is 1.
/// Calls visit(guard, run) -> Status for each page; visit may move the guard
/// out to keep the pin, otherwise the pin is released after the call.
/// `ids` is scratch.
template <typename Visit>
Status FetchRuns(storage::PageCache* pool, std::span<const PageRun> runs,
                 size_t window, std::vector<storage::PageId>* ids,
                 Visit&& visit) {
  for (size_t p = 0; p < runs.size(); p += window) {
    const size_t w = std::min(window, runs.size() - p);
    if (w > 1) {
      ids->clear();
      for (size_t j = 0; j < w; ++j) ids->push_back(runs[p + j].page);
      Result<std::vector<storage::PageGuard>> guards =
          pool->FetchBatch(ids->data(), w);
      if (guards.ok()) {
        for (size_t j = 0; j < w; ++j) {
          RTB_RETURN_IF_ERROR(visit((*guards)[j], runs[p + j]));
          (*guards)[j].Release();
        }
        continue;
      }
    }
    for (size_t j = 0; j < w; ++j) {
      RTB_ASSIGN_OR_RETURN(storage::PageGuard guard,
                           pool->Fetch(runs[p + j].page));
      RTB_RETURN_IF_ERROR(visit(guard, runs[p + j]));
    }
  }
  return Status::OK();
}

/// Runs level passes over a pool's shards on a fixed set of workers. One
/// Run at a time; the walk and merge functions of a Run must not call Run.
class LevelScheduler {
 public:
  /// Fewest runs in a level that is split by shard over the workers.
  static constexpr size_t kMinParallelRuns = 32;

  /// Walks `runs` on worker `worker`: one claimed shard's runs, or all of an
  /// inline level's runs on worker 0. Called from the worker's own thread,
  /// any number of times per level.
  using WalkFn =
      std::function<Status(size_t worker, std::span<const PageRun> runs)>;
  /// Folds worker `worker`'s buffered output into the level's result.
  using MergeFn = std::function<void(size_t worker)>;

  /// The scheduler does not own `pool`. `workers` is clamped to
  /// [1, pool shards]: the calling thread plus `workers - 1` helpers started
  /// here. workers > 1 needs an internally synchronized pool.
  LevelScheduler(storage::PageCache* pool, size_t workers);
  ~LevelScheduler();

  LevelScheduler(const LevelScheduler&) = delete;
  LevelScheduler& operator=(const LevelScheduler&) = delete;

  storage::PageCache* pool() const { return pool_; }
  size_t workers() const { return slots_.size(); }

  /// Walks one level (see the file comment), then calls merge(w) for every
  /// worker w in order on the calling thread. Returns the first worker's
  /// error, in worker order; the merges run either way.
  Status Run(std::span<const PageRun> runs, const WalkFn& walk,
             const MergeFn& merge);

  /// Counters since construction. Call between Runs.
  SchedulerStats stats() const;

 private:
  struct Slot {
    Status status;
    uint64_t claims = 0;
  };

  // The claim cursor packs the split level's generation (high 32 bits), its
  // claim count (16 bits) and the next claim index (low 16 bits), so a
  // helper that wakes after its level ended fails the compare-exchange and
  // touches nothing of the next one.
  static constexpr uint64_t Cursor(uint32_t generation, size_t count) {
    return (static_cast<uint64_t>(generation) << 32) | (count << 16);
  }

  // Claims shards of split level `generation` until none are left, walking
  // each; counts every claim it took in finished_.
  void Claim(size_t worker, uint32_t generation);

  // Body of helper thread `worker`: parks until the next split level (or
  // shutdown) and claims shards of it.
  void HelperLoop(size_t worker);

  // Wakes every helper to exit and joins it.
  void StopHelpers();

  storage::PageCache* pool_;
  std::vector<Slot> slots_;
  // The split level being run: its runs regrouped by shard (shard s owns
  // by_shard_[shard_begin_[s], shard_begin_[s + 1])) and the non-empty
  // shards in claim order, largest first. Stable while any claim of the
  // level is being walked: the caller waits for all of them.
  const WalkFn* walk_ = nullptr;
  std::vector<PageRun> by_shard_;
  std::vector<uint32_t> shard_of_;
  std::vector<uint32_t> shard_begin_;
  std::vector<uint32_t> shard_fill_;
  std::vector<uint32_t> claim_order_;
  // Level hand-off: the caller publishes the level and its cursor, then
  // bumps generation_ to wake the helpers. The level ends when finished_
  // reaches its claim count, whether or not every helper woke for it.
  std::atomic<uint64_t> cursor_{0};
  std::atomic<uint32_t> finished_{0};
  std::atomic<uint32_t> generation_{0};
  std::atomic<bool> stop_{false};
  uint64_t parallel_levels_ = 0;
  uint64_t barrier_wait_ns_ = 0;
  // Last: the helpers use every member above.
  std::vector<std::thread> helpers_;
};

}  // namespace rtb::rtree

#endif  // RTB_RTREE_LEVEL_SCHEDULER_H_
