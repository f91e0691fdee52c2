// BatchExecutor: level-synchronous execution of a batch of region queries
// with a page-ordered frontier.
//
// The serial path (RTree::Search) runs one query root-to-leaf at a time, so
// a page shared by many queries is re-requested once per query and its
// residency is at the mercy of the interleaving — the paper's point that
// *access order*, not visit count, drives buffer performance. The batch
// executor inverts the loops: all queries descend together, one level per
// round. Each round collects (page, query) pairs, sorts them by page id,
// and walks the runs of equal pages — each distinct page is pinned exactly
// once per batch, its entries are gathered once into a
// structure-of-arrays scratch (scan_kernel.h), and every interested query
// is answered from that gather with the SIMD sweep. The effect on the
// buffer is that of a much larger pool: within a batch no page can be
// evicted between two queries that both need it, because the second use
// happens during the single pin.
//
// Equivalences with the serial path (asserted in batch_query_test):
//   * per-query result sets are identical (order within a query may differ;
//     both sides are set-equal),
//   * summed logical node accesses are identical — query q visits node n in
//     either mode iff q intersects the parent entry of n,
//   * page *requests* per batch are <= the serial count: each distinct
//     frontier page is requested once, never once per query. Disk *reads*
//     are not point-wise comparable on a constrained pool — reordering the
//     accesses changes LRU's eviction decisions — but the requests saved
//     are hits by construction, which is what the effective hit rate in
//     bench/micro_batch_query measures.
//
// The executor issues its pins through PageCache::FetchBatch in a small
// window (a few pages at a time, bounded by a fraction of one shard's
// frames), which lets ShardedBufferPool take one shard lock per run of
// same-shard pages in the window. On a pool too small to hold a window
// (including the 1-frame pool) it degrades to fetch-scan-release per page,
// so any pool capacity >= 1 works, exactly like the serial search.
//
// Workers. Each level's runs are bucketed by buffer shard
// (PageCache::ShardOf), keeping the elevator order within a shard, and every
// window is drawn from one shard. With W workers, worker w walks the runs of
// shards s = w, w + W, w + 2W, ...; the calling thread is worker 0 and the
// W - 1 helper threads, started once per executor, park between levels.
// Each worker scans into its own scratch and buffers its next-level items
// and leaf hits, which worker 0 merges at the level barrier. Shards share
// no frames, policy or counters, and every shard is walked by one worker
// in the same order whatever W is, so each shard sees the same sequence of
// pins, reads and releases: results, node accesses, page visits and every
// BufferStats counter are identical for any worker count. A level with
// too few runs to pay for waking the helpers (every level of a one-query
// batch) runs inline on the caller in sweep order, its windows spanning
// shards as on a serial pool; that choice depends on the run count alone,
// so it too is the same for any worker count.

#ifndef RTB_RTREE_BATCH_H_
#define RTB_RTREE_BATCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "rtree/node.h"
#include "rtree/rtree.h"
#include "rtree/scan_kernel.h"
#include "storage/buffer_pool.h"
#include "util/result.h"

namespace rtb::rtree {

/// Counters for one Run() call (accumulated across calls until reset).
struct BatchStats {
  /// Logical (node, query) visits — comparable to the sum of per-query
  /// QueryStats::nodes_accessed in the serial path.
  uint64_t node_accesses = 0;
  /// Distinct pages pinned; within one batch each frontier page counts
  /// once no matter how many queries share it.
  uint64_t page_visits = 0;
};

/// The worker count the server and the experiment engine hand to a
/// BatchExecutor: min(4, hardware threads), at least 1. The executor then
/// clamps it to the pool's shard count.
size_t DefaultSearchWorkers();

/// Executes batches of region queries against one tree. Holds reusable
/// frontier and gather scratch and its own helper threads; the executor
/// itself is not thread-safe (one Run at a time). The underlying pool must
/// be thread-safe if executors run concurrently, or if `workers` > 1.
class BatchExecutor {
 public:
  /// The executor does not own `tree`; it must outlive the executor.
  /// `workers` is clamped to [1, pool shards]: a level's shards are split
  /// over that many threads (the caller plus `workers - 1` helpers started
  /// here). workers > 1 needs an internally synchronized pool.
  explicit BatchExecutor(const RTree* tree, size_t workers = 1);
  ~BatchExecutor();

  BatchExecutor(const BatchExecutor&) = delete;
  BatchExecutor& operator=(const BatchExecutor&) = delete;

  /// Threads a level runs on (after clamping).
  size_t workers() const { return workers_.size(); }

  /// Runs every query in `queries` and fills `results` (resized to
  /// queries.size(); results->at(i) holds the ids matching queries[i], in
  /// unspecified order). Empty queries match nothing and touch no pages.
  /// `stats`, when non-null, is accumulated into.
  Status Run(std::span<const geom::Rect> queries,
             std::vector<std::vector<ObjectId>>* results,
             BatchStats* stats = nullptr);

 private:
  // A frontier item is (page, query) packed as page << 32 | query, so the
  // per-level sort by (page, query) is a branchless sort of plain uint64_t.
  static constexpr uint64_t PackItem(storage::PageId page, uint32_t query) {
    return (static_cast<uint64_t>(page) << 32) | query;
  }
  static constexpr storage::PageId ItemPage(uint64_t item) {
    return static_cast<storage::PageId>(item >> 32);
  }
  static constexpr uint32_t ItemQuery(uint64_t item) {
    return static_cast<uint32_t>(item);
  }

  // One coalesced run of frontier items sharing a page: frontier_[begin,
  // end) all reference `page`.
  struct PageRun {
    storage::PageId page = storage::kInvalidPageId;
    uint32_t begin = 0;
    uint32_t end = 0;
    uint32_t shard = 0;  // pool_->ShardOf(page), set when regrouping.
  };

  // One worker's private scratch. Worker 0 (the caller) appends leaf hits
  // straight to the results and next-level items to next_; helpers buffer
  // theirs here until the level barrier.
  struct Worker {
    ScanScratch scratch;
    std::vector<uint32_t> match_idx;
    std::vector<storage::PageId> window_ids;
    std::vector<uint64_t> next;
    std::vector<std::pair<uint32_t, ObjectId>> hits;
    Status status;
  };

  // Scans the already-pinned page for the frontier run [begin, end) (all
  // items share the page). Leaf matches go to `results` (worker 0) or
  // wk->hits; internal matches to `next`.
  Status VisitPage(Worker* wk, const storage::PageGuard& guard,
                   const PageRun& run, std::vector<uint64_t>* next,
                   std::vector<std::vector<ObjectId>>* results);

  // Fetches and scans the runs [runs, runs + w): a windowed FetchBatch
  // when w > 1, degrading to fetch-scan-release per page when the
  // multi-get fails (pool too small) or w == 1.
  Status ScanWindow(Worker* wk, const PageRun* runs, size_t w,
                    std::vector<uint64_t>* next,
                    std::vector<std::vector<ObjectId>>* results);

  // Walks the runs [runs, runs + n) in window-sized steps.
  Status WalkRuns(Worker* wk, const PageRun* runs, size_t n,
                  std::vector<uint64_t>* next,
                  std::vector<std::vector<ObjectId>>* results);

  // Walks the runs of shards first, first + stride, ... of by_shard_.
  // Worker 0 passes next_ and the results; helpers their buffers.
  Status WalkShards(Worker* wk, size_t first, size_t stride,
                    std::vector<uint64_t>* next,
                    std::vector<std::vector<ObjectId>>* results);

  // Body of helper thread `w`: parks until the next level (or shutdown),
  // walks its shards, reports completion.
  void HelperLoop(size_t w);

  // Wakes every helper to exit and joins it.
  void StopHelpers();

  const RTree* tree_;
  storage::PageCache* pool_;
  size_t page_size_;
  size_t num_shards_;
  // Pages per fetch window: min(8, shard frames / 4), at least 1.
  size_t window_;
  std::vector<std::unique_ptr<Worker>> workers_;
  // Level hand-off: the caller publishes the level (queries_, by_shard_,
  // shard_begin_), sets pending_ to the helper count and bumps generation_;
  // each helper walks its shards and decrements pending_.
  std::atomic<uint32_t> generation_{0};
  std::atomic<uint32_t> pending_{0};
  std::atomic<bool> stop_{false};
  // The batch being run; read only during Run().
  std::span<const geom::Rect> queries_;

  std::vector<uint64_t> frontier_;
  std::vector<uint64_t> next_;
  std::vector<PageRun> runs_;
  // runs_ regrouped by shard (stable, so each shard keeps the sweep
  // order): shard s owns by_shard_[shard_begin_[s], shard_begin_[s + 1]).
  std::vector<PageRun> by_shard_;
  std::vector<uint32_t> shard_begin_;
  std::vector<uint32_t> shard_fill_;
  // Elevator sweep: consecutive batches walk the sorted frontier in
  // alternating directions, so a sweep starts with the pages the previous
  // one finished on — the part of the working set an LRU pool still holds.
  // A fixed ascending sweep would instead evict its own tail every batch
  // (sequential flooding) and turn repeat visits across batches into
  // misses; see DESIGN.md §10.
  bool reverse_sweep_ = false;
  // Last: the helpers use every member above.
  std::vector<std::thread> helpers_;
};

}  // namespace rtb::rtree

#endif  // RTB_RTREE_BATCH_H_
