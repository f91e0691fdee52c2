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
// window (a few pages at a time, bounded by a fraction of the pool
// capacity), which lets ShardedBufferPool take one shard lock per coalesced
// run. On a pool too small to hold a window (including the 1-frame pool)
// it degrades to fetch-scan-release per page, so any pool capacity >= 1
// works, exactly like the serial search.

#ifndef RTB_RTREE_BATCH_H_
#define RTB_RTREE_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <span>
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

/// Executes batches of region queries against one tree. Holds reusable
/// frontier and gather scratch, so one executor per worker thread; the
/// underlying pool must be thread-safe if executors run concurrently.
class BatchExecutor {
 public:
  /// The executor does not own `tree`; it must outlive the executor.
  explicit BatchExecutor(const RTree* tree);

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
  };

  // Scans the already-pinned page for the frontier run [begin, end) (all
  // items share the page). Leaf matches append to (*results)[q]; internal
  // matches push the child on next_.
  Status VisitPage(const storage::PageGuard& guard, size_t begin, size_t end,
                   std::span<const geom::Rect> queries,
                   std::vector<std::vector<ObjectId>>* results);

  // Fetches and scans the window of runs_[p, p+w): a windowed FetchBatch
  // when w > 1, degrading to fetch-scan-release per page when the multi-get
  // fails (pool too small) or w == 1. The inner loop of Run.
  Status ScanWindow(storage::PageCache* pool, size_t p, size_t w,
                    std::span<const geom::Rect> queries,
                    std::vector<std::vector<ObjectId>>* results);

  const RTree* tree_;
  ScanScratch scratch_;
  std::vector<uint64_t> frontier_;
  std::vector<uint64_t> next_;
  std::vector<uint32_t> match_idx_;
  std::vector<PageRun> runs_;
  std::vector<storage::PageId> window_ids_;
  // Elevator sweep: consecutive batches walk the sorted frontier in
  // alternating directions, so a sweep starts with the pages the previous
  // one finished on — the part of the working set an LRU pool still holds.
  // A fixed ascending sweep would instead evict its own tail every batch
  // (sequential flooding) and turn repeat visits across batches into
  // misses; see DESIGN.md §10.
  bool reverse_sweep_ = false;
};

}  // namespace rtb::rtree

#endif  // RTB_RTREE_BATCH_H_
