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
// Workers. Each level's runs go to a LevelScheduler (level_scheduler.h),
// the executor's own or one shared with an UpdateBatchExecutor. A level of
// at least LevelScheduler::kMinParallelRuns runs is bucketed by buffer shard
// (PageCache::ShardOf), keeping the elevator order within a shard, and the
// scheduler's workers claim whole shards, largest first; every window is
// drawn from one shard. Each worker scans into its own scratch and buffers
// its next-level items and leaf hits, which the calling thread merges after
// the level. Shards share no frames, policy or counters, and every shard is
// walked by one worker in the same order whatever the worker count and
// whichever worker claims it, so each shard sees the same sequence of pins,
// reads and releases: results, node accesses, page visits and every
// BufferStats counter are identical for any worker count. A level with too
// few runs to pay for waking the helpers (every level of a one-query batch)
// runs inline on the caller in sweep order, its windows spanning shards as on
// a serial pool; that choice depends on the run count alone, so it too is the
// same for any worker count.
//
// kNN. A Run can carry kNN queries beside its rectangles; each becomes a
// region query, the square of half-side r around its point (r from the
// caller, typically KnnRadius in knn.h), and rides the same level pass:
// its pages join the dedup, the shards and the workers. Leaf visits emit
// (distance, id) candidates. After the pass a kNN whose k-th candidate
// distance is <= r is exact — every object within r meets the square —
// and the rest go into another pass with r set to the k-th distance (exact
// then) or, with fewer than k candidates, doubled; a square that covers
// the root MBR ends the search whatever it found (k > n, the empty tree).
// Candidates are ranked by (distance, id), so neither the merge order nor
// the worker count changes an answer, and since the extra passes depend
// only on the queries, the BufferStats contract above holds for them too.

#ifndef RTB_RTREE_BATCH_H_
#define RTB_RTREE_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "geom/point.h"
#include "rtree/knn.h"
#include "rtree/level_scheduler.h"
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
  /// (kNN, pass) pairs: rounds per kNN is knn_rounds / kNNs run.
  uint64_t knn_rounds = 0;
  /// Leaf entries the kNN squares met, summed over their rounds.
  uint64_t knn_candidates = 0;
};

/// One kNN for BatchExecutor::Run: the `k` objects nearest `point`,
/// searched first within the square of half-side `radius`.
struct KnnQuery {
  geom::Point point;
  size_t k = 0;
  double radius = 0.0;
};

/// The worker count the server hands its LevelScheduler and the experiment
/// engine hands a BatchExecutor: min(4, hardware threads), at least 1. The
/// scheduler then clamps it to the pool's shard count.
size_t DefaultSearchWorkers();

/// Executes batches of region queries against one tree. Holds reusable
/// frontier and gather scratch; the executor itself is not thread-safe (one
/// Run at a time). The underlying pool must be thread-safe if executors run
/// concurrently, or if the scheduler has more than one worker.
class BatchExecutor {
 public:
  /// The executor does not own `tree`; it must outlive the executor. The
  /// executor runs its levels on a scheduler of its own with `workers`
  /// workers, clamped to [1, pool shards] (the caller plus `workers - 1`
  /// helpers started here). workers > 1 needs an internally synchronized
  /// pool.
  explicit BatchExecutor(const RTree* tree, size_t workers = 1);
  /// Runs the levels on `scheduler`, which must serve the tree's pool and
  /// outlive the executor, and may be shared with other executors that do
  /// not run at the same time.
  BatchExecutor(const RTree* tree, LevelScheduler* scheduler);

  BatchExecutor(const BatchExecutor&) = delete;
  BatchExecutor& operator=(const BatchExecutor&) = delete;

  /// Threads a level runs on.
  size_t workers() const { return scheduler_->workers(); }

  /// Runs every query in `queries` and fills `results` (resized to
  /// queries.size(); results->at(i) holds the ids matching queries[i], in
  /// unspecified order). Empty queries match nothing and touch no pages.
  /// `stats`, when non-null, is accumulated into.
  Status Run(std::span<const geom::Rect> queries,
             std::vector<std::vector<ObjectId>>* results,
             BatchStats* stats = nullptr);

  /// As above, and also runs every kNN in `knns` in the same level pass:
  /// `neighbors` is resized to knns.size() and neighbors->at(j) holds the
  /// min(k, objects) objects nearest knns[j].point by MinDistance, in
  /// ascending (distance, id) order. A kNN with k = 0 or a non-finite
  /// point finds nothing and touches no pages; any radius works (a poor
  /// one costs extra passes).
  /// `neighbors` may be null only when `knns` is empty.
  Status Run(std::span<const geom::Rect> queries,
             std::span<const KnnQuery> knns,
             std::vector<std::vector<ObjectId>>* results,
             std::vector<std::vector<Neighbor>>* neighbors,
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

  // One worker's private scratch. Worker 0 (the caller) appends leaf hits
  // and kNN candidates straight to the results and next-level items to
  // next_; helpers buffer theirs here until the level's merge.
  struct Worker {
    ScanScratch scratch;
    std::vector<uint32_t> match_idx;
    std::vector<storage::PageId> window_ids;
    std::vector<uint64_t> next;
    std::vector<std::pair<uint32_t, ObjectId>> hits;
    std::vector<std::pair<uint32_t, Neighbor>> candidates;  // (kNN, hit).
  };

  // Sizes the per-worker scratch to the scheduler.
  void Init();

  // Scans the already-pinned page for the frontier run [begin, end) (all
  // items share the page). Leaf matches of a region query go to `results`
  // (worker 0) or wk->hits, those of a kNN square to candidates_ (worker 0)
  // or wk->candidates; internal matches to `next`.
  Status VisitPage(Worker* wk, const storage::PageGuard& guard,
                   const PageRun& run, std::vector<uint64_t>* next,
                   std::vector<std::vector<ObjectId>>* results);

  // The scheduler's walk: fetches and scans `runs` on worker `w`.
  Status WalkRuns(size_t w, std::span<const PageRun> runs);

  // The scheduler's merge: folds helper `w`'s buffers into the level.
  void MergeWorker(size_t w);

  // Runs the level pass from frontier_ down to the leaves, walking each
  // level's runs high-to-low when `reverse`; accumulates into `stats`.
  Status RunLevels(bool reverse, BatchStats* stats);

  const RTree* tree_;
  storage::PageCache* pool_;
  size_t page_size_;
  // Pages per fetch window (FetchWindow).
  size_t window_;
  std::unique_ptr<LevelScheduler> own_scheduler_;
  LevelScheduler* scheduler_;
  std::vector<std::unique_ptr<Worker>> workers_;
  // The Run's results, which worker 0 appends to.
  std::vector<std::vector<ObjectId>>* results_ = nullptr;
  // The pass being run, read only during Run(): the region queries'
  // rectangles, then one square per kNN (query num_rects_ + j is kNN j).
  std::vector<geom::Rect> queries_;
  size_t num_rects_ = 0;
  std::span<const KnnQuery> knns_;
  // Per kNN: its candidates this pass, its square's half-side, and the
  // kNNs still searching (indexes into the knns span).
  std::vector<std::vector<Neighbor>> candidates_;
  std::vector<double> radius_;
  std::vector<uint32_t> searching_;
  std::vector<uint32_t> still_searching_;
  // The root's MBR, taken at its visit in each pass.
  geom::Rect root_mbr_;

  std::vector<uint64_t> frontier_;
  std::vector<uint64_t> next_;
  std::vector<PageRun> runs_;
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
