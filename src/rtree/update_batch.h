// UpdateBatchExecutor: level-synchronous execution of a batch of inserts
// and deletes with group-by-leaf writes.
//
// The serial path (RTree::Insert / RTree::Delete) runs one update
// root-to-leaf at a time: a leaf receiving k updates is pinned, decoded,
// re-serialized and written back k times, and every node on the path is
// rewritten per update. The batch executor inverts the loops the same way
// BatchExecutor does for queries: all pending updates descend together —
// inserts along their ChooseSubtree path, deletes fanning out through every
// containing child — one level per round, with the frontier sorted by page
// id so each distinct page is pinned once per round. When the descent
// reaches the target level the operations are grouped by leaf and each
// group is applied under a single pin; the dirtied leaves are
// page-id-adjacent after a bulk load, so the pool's flush and eviction
// writebacks coalesce them into vectored writes (PageStore::WriteBatch).
//
// Only changed pages are written. A node is pinned for reading and dirtied
// only when its bytes change: an insert lands, a delete finds its entry, a
// child slot is added, removed or gets a different rectangle, or the node
// is split or condensed. A delete candidate that does not hold the entry,
// and an ancestor whose slot already covers what changed below it, stay
// clean, so they are never logged, committed or written back. A node asks
// its parent for a new slot rectangle only when its MBR differs from the
// slot Locate read, so an insert inside its leaf's MBR stops at the leaf.
//
// Structure changes feed back into the same batch:
//   * a node driven past max_entries by net inserts is split, possibly
//     into more than two groups (a quadratic/linear/R* split is applied
//     recursively until every group fits) — the new siblings join the
//     parent's pending child updates;
//   * a node driven below min_entries by net deletes is dissolved exactly
//     as in Guttman's CondenseTree: its remaining entries become orphans
//     tagged with the node's level and re-enter the executor as the next
//     pass's operations, located and grouped like any other batch;
//   * parent MBRs are updated level by level (each touched parent pinned
//     once per round), the root grows when it overflows and is rebuilt
//     from the highest orphans when a round dissolves all of its children,
//     and a single-child internal root is shrunk after the last pass.
//
// Reads and workers. The executor's page reads run on a LevelScheduler
// (level_scheduler.h), its own or one shared with a BatchExecutor: each
// Locate level, and after Locate a read round that fetches the pass's target
// pages in windows (vectored, like the search) and decodes them. A level or
// round of at least LevelScheduler::kMinParallelRuns pages is split by
// buffer shard over the scheduler's workers; each shard is read by one
// worker in page order, so the pool sees the same accesses per shard for any
// worker count. The read round releases at once a page that only takes
// deletes whose entries it does not hold (it stays clean) and keeps the
// other pins, with the decoded nodes, for the apply. It reads fewer than
// half of the frames a shard can pin beside its permanent pins and
// uncommitted pages (PageCache::shard_pinnable_frames), so the apply's
// unread node and new sibling still find frames; the pages past that are
// fetched by the apply as before. Each page a pass touches is still requested once. Everything that
// changes the tree — applying ops, resolving deletes, splits, page
// allocation, condensation and parent updates — runs on the calling thread
// in page order, so tree bytes, page ids and the WAL's image order do not
// depend on the worker count.
//
// Slices and commits. With a WAL attached the pool is no-steal: every page
// a batch dirties stays in the pool until the commit that logs it. A drain
// whose dirty set would not fit is therefore applied in slices of
// consecutive ops, each committed before the next starts. Each slice is
// sized to dirty about a third of the pool at the measured uncommitted
// pages per op (the larger of the last two slices' rates, carried across
// Run() calls; before the first measurement, height + 1 pages per op). On
// a sharded pool the rate is the fullest shard's times the shard count, so
// the slice fills a third of that shard. The rest of the pool holds the
// pages a slice reads. Without a WAL the whole batch is one slice.
//
// Equivalence with the serial path: a batch (slice) of size <= 1 delegates to
// RTree::Insert / RTree::Delete and is byte-identical to it by
// construction. Larger batches are logically equivalent (same multiset of
// leaf entries, structurally valid tree) but not byte-identical — the
// batched descent chooses subtrees against the slice-start state, applies
// plain (non-forced-reinsert) overflow handling, and when duplicate
// (rect, id) entries exist in several leaves a delete may remove a
// different copy than the serial order would. Deletes locate against the
// slice-start state; deleting an entry inserted by the same batch is
// unspecified. update_batch_test asserts both contracts against the
// serial oracle.

#ifndef RTB_RTREE_UPDATE_BATCH_H_
#define RTB_RTREE_UPDATE_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "geom/rect.h"
#include "rtree/level_scheduler.h"
#include "rtree/node.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "util/result.h"

namespace rtb::rtree {

/// One pending update: an insertion or an exact-match deletion.
struct UpdateOp {
  enum class Kind : uint8_t { kInsert, kDelete };

  Kind kind = Kind::kInsert;
  geom::Rect rect;
  ObjectId id = 0;

  static UpdateOp Insert(const geom::Rect& rect, ObjectId id) {
    return UpdateOp{Kind::kInsert, rect, id};
  }
  static UpdateOp Delete(const geom::Rect& rect, ObjectId id) {
    return UpdateOp{Kind::kDelete, rect, id};
  }
};

/// Counters for Run() calls (accumulated across calls until reset).
struct UpdateBatchStats {
  uint64_t inserts = 0;         ///< Entries added to leaves.
  uint64_t deletes_found = 0;   ///< Delete ops that removed an entry.
  uint64_t deletes_missing = 0; ///< Delete ops whose entry did not exist.
  /// Logical (node, op) visits during descent plus one per processed node —
  /// comparable to summing serial per-update path lengths.
  uint64_t node_accesses = 0;
  /// Nodes whose bytes changed (dirtied); within one pass each changed node
  /// counts once no matter how many operations land on it.
  uint64_t pages_mutated = 0;
  uint64_t splits = 0;           ///< Nodes split (k-way counts k-1).
  uint64_t condensed_nodes = 0;  ///< Underflowing nodes dissolved.
  uint64_t passes = 0;           ///< Locate/apply rounds incl. orphan passes.
  uint64_t commits = 0;          ///< Slices committed (one per slice).
};

/// One commit of a Run(): how much of the batch it covers and the tree it
/// left. Recovery to `lsn` reopens the tree at (`root`, `height`) holding
/// exactly the first `ops` operations of the batch.
struct UpdateCommit {
  size_t ops = 0;  ///< Operations of the batch applied up to this commit.
  storage::Lsn lsn = storage::kNoLsn;  ///< Commit record (kNoLsn: no WAL).
  storage::PageId root = storage::kInvalidPageId;
  uint16_t height = 0;
};

/// Executes batches of inserts/deletes against one tree. Holds reusable
/// frontier and grouping scratch, so one executor per thread; updates
/// mutate the tree, so unlike BatchExecutor concurrent executors on one
/// tree are not supported.
class UpdateBatchExecutor {
 public:
  /// The executor does not own `tree`; it must outlive the executor. Its
  /// reads run on the calling thread alone.
  explicit UpdateBatchExecutor(RTree* tree);
  /// Runs the reads on `scheduler`, which must serve the tree's pool and
  /// outlive the executor, and may be shared with other executors that do
  /// not run at the same time. More than one worker needs an internally
  /// synchronized pool.
  UpdateBatchExecutor(RTree* tree, LevelScheduler* scheduler);

  UpdateBatchExecutor(const UpdateBatchExecutor&) = delete;
  UpdateBatchExecutor& operator=(const UpdateBatchExecutor&) = delete;

  /// Applies every operation in `ops` in submission order semantics (a
  /// delete locates against the batch-start tree and removes at most one
  /// entry). `stats`, when non-null, is accumulated into. `delete_found`,
  /// when non-null, is resized to ops.size(); entry i becomes 1 when op i
  /// is a delete that removed an entry, 0 otherwise — the per-op answer a
  /// serving tier needs to fan DELETE replies back out of a coalesced
  /// batch. With a WAL attached the batch may commit in several slices
  /// (see the file comment); commits() lists them. On error the tree may
  /// hold a partially applied batch — committed slices stay committed; the
  /// pool and pages stay structurally consistent (same contract as a failed
  /// serial update).
  Status Run(std::span<const UpdateOp> ops, UpdateBatchStats* stats = nullptr,
             std::vector<uint8_t>* delete_found = nullptr);

  /// The commits the last Run() made, in order (also those made before it
  /// failed). Without a WAL a non-empty Run makes one, with kNoLsn.
  const std::vector<UpdateCommit>& commits() const { return commits_; }

 private:
  // An operation in flight: the original batch's inserts/deletes plus
  // orphans produced by condensation, which are inserts targeting the
  // level the dissolved node occupied.
  struct PendingOp {
    Entry entry;
    uint16_t target_level = 0;
    bool is_delete = false;
    bool done = false;  // Deletes: applied in an earlier group this pass.
  };

  // A mutation a processed child hands to its parent. kMbr gives the
  // child's slot a new rectangle, kRemove drops a dissolved child's slot,
  // kAdd appends a split sibling.
  struct ChildUpdate {
    enum class Kind : uint8_t { kMbr, kRemove, kAdd };
    Kind kind = Kind::kMbr;
    storage::PageId child = storage::kInvalidPageId;  // kMbr / kRemove.
    Entry add;                                        // kAdd.
    geom::Rect mbr;                                   // kMbr.
  };

  // Where a located page hangs: its parent and the rectangle of its slot
  // there, as Locate read it.
  struct ParentSlot {
    storage::PageId parent = storage::kInvalidPageId;
    geom::Rect rect;
  };

  // A frontier item is (page, op) packed as page << 32 | op index, so the
  // per-level sort by (page, submission order) is a sort of plain
  // uint64_t — same scheme as BatchExecutor.
  static constexpr uint64_t PackItem(storage::PageId page, uint32_t op) {
    return (static_cast<uint64_t>(page) << 32) | op;
  }
  static constexpr storage::PageId ItemPage(uint64_t item) {
    return static_cast<storage::PageId>(item >> 32);
  }
  static constexpr uint32_t ItemOp(uint64_t item) {
    return static_cast<uint32_t>(item);
  }

  // A Locate-time fact about a child page, buffered by a worker until the
  // level's merge: who routed to it, through which slot, and its level.
  struct Route {
    storage::PageId child = storage::kInvalidPageId;
    ParentSlot slot;
    uint16_t level = 0;
  };

  // One worker's Locate output for the current level, merged after it.
  struct Worker {
    std::vector<storage::PageId> window_ids;
    std::vector<uint64_t> next;
    std::vector<uint64_t> arrived;
    std::vector<Route> routes;
  };

  // What the read round did with one target page: not read (the apply
  // fetches it), read and released because it takes no change (kClean), or
  // read and held with its decoded node for the apply (kHeld).
  struct TargetRead {
    enum class State : uint8_t { kUnread, kClean, kHeld };
    State state = State::kUnread;
    storage::PageGuard guard;
    Node node;
  };

  // Sizes the per-worker scratch to the scheduler.
  void Init();

  // Applies one slice of a batch (no commit). `delete_found`, when
  // non-null, points at the slice's ops.size() entries.
  Status ApplySlice(std::span<const UpdateOp> ops, UpdateBatchStats* stats,
                    uint8_t* delete_found);

  // One locate/read/apply round over `pending_`: descends to each op's
  // target level, reads the target pages, applies the grouped operations,
  // propagates child updates to the root, and leaves condensation orphans in
  // `orphans_` for the next pass.
  Status RunPass(UpdateBatchStats* stats);

  // Descent rounds: sorts and walks `frontier_` one level at a time on the
  // scheduler, pinning each distinct page once. Items whose next hop is
  // their target level land in `arrived_`.
  Status Locate(UpdateBatchStats* stats);

  // Routes the items of one pinned frontier page one level down into
  // worker `wk`'s buffers.
  Status RouteItems(const storage::PageGuard& guard, const PageRun& run,
                    Worker* wk);

  // The read round over targets_ (see the file comment); fills reads_.
  Status ReadTargets();

  // Applies target-level groups and child updates to the node at `page`
  // under one pin, then resolves overflow/underflow and queues the parent's
  // update. The page is dirtied only if its bytes change. `ops` is the
  // [begin, end) slice of arrived_ for this page (possibly empty when only
  // child updates are pending); `read` is the page's read-round outcome
  // (null when it is not a target).
  Status ProcessNode(storage::PageId page, const uint64_t* ops, size_t nops,
                     TargetRead* read, UpdateBatchStats* stats);

  // Splits `entries` (> max_entries of them) into >= 2 groups, each within
  // [min_entries, max_entries], by applying the configured split
  // recursively to overfull groups.
  void MultiSplit(std::vector<Entry> entries,
                  std::vector<std::vector<Entry>>* groups) const;

  // Replaces an overflowing root: splits `node`'s entries, keeps the first
  // group in the root page (still pinned through `root_guard`), and grows
  // the tree (repeatedly if a grown root overflows again).
  Status GrowRoot(storage::PageGuard* root_guard, Node node,
                  UpdateBatchStats* stats);

  // Rebuilds a root whose children were all dissolved in one pass: the
  // highest-level orphans become the new root's entries (an empty leaf
  // root when no orphans remain).
  Status RecoverEmptyRoot(storage::PageGuard* root_guard,
                          UpdateBatchStats* stats);

  RTree* tree_;
  std::unique_ptr<LevelScheduler> own_scheduler_;
  LevelScheduler* scheduler_;
  // Pages per fetch window (FetchWindow).
  size_t window_ = 1;
  std::vector<Worker> workers_;
  std::vector<UpdateCommit> commits_;
  // Uncommitted pages per op of the last two slices (0 until measured).
  double rate_ = 0.0;
  double prev_rate_ = 0.0;
  std::vector<PendingOp> pending_;
  std::vector<PendingOp> orphans_;
  std::vector<uint64_t> frontier_;
  std::vector<uint64_t> next_;
  std::vector<uint64_t> arrived_;
  std::vector<PageRun> runs_;
  // The pass's target pages: runs of the sorted arrived_, one per page, and
  // the read round's outcome for each. read_runs_ lists the targets the
  // round reads, each as {page, index into targets_, index + 1}.
  std::vector<PageRun> targets_;
  std::vector<TargetRead> reads_;
  std::vector<PageRun> read_runs_;
  std::vector<size_t> shard_reads_;
  // Locate-time tree structure, valid for one pass: who routed to a page
  // (and through which slot), and at which level it lives.
  std::unordered_map<storage::PageId, ParentSlot> parent_of_;
  std::unordered_map<storage::PageId, uint16_t> level_of_;
  std::unordered_map<storage::PageId, std::vector<ChildUpdate>>
      child_updates_;
};

}  // namespace rtb::rtree

#endif  // RTB_RTREE_UPDATE_BATCH_H_
