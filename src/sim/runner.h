// End-to-end workload runner: executes real R-tree queries through a real
// buffer pool and reports actual disk accesses. Used to cross-validate the
// MBR-list simulator, to run the replacement-policy ablations (the
// analytical model only covers LRU), and as the single execution path of
// the experiment engine (engine/engine.h).
//
// One executor serves every configuration:
//
//   * threads == 1 runs the paper's serial query stream on the calling
//     thread — the exact instruction sequence (same RNG stream, same query
//     order) of the historical serial runner, so its counters are
//     byte-identical to every result published before the unification.
//   * threads > 1 fans the stream out over worker threads; worker w draws
//     its queries from an independent RNG substream seeded base_seed + w,
//     so a run is a pure function of (tree, options) regardless of thread
//     scheduling. The tree's page cache must then be internally
//     synchronized (ShardedBufferPool).
//
// Phases: all workers first run their slice of the warm-up queries; after a
// join barrier the store's read counter is snapshotted; then all workers
// run their measured slice. Disk accesses are the store-read delta across
// the measured phase.

#ifndef RTB_SIM_RUNNER_H_
#define RTB_SIM_RUNNER_H_

#include <cstdint>
#include <vector>

#include "rtree/rtree.h"
#include "rtree/summary.h"
#include "sim/query_gen.h"
#include "storage/buffer_pool.h"
#include "util/result.h"

namespace rtb::sim {

/// Logical counters of one worker's slice of a run. Disk accesses are only
/// meaningful in the reduced WorkloadResult view: the page cache is shared,
/// so misses cannot be attributed to a single worker.
struct WorkerResult {
  uint64_t queries = 0;
  uint64_t node_accesses = 0;
};

/// Results of an end-to-end run — the one result type shared by the serial
/// path, the parallel path and the experiment engine.
struct WorkloadResult {
  uint64_t queries = 0;        // All operations (searches + updates).
  uint64_t disk_accesses = 0;  // Store reads during the measured phase.
  uint64_t node_accesses = 0;  // Logical node visits.
  // Mixed-workload breakdown (zero for pure query runs). `deletes` counts
  // delete operations issued; a delete whose victim was already removed by
  // an earlier class over the same ledger is still counted here.
  uint64_t searches = 0;
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  double warmup_seconds = 0.0;   // Wall time of the warm-up phase.
  double elapsed_seconds = 0.0;  // Wall time of the measured phase.
  /// Per-worker breakdown; one entry per worker (a single entry for serial
  /// runs).
  std::vector<WorkerResult> per_worker;

  double MeanDiskAccesses() const {
    return queries == 0 ? 0.0
                        : static_cast<double>(disk_accesses) /
                              static_cast<double>(queries);
  }
  double MeanNodeAccesses() const {
    return queries == 0 ? 0.0
                        : static_cast<double>(node_accesses) /
                              static_cast<double>(queries);
  }
  double QueriesPerSecond() const {
    return elapsed_seconds > 0.0
               ? static_cast<double>(queries) / elapsed_seconds
               : 0.0;
  }
};

/// Configuration for a run.
struct WorkloadOptions {
  uint32_t threads = 1;    // Worker count; 1 is the paper's serial stream.
  uint64_t base_seed = 1;  // Worker w uses Rng(base_seed + w).
  uint64_t warmup = 0;     // Warm-up queries, split across workers.
  uint64_t queries = 0;    // Measured queries, split across workers.
  /// Queries executed together through rtree::BatchExecutor (level-
  /// synchronous, page-ordered traversal). <= 1 runs the classic serial
  /// per-query loop — the exact instruction sequence of the historical
  /// runner, so all published counters stay valid. Query generation order
  /// is identical in both modes (the generators draw a fixed number of RNG
  /// values per query), so a batched run sees the same query stream.
  uint64_t batch_size = 1;
  /// Mixed insert/delete/search workload. Each operation first draws its
  /// rectangle from the generator, then a uniform double u classifies it:
  /// u < insert_frac inserts the rectangle with a fresh id;
  /// u < insert_frac + delete_frac deletes a uniformly chosen entry from
  /// the present-entry ledger (degrading to an insert while the ledger is
  /// empty); otherwise it is a search. Both fractions 0 (the default) is
  /// the pure query workload, whose RNG stream and counters are unchanged.
  /// Mixed runs mutate the tree, so they require threads == 1; searches
  /// then run through the classic serial loop regardless of batch_size.
  double insert_frac = 0.0;
  double delete_frac = 0.0;
  /// Updates buffered per rtree::UpdateBatchExecutor batch (group-by-leaf
  /// application, vectored dirty-page writeback). <= 1 applies each update
  /// tuple-at-a-time through RTree::Insert / RTree::Delete — Guttman's
  /// Delete/FindLeaf/CondenseTree — the batched path's equivalence oracle.
  /// Searches are never buffered: they execute in stream order against the
  /// tree as of the last drained update batch.
  uint64_t update_batch_size = 1;
  /// Seeds the present-entry ledger for delete victims: the rectangles the
  /// tree was built from, whose object ids are their indexes (the
  /// bulk-load contract). Required when delete_frac > 0.
  const std::vector<geom::Rect>* dataset = nullptr;
  /// Ids for fresh inserts count up from here; runs of different classes
  /// over one tree use disjoint bases so their entries never collide.
  uint64_t insert_id_base = uint64_t{1} << 40;
};

/// Permanently pins the pages of the top `levels` levels of the tree
/// described by `summary` into `pool`. Fails with ResourceExhausted when
/// they do not fit.
Status PinTopLevels(storage::PageCache* pool,
                    const rtree::TreeSummary& summary, uint16_t levels);

/// Runs `options.warmup + options.queries` queries from `gen` against
/// `tree`, fanned out over `options.threads` workers; only the measured
/// phase is counted. The generator must be stateless across Next() calls
/// (all generators in query_gen.h are); the tree's page cache must be
/// thread-safe when threads > 1. Queries are split evenly; worker w
/// executes ceil-or-floor(queries / threads) of them with its own RNG
/// substream. Disk accesses are taken from the tree's page store counters.
Result<WorkloadResult> RunWorkload(rtree::RTree* tree,
                                   storage::PageStore* store,
                                   QueryGenerator* gen,
                                   const WorkloadOptions& options);

}  // namespace rtb::sim

#endif  // RTB_SIM_RUNNER_H_
