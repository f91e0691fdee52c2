// ServingStack: the storage/tree sandwich a long-running rtb_server
// process executes against, materialized from the same declarative
// ExperimentSpec the engine uses.
//
// Open() runs engine::PrepareTree (build the dataset into a store, or open
// a persistent index), fronts the store with a ShardedBufferPool of about
// kFramesPerShard frames per shard (256 frames give 4 shards; at most 16) —
// the search executor splits each level's page runs over its worker
// threads by shard, and since each shard sees the same accesses whatever
// the worker count, the pool's counters stay reproducible — pins the
// requested top levels, sizes the kNN radius estimator (rtree::KnnRadius)
// from the tree's summary, and, when the spec enables it, starts the WAL the
// way engine::Run does: sync the bulk-loaded store, create the log, write a
// checkpoint describing that durable base, attach the writer to the pool
// (no-force discipline from then on).
//
// Close() tears down in the PR 8 order — pool (checkpoints when a WAL is
// attached), then wal, then store — so a graceful server shutdown leaves a
// clean, nothing-to-redo log (tests/server_test.cc asserts this via
// OpenWithRecovery).

#ifndef RTB_NET_SERVING_H_
#define RTB_NET_SERVING_H_

#include <cstdint>
#include <memory>
#include <optional>

#include "engine/engine.h"
#include "engine/spec.h"
#include "rtree/knn.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "storage/wal.h"
#include "util/result.h"

namespace rtb::net {

/// The open tree + pool + optional WAL a Server executes against.
/// Non-copyable. The pool is thread-safe; the tree's updates and the stack's
/// Close() must come from one thread at a time.
class ServingStack {
 public:
  /// Frames per pool shard; a pool smaller than two shards' worth has one
  /// shard, and a pool larger than kMaxShards shards' worth has kMaxShards
  /// larger ones. At 64, the 256-frame serving pool has one shard per
  /// search worker; 32 (8 shards) was no faster, split more reads at shard
  /// boundaries and let a shard run out of no-steal frames (EXPERIMENTS.md).
  static constexpr uint64_t kFramesPerShard = 64;
  /// Shard cap: at 16 shards two concurrent fetches land on the same shard
  /// less than ~6% of the time.
  static constexpr uint64_t kMaxShards = 16;

  /// Materializes the spec. Serving ignores the workload section (queries
  /// come from the wire), so a spec with no query classes is accepted — a
  /// placeholder class is injected before validation.
  static Result<std::unique_ptr<ServingStack>> Open(
      const engine::ExperimentSpec& spec);

  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;

  /// Close() with the error dropped, for abandoned stacks.
  ~ServingStack();

  /// Flush + checkpoint + release, in the pool -> wal -> store order.
  /// Idempotent.
  Status Close();

  rtree::RTree* tree() { return &*tree_; }
  storage::PageCache* pool() { return pool_.get(); }
  storage::PageStore* store() { return prepared_.store.get(); }
  bool wal_active() const { return wal_ != nullptr; }
  storage::WalStats wal_stats() const {
    return wal_ != nullptr ? wal_->stats() : storage::WalStats{};
  }
  const engine::ExperimentSpec& spec() const { return spec_; }
  const engine::IndexMeta& meta() const { return prepared_.meta; }
  /// The first-round kNN radius, from the tree as opened (updates since
  /// then only cost a kNN extra rounds, never a wrong answer).
  const rtree::KnnRadius& knn_radius() const { return knn_radius_; }

 private:
  ServingStack() = default;

  engine::ExperimentSpec spec_;
  engine::PreparedTree prepared_;
  rtree::KnnRadius knn_radius_;
  std::unique_ptr<storage::PageCache> pool_;
  std::unique_ptr<storage::WalWriter> wal_;
  std::optional<rtree::RTree> tree_;
  bool closed_ = false;
};

}  // namespace rtb::net

#endif  // RTB_NET_SERVING_H_
