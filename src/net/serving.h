// ServingStack: the storage/tree sandwich a long-running rtb_server
// process executes against, materialized from the same declarative
// ExperimentSpec the engine uses.
//
// Open() runs engine::PrepareTree (build the dataset into a store, or open
// a persistent index), fronts the store with a ShardedBufferPool of about
// kFramesPerShard frames per shard (256 frames give 8 shards; at most 16) —
// the server's level scheduler has its workers claim each level's shards,
// and since each shard sees the same accesses whatever the worker count,
// the pool's counters stay reproducible — pins the
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
  /// Frames per pool shard; a pool smaller than kMinShardedPages frames has
  /// one shard, and a pool larger than kMaxShards shards' worth has
  /// kMaxShards larger ones. At 32 the 256-frame serving pool has 8 shards for 4
  /// workers, so the workers that start a level first claim the shards a
  /// late one would have walked. Under the earlier fixed shard-to-worker
  /// split, 32 was no faster than 64 (one shard per worker): a late worker
  /// still owned its shards (EXPERIMENTS.md).
  static constexpr uint64_t kFramesPerShard = 32;
  /// Smallest pool that is sharded. Below it a second shard splits a
  /// one-query drain's fetch windows at shard boundaries and adds lock
  /// stretches while there is little for the claims to balance: one
  /// worker on a 64-frame pool read 7.1 us per query at two shards against
  /// 6.6 us at one (CHANGES.md), so micro_server_qps's pool keeps one.
  static constexpr uint64_t kMinShardedPages = 128;
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
