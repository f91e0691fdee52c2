#include "net/serving.h"

#include <algorithm>
#include <utility>

#include "sim/runner.h"
#include "storage/replacement.h"
#include "storage/sharded_buffer_pool.h"
#include "util/macros.h"

namespace rtb::net {

Result<std::unique_ptr<ServingStack>> ServingStack::Open(
    const engine::ExperimentSpec& spec) {
  engine::ExperimentSpec effective = spec;
  if (effective.workload.classes.empty()) {
    // Serving takes its queries from the wire; satisfy Validate()'s
    // at-least-one-class requirement with a placeholder that never runs.
    engine::QueryClassSpec cls;
    cls.label = "serving";
    cls.count = 1;
    effective.workload.classes.push_back(cls);
  }
  RTB_RETURN_IF_ERROR(effective.Validate());

  auto stack = std::unique_ptr<ServingStack>(new ServingStack());
  stack->spec_ = effective;
  RTB_ASSIGN_OR_RETURN(stack->prepared_, engine::PrepareTree(effective));
  stack->knn_radius_ = rtree::KnnRadius(*stack->prepared_.summary);

  RTB_ASSIGN_OR_RETURN(storage::PolicyKind kind,
                       engine::ParsePolicyKind(effective.pool.policy));
  // A sharded pool of about kFramesPerShard frames per shard, at most
  // kMaxShards of them, and one shard below kMinShardedPages frames: the
  // server's workers claim each level's page runs by shard, and because
  // every shard sees the same accesses whatever the worker count, the
  // pool's counters do not depend on it.
  const uint64_t pages = effective.pool.buffer_pages;
  storage::ShardedBufferPool::Options options;
  options.num_shards =
      pages < ServingStack::kMinShardedPages
          ? 1
          : std::clamp<uint64_t>(pages / ServingStack::kFramesPerShard, 1,
                                 ServingStack::kMaxShards);
  options.policy = kind;
  options.seed = effective.run.seed;
  stack->pool_ = std::make_unique<storage::ShardedBufferPool>(
      stack->prepared_.store.get(), pages, options);

  if (effective.pool.pinned_levels > 0) {
    RTB_RETURN_IF_ERROR(sim::PinTopLevels(stack->pool_.get(),
                                          *stack->prepared_.summary,
                                          effective.pool.pinned_levels));
  }

  if (effective.storage.wal.enabled) {
    RTB_RETURN_IF_ERROR(stack->prepared_.store->Sync());
    storage::WalWriter::Options wopts;
    wopts.group_commit_window = effective.storage.wal.group_commit_window;
    const std::string wal_path = effective.storage.wal.path.empty()
                                     ? effective.storage.path + ".wal"
                                     : effective.storage.wal.path;
    RTB_ASSIGN_OR_RETURN(stack->wal_,
                         storage::WalWriter::Create(wal_path, wopts));
    RTB_RETURN_IF_ERROR(
        stack->wal_->Checkpoint(stack->prepared_.store->num_pages()));
    stack->pool_->AttachWal(stack->wal_.get());
  }

  RTB_ASSIGN_OR_RETURN(
      rtree::RTree tree,
      rtree::RTree::Open(
          stack->pool_.get(),
          rtree::RTreeConfig::WithFanout(stack->prepared_.meta.fanout),
          stack->prepared_.meta.root, stack->prepared_.meta.height));
  stack->tree_.emplace(std::move(tree));
  return stack;
}

ServingStack::~ServingStack() { Close().ok(); }

Status ServingStack::Close() {
  if (closed_) return Status::OK();
  closed_ = true;
  // PR 8 order: the pool's Close checkpoints through the attached WAL
  // (flush dirty pages WAL-first, sync the store, truncate the log), then
  // the writer and the store release their descriptors.
  RTB_RETURN_IF_ERROR(pool_->Close());
  if (wal_ != nullptr) RTB_RETURN_IF_ERROR(wal_->Close());
  RTB_RETURN_IF_ERROR(prepared_.store->Close());
  return Status::OK();
}

}  // namespace rtb::net
