#include "sim/runner.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "rtree/batch.h"
#include "rtree/update_batch.h"

namespace rtb::sim {

namespace {

// Runs `phase(options.warmup, nullptr)`, snapshots the store's read
// counter, then runs `phase(options.queries, &result)`; the measured
// phase's store reads are the run's disk accesses.
template <typename Phase>
Result<WorkloadResult> Measure(storage::PageStore* store,
                               const WorkloadOptions& options, Phase&& phase) {
  WorkloadResult result;
  const auto warmup_start = std::chrono::steady_clock::now();
  RTB_RETURN_IF_ERROR(phase(options.warmup, nullptr));
  const uint64_t reads_before = store->stats().reads;
  const auto start = std::chrono::steady_clock::now();
  result.warmup_seconds =
      std::chrono::duration<double>(start - warmup_start).count();

  RTB_RETURN_IF_ERROR(phase(options.queries, &result));
  const auto end = std::chrono::steady_clock::now();
  result.elapsed_seconds =
      std::chrono::duration<double>(end - start).count();
  result.queries = options.queries;
  result.disk_accesses = store->stats().reads - reads_before;
  return result;
}

// The mixed insert/delete/search stream (options.insert_frac /
// delete_frac > 0). Serial by contract: updates mutate the tree, and the
// paper's buffering questions for updates are about write clustering, not
// thread scaling. Per operation the generator's rectangle is drawn first,
// then one uniform double classifies the operation, so insert/delete/search
// streams of the same seed share their rectangle sequence. Updates are
// buffered and drained through rtree::UpdateBatchExecutor every
// `update_batch_size` operations (<= 1 applies them tuple-at-a-time via
// RTree::Insert / RTree::Delete); searches execute in stream order against
// the tree as of the last drain. Delete victims are drawn from a ledger of
// present entries — seeded from the dataset the tree was built from, fed
// by drained inserts — so a batched delete never targets a same-batch
// insert (that ordering is unspecified, see update_batch.h).
Result<WorkloadResult> ExecuteMixed(rtree::RTree* tree,
                                    storage::PageStore* store,
                                    QueryGenerator* gen, Rng* rng,
                                    const WorkloadOptions& options) {
  RTB_CHECK(tree != nullptr && store != nullptr && gen != nullptr &&
            rng != nullptr);
  if (options.insert_frac < 0.0 || options.delete_frac < 0.0 ||
      options.insert_frac + options.delete_frac > 1.0) {
    return Status::InvalidArgument(
        "insert_frac/delete_frac must be in [0, 1] with sum <= 1");
  }
  if (options.delete_frac > 0.0 && options.dataset == nullptr) {
    return Status::InvalidArgument(
        "delete_frac > 0 needs options.dataset to seed the ledger");
  }

  struct Present {
    geom::Rect rect;
    rtree::ObjectId id;
  };
  std::vector<Present> ledger;
  if (options.dataset != nullptr) {
    ledger.reserve(options.dataset->size());
    for (size_t i = 0; i < options.dataset->size(); ++i) {
      ledger.push_back(
          {(*options.dataset)[i], static_cast<rtree::ObjectId>(i)});
    }
  }
  std::vector<Present> staged;  // Inserts buffered but not yet drained.
  uint64_t next_id = options.insert_id_base;
  rtree::UpdateBatchExecutor updater(tree);
  std::vector<rtree::UpdateOp> buffer;
  const uint64_t flush_at = std::max<uint64_t>(1, options.update_batch_size);

  // Applies the buffered updates. `counters` is null during warm-up.
  auto drain = [&](WorkloadResult* counters) -> Status {
    if (!buffer.empty()) {
      if (options.update_batch_size <= 1) {
        for (const rtree::UpdateOp& op : buffer) {
          if (op.kind == rtree::UpdateOp::Kind::kInsert) {
            RTB_RETURN_IF_ERROR(tree->Insert(op.rect, op.id));
          } else {
            RTB_RETURN_IF_ERROR(tree->Delete(op.rect, op.id).status());
          }
        }
        // The serial path commits per drain too (the executor path commits
        // inside Run); a no-op when the pool has no WAL attached.
        RTB_RETURN_IF_ERROR(tree->pool()->WalCommit().status());
      } else {
        rtree::UpdateBatchStats ustats;
        RTB_RETURN_IF_ERROR(updater.Run(buffer, &ustats));
        if (counters != nullptr) {
          counters->node_accesses += ustats.node_accesses;
        }
      }
      buffer.clear();
    }
    // Only now do the buffer's inserts become delete victims: a batched
    // delete locates against the batch-start tree.
    ledger.insert(ledger.end(), staged.begin(), staged.end());
    staged.clear();
    return Status::OK();
  };

  auto run_phase = [&](uint64_t n, WorkloadResult* counters) -> Status {
    std::vector<rtree::ObjectId> sink;
    rtree::QueryStats qstats;
    for (uint64_t i = 0; i < n; ++i) {
      const geom::Rect q = gen->Next(*rng);
      const double u = rng->NextDouble();
      const bool wants_update = u < options.insert_frac + options.delete_frac;
      const bool is_delete =
          wants_update && u >= options.insert_frac && !ledger.empty();
      if (is_delete) {
        const size_t v = static_cast<size_t>(rng->UniformInt(ledger.size()));
        buffer.push_back(rtree::UpdateOp::Delete(ledger[v].rect,
                                                 ledger[v].id));
        ledger[v] = ledger.back();
        ledger.pop_back();
        if (counters != nullptr) ++counters->deletes;
      } else if (wants_update) {  // Insert; empty-ledger deletes degrade.
        buffer.push_back(rtree::UpdateOp::Insert(q, next_id));
        staged.push_back({q, next_id});
        ++next_id;
        if (counters != nullptr) ++counters->inserts;
      } else {
        sink.clear();
        RTB_RETURN_IF_ERROR(tree->Search(
            q, &sink, counters != nullptr ? &qstats : nullptr));
        if (counters != nullptr) ++counters->searches;
      }
      if (buffer.size() >= flush_at) RTB_RETURN_IF_ERROR(drain(counters));
    }
    RTB_RETURN_IF_ERROR(drain(counters));
    if (counters != nullptr) counters->node_accesses += qstats.nodes_accessed;
    return Status::OK();
  };

  return Measure(store, options, run_phase);
}

// The pure-query stream. batch_size <= 1 keeps the historical per-query
// loop verbatim; larger batches route through the level-synchronous
// executor, a fresh one per phase so the measured phase's elevator sweep
// starts ascending whatever the warm-up's batch count. Query order is the
// same in both modes (the generators consume a fixed number of draws per
// query).
Result<WorkloadResult> ExecuteWorkload(rtree::RTree* tree,
                                       storage::PageStore* store,
                                       QueryGenerator* gen, Rng* rng,
                                       const WorkloadOptions& options) {
  RTB_CHECK(tree != nullptr && store != nullptr && gen != nullptr &&
            rng != nullptr);
  const uint64_t batch_size = options.batch_size;
  auto run_phase = [&](uint64_t n, WorkloadResult* counters) -> Status {
    if (batch_size <= 1) {
      std::vector<rtree::ObjectId> sink;
      rtree::QueryStats stats;
      rtree::QueryStats* stats_arg = counters != nullptr ? &stats : nullptr;
      for (uint64_t i = 0; i < n; ++i) {
        sink.clear();
        RTB_RETURN_IF_ERROR(tree->Search(gen->Next(*rng), &sink, stats_arg));
      }
      if (counters != nullptr) counters->node_accesses = stats.nodes_accessed;
      return Status::OK();
    }
    rtree::BatchExecutor executor(tree, options.workers);
    rtree::BatchStats stats;
    std::vector<geom::Rect> batch;
    std::vector<std::vector<rtree::ObjectId>> results;
    batch.reserve(batch_size);
    for (uint64_t done = 0; done < n;) {
      const uint64_t k = std::min<uint64_t>(batch_size, n - done);
      batch.clear();
      for (uint64_t i = 0; i < k; ++i) batch.push_back(gen->Next(*rng));
      RTB_RETURN_IF_ERROR(executor.Run(batch, &results, &stats));
      done += k;
    }
    if (counters != nullptr) counters->node_accesses = stats.node_accesses;
    return Status::OK();
  };
  return Measure(store, options, run_phase);
}

}  // namespace

Status PinTopLevels(storage::PageCache* pool,
                    const rtree::TreeSummary& summary, uint16_t levels) {
  if (levels == 0) return Status::OK();
  const int min_pinned_level = static_cast<int>(summary.height()) - levels;
  for (const rtree::NodeInfo& node : summary.nodes()) {
    if (static_cast<int>(node.level) >= min_pinned_level) {
      RTB_RETURN_IF_ERROR(pool->PinPermanently(node.page));
    }
  }
  return Status::OK();
}

Result<WorkloadResult> RunWorkload(rtree::RTree* tree,
                                   storage::PageStore* store,
                                   QueryGenerator* gen,
                                   const WorkloadOptions& options) {
  Rng rng(options.base_seed);
  if (options.insert_frac > 0.0 || options.delete_frac > 0.0) {
    return ExecuteMixed(tree, store, gen, &rng, options);
  }
  return ExecuteWorkload(tree, store, gen, &rng, options);
}

}  // namespace rtb::sim
