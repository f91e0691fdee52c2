#include "sim/runner.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "rtree/batch.h"
#include "rtree/update_batch.h"

namespace rtb::sim {

namespace {

// Queries assigned to worker `w` out of `total` split over `threads`.
uint64_t SliceSize(uint64_t total, uint32_t threads, uint32_t w) {
  return total / threads + (w < total % threads ? 1 : 0);
}

// Runs `fn(w)` on `threads` workers and joins. Worker 0 runs on the calling
// thread, so a single-threaded run never leaves the caller's thread and is
// instruction-identical to a plain loop.
template <typename Fn>
void FanOut(uint32_t threads, Fn&& fn) {
  std::vector<std::thread> pool;
  pool.reserve(threads > 0 ? threads - 1 : 0);
  for (uint32_t w = 1; w < threads; ++w) {
    pool.emplace_back([&fn, w] { fn(w); });
  }
  fn(0);
  for (std::thread& t : pool) t.join();
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

  WorkloadResult result;
  result.per_worker.assign(1, WorkerResult{});

  const auto warmup_start = std::chrono::steady_clock::now();
  RTB_RETURN_IF_ERROR(run_phase(options.warmup, nullptr));
  const uint64_t reads_before = store->stats().reads;
  const auto start = std::chrono::steady_clock::now();
  result.warmup_seconds =
      std::chrono::duration<double>(start - warmup_start).count();

  RTB_RETURN_IF_ERROR(run_phase(options.queries, &result));
  const auto end = std::chrono::steady_clock::now();
  result.elapsed_seconds =
      std::chrono::duration<double>(end - start).count();
  result.queries = options.queries;
  result.per_worker[0].queries = options.queries;
  result.per_worker[0].node_accesses = result.node_accesses;
  result.disk_accesses = store->stats().reads - reads_before;
  return result;
}

// The pure-query executor: worker w draws its slice of each phase from its
// own substream Rng(base_seed + w), kept across the warm-up and measured
// phases.
Result<WorkloadResult> ExecuteWorkload(rtree::RTree* tree,
                                       storage::PageStore* store,
                                       QueryGenerator* gen,
                                       const WorkloadOptions& options) {
  RTB_CHECK(tree != nullptr && store != nullptr && gen != nullptr);
  const uint32_t threads = options.threads;
  const uint64_t batch_size = options.batch_size;
  std::vector<Rng> rngs;
  rngs.reserve(threads);
  for (uint32_t w = 0; w < threads; ++w) {
    rngs.emplace_back(options.base_seed + w);
  }

  std::vector<Status> statuses(threads, Status::OK());
  WorkloadResult result;
  result.per_worker.assign(threads, WorkerResult{});

  // Worker w's slice of a phase: its share of `total` queries drawn from
  // its RNG stream, in the same order in every mode (the generators consume
  // a fixed number of draws per query). batch_size <= 1 keeps the
  // historical per-query loop verbatim; larger batches route through the
  // level-synchronous executor with a private frontier per worker.
  // Node-access counts go to *nodes when non-null (the measured phase).
  auto run_slice = [&](uint32_t w, uint64_t total, uint64_t* nodes)
      -> Status {
    const uint64_t n = SliceSize(total, threads, w);
    if (batch_size <= 1) {
      std::vector<rtree::ObjectId> sink;
      rtree::QueryStats stats;
      rtree::QueryStats* stats_arg = nodes != nullptr ? &stats : nullptr;
      for (uint64_t i = 0; i < n; ++i) {
        sink.clear();
        RTB_RETURN_IF_ERROR(tree->Search(gen->Next(rngs[w]), &sink,
                                         stats_arg));
      }
      if (nodes != nullptr) *nodes = stats.nodes_accessed;
      return Status::OK();
    }
    rtree::BatchExecutor executor(tree);
    rtree::BatchStats stats;
    std::vector<geom::Rect> batch;
    std::vector<std::vector<rtree::ObjectId>> results;
    batch.reserve(batch_size);
    for (uint64_t done = 0; done < n;) {
      const uint64_t k = std::min<uint64_t>(batch_size, n - done);
      batch.clear();
      for (uint64_t i = 0; i < k; ++i) batch.push_back(gen->Next(rngs[w]));
      RTB_RETURN_IF_ERROR(executor.Run(batch, &results, &stats));
      done += k;
    }
    if (nodes != nullptr) *nodes = stats.node_accesses;
    return Status::OK();
  };

  // Phase 1: warm-up (not measured).
  const auto warmup_start = std::chrono::steady_clock::now();
  FanOut(threads, [&](uint32_t w) {
    Status s = run_slice(w, options.warmup, nullptr);
    if (!s.ok()) statuses[w] = std::move(s);
  });
  for (Status& s : statuses) {
    RTB_RETURN_IF_ERROR(std::move(s));
    s = Status::OK();
  }

  // The join above is the barrier: every warm-up query's disk reads are in
  // the counter before the snapshot.
  const uint64_t reads_before = store->stats().reads;
  const auto start = std::chrono::steady_clock::now();
  result.warmup_seconds =
      std::chrono::duration<double>(start - warmup_start).count();

  // Phase 2: measured queries.
  FanOut(threads, [&](uint32_t w) {
    uint64_t nodes = 0;
    Status s = run_slice(w, options.queries, &nodes);
    if (!s.ok()) {
      statuses[w] = std::move(s);
      return;
    }
    result.per_worker[w].queries = SliceSize(options.queries, threads, w);
    result.per_worker[w].node_accesses = nodes;
  });
  for (Status& s : statuses) {
    RTB_RETURN_IF_ERROR(std::move(s));
  }

  const auto end = std::chrono::steady_clock::now();
  result.elapsed_seconds =
      std::chrono::duration<double>(end - start).count();
  for (const WorkerResult& w : result.per_worker) {
    result.queries += w.queries;
    result.node_accesses += w.node_accesses;
  }
  result.disk_accesses = store->stats().reads - reads_before;
  return result;
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
  if (options.threads == 0) {
    return Status::InvalidArgument("threads must be >= 1");
  }
  if (options.insert_frac > 0.0 || options.delete_frac > 0.0) {
    if (options.threads != 1) {
      return Status::InvalidArgument(
          "mixed update workloads require threads == 1");
    }
    Rng rng(options.base_seed);
    return ExecuteMixed(tree, store, gen, &rng, options);
  }
  return ExecuteWorkload(tree, store, gen, options);
}

}  // namespace rtb::sim
