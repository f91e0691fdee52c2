#include "rtree/batch.h"

#include <algorithm>
#include <utility>

#include "util/macros.h"

namespace rtb::rtree {

namespace {

// Upper bound on pages pinned simultaneously by the windowed multi-get.
// Small on purpose: a wide window on a small pool would make frames
// unevictable that the scan itself still needs. The window's payoff is
// downstream: the pool routes the window's miss set through
// PageStore::ReadBatch, so a cold sweep over this page-ordered frontier
// reaches a FilePageStore as one vectored read per consecutive run instead
// of one syscall per page (the sharded pool additionally takes one shard
// lock per run of same-shard pages in the window).
constexpr size_t kMaxFetchWindow = 8;

// Fewest runs in a level that is split by shard over the workers. A
// smaller level (the root levels, a batch of a few queries) runs inline on
// the caller in sweep order, so one-query drains pay for neither a wake-up
// nor windows cut at shard boundaries.
constexpr size_t kMinParallelRuns = 32;

}  // namespace

BatchExecutor::BatchExecutor(const RTree* tree, size_t workers)
    : tree_(tree) {
  RTB_CHECK(tree_ != nullptr);
  pool_ = tree_->pool();
  page_size_ = pool_->page_size();
  num_shards_ = pool_->num_shards();
  window_ = std::min(
      kMaxFetchWindow,
      std::max<size_t>(1, pool_->capacity() / num_shards_ / 4));
  workers = std::clamp<size_t>(workers, 1, num_shards_);
  for (size_t w = 0; w < workers; ++w) {
    workers_.push_back(std::make_unique<Worker>());
    workers_.back()->match_idx.resize(NodeCapacity(page_size_));
  }
  try {
    for (size_t w = 1; w < workers; ++w) {
      helpers_.emplace_back(&BatchExecutor::HelperLoop, this, w);
    }
  } catch (...) {
    StopHelpers();  // Join the helpers already started before unwinding.
    throw;
  }
}

BatchExecutor::~BatchExecutor() { StopHelpers(); }

void BatchExecutor::StopHelpers() {
  stop_.store(true, std::memory_order_release);
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  for (std::thread& t : helpers_) t.join();
}

void BatchExecutor::HelperLoop(size_t w) {
  Worker* wk = workers_[w].get();
  uint32_t seen = 0;
  for (;;) {
    generation_.wait(seen, std::memory_order_acquire);
    seen = generation_.load(std::memory_order_acquire);
    if (stop_.load(std::memory_order_acquire)) return;
    wk->next.clear();
    wk->hits.clear();
    wk->status = WalkShards(wk, w, workers_.size(), &wk->next, nullptr);
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      pending_.notify_one();
    }
  }
}

Status BatchExecutor::VisitPage(Worker* wk, const storage::PageGuard& guard,
                                const PageRun& run,
                                std::vector<uint64_t>* next,
                                std::vector<std::vector<ObjectId>>* results) {
  RTB_ASSIGN_OR_RETURN(NodeView view,
                       NodeView::Create(guard.data(), page_size_));
  ScanScratch& scratch = wk->scratch;
  scratch.Load(view);
  const bool leaf = scratch.is_leaf();
  uint32_t* match = wk->match_idx.data();
  for (size_t k = run.begin; k < run.end; ++k) {
    const uint32_t q = ItemQuery(frontier_[k]);
    const size_t nmatch = ScanIntersecting(scratch, queries_[q], match);
    if (!leaf) {
      for (size_t m = 0; m < nmatch; ++m) {
        next->push_back(
            PackItem(static_cast<storage::PageId>(scratch.id(match[m])), q));
      }
    } else if (results != nullptr) {
      std::vector<ObjectId>& out = (*results)[q];
      for (size_t m = 0; m < nmatch; ++m) out.push_back(scratch.id(match[m]));
    } else {
      for (size_t m = 0; m < nmatch; ++m) {
        wk->hits.emplace_back(q, scratch.id(match[m]));
      }
    }
  }
  return Status::OK();
}

Status BatchExecutor::ScanWindow(Worker* wk, const PageRun* runs, size_t w,
                                 std::vector<uint64_t>* next,
                                 std::vector<std::vector<ObjectId>>* results) {
  if (w > 1) {
    wk->window_ids.clear();
    for (size_t j = 0; j < w; ++j) wk->window_ids.push_back(runs[j].page);
    Result<std::vector<storage::PageGuard>> guards =
        pool_->FetchBatch(wk->window_ids.data(), w);
    if (guards.ok()) {
      for (size_t j = 0; j < w; ++j) {
        RTB_RETURN_IF_ERROR(
            VisitPage(wk, (*guards)[j], runs[j], next, results));
        (*guards)[j].Release();
      }
      return Status::OK();
    }
    // A failed multi-get (e.g. not enough unpinned frames for the window)
    // falls through to the one-page-at-a-time path, which needs only a
    // single free frame — same degradation as the serial search.
  }
  for (size_t j = 0; j < w; ++j) {
    RTB_ASSIGN_OR_RETURN(storage::PageGuard guard, pool_->Fetch(runs[j].page));
    RTB_RETURN_IF_ERROR(VisitPage(wk, guard, runs[j], next, results));
  }
  return Status::OK();
}

Status BatchExecutor::WalkRuns(Worker* wk, const PageRun* runs, size_t n,
                               std::vector<uint64_t>* next,
                               std::vector<std::vector<ObjectId>>* results) {
  for (size_t p = 0; p < n; p += window_) {
    RTB_RETURN_IF_ERROR(
        ScanWindow(wk, runs + p, std::min(window_, n - p), next, results));
  }
  return Status::OK();
}

Status BatchExecutor::WalkShards(Worker* wk, size_t first, size_t stride,
                                 std::vector<uint64_t>* next,
                                 std::vector<std::vector<ObjectId>>* results) {
  for (size_t s = first; s < num_shards_; s += stride) {
    RTB_RETURN_IF_ERROR(WalkRuns(wk, by_shard_.data() + shard_begin_[s],
                                 shard_begin_[s + 1] - shard_begin_[s], next,
                                 results));
  }
  return Status::OK();
}

Status BatchExecutor::Run(std::span<const geom::Rect> queries,
                          std::vector<std::vector<ObjectId>>* results,
                          BatchStats* stats) {
  RTB_CHECK(results != nullptr);
  results->resize(queries.size());
  queries_ = queries;
  frontier_.clear();
  for (uint32_t q = 0; q < queries.size(); ++q) {
    (*results)[q].clear();
    // Empty queries match nothing and, like the serial path, never touch
    // the tree.
    if (!queries[q].is_empty()) {
      frontier_.push_back(PackItem(tree_->root(), q));
    }
  }

  BatchStats local;
  const bool reverse = reverse_sweep_;
  reverse_sweep_ = !reverse_sweep_;
  Worker* caller = workers_[0].get();

  // One round per tree level: every frontier item sits at the same depth,
  // and scanning an internal page only emits items one level down.
  while (!frontier_.empty()) {
    std::sort(frontier_.begin(), frontier_.end());
    next_.clear();

    runs_.clear();
    for (uint32_t i = 0; i < frontier_.size(); ++i) {
      const storage::PageId page = ItemPage(frontier_[i]);
      if (runs_.empty() || page != runs_.back().page) {
        runs_.push_back({page, i, i});
      }
      runs_.back().end = i + 1;
    }
    // Elevator sweep: every other batch walks the runs high-to-low, so the
    // sweep resumes on the pages the previous one ended with (the ones an
    // LRU pool still holds) instead of flooding from the low end.
    if (reverse) std::reverse(runs_.begin(), runs_.end());
    local.node_accesses += frontier_.size();
    local.page_visits += runs_.size();

    // A small level runs inline in sweep order, its windows spanning
    // shards, exactly as on a serial pool. The choice depends on the run
    // count alone, so it is the same for every worker count.
    if (runs_.size() < kMinParallelRuns) {
      RTB_RETURN_IF_ERROR(
          WalkRuns(caller, runs_.data(), runs_.size(), &next_, results));
      std::swap(frontier_, next_);
      continue;
    }

    // Regroup the runs by shard, keeping the sweep order within each.
    shard_begin_.assign(num_shards_ + 1, 0);
    for (PageRun& r : runs_) {
      r.shard = static_cast<uint32_t>(pool_->ShardOf(r.page));
      ++shard_begin_[r.shard + 1];
    }
    for (size_t s = 0; s < num_shards_; ++s) {
      shard_begin_[s + 1] += shard_begin_[s];
    }
    shard_fill_.assign(shard_begin_.begin(), shard_begin_.end() - 1);
    by_shard_.resize(runs_.size());
    for (const PageRun& r : runs_) by_shard_[shard_fill_[r.shard]++] = r;

    const size_t helpers = workers_.size() - 1;
    if (helpers > 0) {
      pending_.store(static_cast<uint32_t>(helpers),
                     std::memory_order_relaxed);
      generation_.fetch_add(1, std::memory_order_release);
      generation_.notify_all();
    }
    Status status = WalkShards(caller, 0, helpers + 1, &next_, results);
    if (helpers > 0) {
      // Level barrier: wait for every helper, then merge their output.
      for (uint32_t left = pending_.load(std::memory_order_acquire);
           left != 0; left = pending_.load(std::memory_order_acquire)) {
        pending_.wait(left, std::memory_order_acquire);
      }
      for (size_t w = 1; w < workers_.size(); ++w) {
        Worker& wk = *workers_[w];
        if (status.ok()) status = wk.status;
        next_.insert(next_.end(), wk.next.begin(), wk.next.end());
        for (const auto& [q, id] : wk.hits) (*results)[q].push_back(id);
      }
    }
    RTB_RETURN_IF_ERROR(status);
    std::swap(frontier_, next_);
  }

  if (stats != nullptr) {
    stats->node_accesses += local.node_accesses;
    stats->page_visits += local.page_visits;
  }
  return Status::OK();
}

}  // namespace rtb::rtree
