#include "rtree/batch.h"

#include <algorithm>
#include <utility>

#include "util/macros.h"

namespace rtb::rtree {

namespace {

// Upper bound on pages pinned simultaneously by the windowed multi-get.
// Small on purpose: a wide window on a small pool would make frames
// unevictable that the scan itself still needs. The window's payoff is
// downstream: the serial pool routes the window's miss set through
// PageStore::ReadBatch, so a cold sweep over this page-ordered frontier
// reaches a FilePageStore as one vectored read per consecutive run instead
// of one syscall per page (the sharded pool additionally amortizes its
// shard locks over the window).
constexpr size_t kMaxFetchWindow = 8;

}  // namespace

BatchExecutor::BatchExecutor(const RTree* tree) : tree_(tree) {
  RTB_CHECK(tree_ != nullptr);
  match_idx_.resize(NodeCapacity(tree_->pool()->page_size()));
}

Status BatchExecutor::VisitPage(const storage::PageGuard& guard, size_t begin,
                                size_t end,
                                std::span<const geom::Rect> queries,
                                std::vector<std::vector<ObjectId>>* results) {
  RTB_ASSIGN_OR_RETURN(
      NodeView view,
      NodeView::Create(guard.data(), tree_->pool()->page_size()));
  scratch_.Load(view);
  const bool leaf = scratch_.is_leaf();
  for (size_t k = begin; k < end; ++k) {
    const uint32_t q = ItemQuery(frontier_[k]);
    const size_t nmatch =
        ScanIntersecting(scratch_, queries[q], match_idx_.data());
    if (leaf) {
      std::vector<ObjectId>& out = (*results)[q];
      for (size_t m = 0; m < nmatch; ++m) {
        out.push_back(scratch_.id(match_idx_[m]));
      }
    } else {
      for (size_t m = 0; m < nmatch; ++m) {
        next_.push_back(PackItem(
            static_cast<storage::PageId>(scratch_.id(match_idx_[m])), q));
      }
    }
  }
  return Status::OK();
}

Status BatchExecutor::ScanWindow(storage::PageCache* pool, size_t p, size_t w,
                                 std::span<const geom::Rect> queries,
                                 std::vector<std::vector<ObjectId>>* results) {
  bool done = false;
  if (w > 1) {
    window_ids_.clear();
    for (size_t j = 0; j < w; ++j) {
      window_ids_.push_back(runs_[p + j].page);
    }
    Result<std::vector<storage::PageGuard>> guards =
        pool->FetchBatch(window_ids_.data(), w);
    if (guards.ok()) {
      for (size_t j = 0; j < w; ++j) {
        RTB_RETURN_IF_ERROR(VisitPage((*guards)[j], runs_[p + j].begin,
                                      runs_[p + j].end, queries, results));
        (*guards)[j].Release();
      }
      done = true;
    }
    // A failed multi-get (e.g. not enough unpinned frames for the window)
    // falls through to the one-page-at-a-time path, which needs only a
    // single free frame — same degradation as the serial search.
  }
  if (!done) {
    for (size_t j = 0; j < w; ++j) {
      RTB_ASSIGN_OR_RETURN(storage::PageGuard guard,
                           pool->Fetch(runs_[p + j].page));
      RTB_RETURN_IF_ERROR(VisitPage(guard, runs_[p + j].begin,
                                    runs_[p + j].end, queries, results));
    }
  }
  return Status::OK();
}

Status BatchExecutor::Run(std::span<const geom::Rect> queries,
                          std::vector<std::vector<ObjectId>>* results,
                          BatchStats* stats) {
  RTB_CHECK(results != nullptr);
  results->resize(queries.size());
  frontier_.clear();
  for (uint32_t q = 0; q < queries.size(); ++q) {
    (*results)[q].clear();
    // Empty queries match nothing and, like the serial path, never touch
    // the tree.
    if (!queries[q].is_empty()) {
      frontier_.push_back(PackItem(tree_->root(), q));
    }
  }

  storage::PageCache* pool = tree_->pool();
  const size_t window =
      std::min(kMaxFetchWindow, std::max<size_t>(1, pool->capacity() / 4));
  BatchStats local;
  const bool reverse = reverse_sweep_;
  reverse_sweep_ = !reverse_sweep_;

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

    for (size_t p = 0; p < runs_.size(); p += window) {
      const size_t w = std::min(window, runs_.size() - p);
      RTB_RETURN_IF_ERROR(ScanWindow(pool, p, w, queries, results));
    }
    std::swap(frontier_, next_);
  }

  if (stats != nullptr) {
    stats->node_accesses += local.node_accesses;
    stats->page_visits += local.page_visits;
  }
  return Status::OK();
}

}  // namespace rtb::rtree
