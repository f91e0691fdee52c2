#include "rtree/batch.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>
#include <utility>

#include "util/macros.h"

namespace rtb::rtree {

namespace {

// The kNN square of half-side `r` around `p`, rounded outward: a padding
// of a few ulps of |p| + r on each side, past the rounding of p +- r and
// of MinDistance's own subtraction, so an object whose MinDistance is <= r
// always meets the square.
geom::Rect KnnSquare(geom::Point p, double r) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kPad = 4 * std::numeric_limits<double>::epsilon();
  const double px = kPad * (std::fabs(p.x) + r);
  const double py = kPad * (std::fabs(p.y) + r);
  return geom::Rect(std::nextafter(p.x - r - px, -kInf),
                    std::nextafter(p.y - r - py, -kInf),
                    std::nextafter(p.x + r + px, kInf),
                    std::nextafter(p.y + r + py, kInf));
}

// The half-side of the smallest square around `p` that covers `mbr`.
double CoverRadius(geom::Point p, const geom::Rect& mbr) {
  return std::max({p.x - mbr.lo.x, mbr.hi.x - p.x, p.y - mbr.lo.y,
                   mbr.hi.y - p.y, 0.0});
}

// The kNN ranking: by distance, ties by id, so the k nearest are the same
// whatever order the candidates were merged in.
bool Nearer(const Neighbor& a, const Neighbor& b) {
  return a.distance != b.distance ? a.distance < b.distance : a.id < b.id;
}

}  // namespace

size_t DefaultSearchWorkers() {
  return std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
}

BatchExecutor::BatchExecutor(const RTree* tree, size_t workers)
    : tree_(tree) {
  RTB_CHECK(tree_ != nullptr);
  own_scheduler_ = std::make_unique<LevelScheduler>(tree_->pool(), workers);
  scheduler_ = own_scheduler_.get();
  Init();
}

BatchExecutor::BatchExecutor(const RTree* tree, LevelScheduler* scheduler)
    : tree_(tree), scheduler_(scheduler) {
  RTB_CHECK(tree_ != nullptr && scheduler_ != nullptr);
  RTB_CHECK(scheduler_->pool() == tree_->pool());
  Init();
}

void BatchExecutor::Init() {
  pool_ = tree_->pool();
  page_size_ = pool_->page_size();
  window_ = FetchWindow(*pool_);
  for (size_t w = 0; w < scheduler_->workers(); ++w) {
    workers_.push_back(std::make_unique<Worker>());
    workers_.back()->match_idx.resize(NodeCapacity(page_size_));
  }
}

Status BatchExecutor::VisitPage(Worker* wk, const storage::PageGuard& guard,
                                const PageRun& run,
                                std::vector<uint64_t>* next,
                                std::vector<std::vector<ObjectId>>* results) {
  RTB_ASSIGN_OR_RETURN(NodeView view,
                       NodeView::Create(guard.data(), page_size_));
  // The pass's one root visit (the root level is a single run) records
  // the MBR a covering kNN square must contain.
  if (run.page == tree_->root()) root_mbr_ = view.Mbr();
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
    } else if (q >= num_rects_) {
      const uint32_t j = q - static_cast<uint32_t>(num_rects_);
      const geom::Point p = knns_[j].point;
      for (size_t m = 0; m < nmatch; ++m) {
        const uint32_t e = match[m];
        const geom::Rect rect(scratch.xlo()[e], scratch.ylo()[e],
                              scratch.xhi()[e], scratch.yhi()[e]);
        const Neighbor hit{scratch.id(e), MinDistance(p, rect), rect};
        if (results != nullptr) {
          candidates_[j].push_back(hit);
        } else {
          wk->candidates.emplace_back(j, hit);
        }
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

Status BatchExecutor::WalkRuns(size_t w, std::span<const PageRun> runs) {
  Worker* wk = workers_[w].get();
  std::vector<uint64_t>* next = w == 0 ? &next_ : &wk->next;
  std::vector<std::vector<ObjectId>>* results = w == 0 ? results_ : nullptr;
  return FetchRuns(pool_, runs, window_, &wk->window_ids,
                   [&](const storage::PageGuard& guard, const PageRun& run) {
                     return VisitPage(wk, guard, run, next, results);
                   });
}

void BatchExecutor::MergeWorker(size_t w) {
  if (w == 0) return;  // Worker 0 wrote straight to the level's output.
  Worker& wk = *workers_[w];
  next_.insert(next_.end(), wk.next.begin(), wk.next.end());
  for (const auto& [q, id] : wk.hits) (*results_)[q].push_back(id);
  for (const auto& [j, hit] : wk.candidates) candidates_[j].push_back(hit);
  wk.next.clear();
  wk.hits.clear();
  wk.candidates.clear();
}

Status BatchExecutor::Run(std::span<const geom::Rect> queries,
                          std::vector<std::vector<ObjectId>>* results,
                          BatchStats* stats) {
  return Run(queries, {}, results, nullptr, stats);
}

Status BatchExecutor::Run(std::span<const geom::Rect> queries,
                          std::span<const KnnQuery> knns,
                          std::vector<std::vector<ObjectId>>* results,
                          std::vector<std::vector<Neighbor>>* neighbors,
                          BatchStats* stats) {
  RTB_CHECK(results != nullptr);
  RTB_CHECK(neighbors != nullptr || knns.empty());
  RTB_CHECK(queries.size() + knns.size() <= UINT32_MAX);
  results->resize(queries.size());
  results_ = results;
  num_rects_ = queries.size();
  knns_ = knns;
  queries_.assign(queries.begin(), queries.end());
  queries_.resize(queries.size() + knns.size());
  frontier_.clear();
  for (uint32_t q = 0; q < queries.size(); ++q) {
    (*results)[q].clear();
    // Empty queries match nothing and, like the serial path, never touch
    // the tree.
    if (!queries[q].is_empty()) {
      frontier_.push_back(PackItem(tree_->root(), q));
    }
  }
  if (neighbors != nullptr) {
    neighbors->resize(knns.size());
    for (auto& n : *neighbors) n.clear();
  }
  candidates_.resize(knns.size());
  radius_.resize(knns.size());
  searching_.clear();
  for (uint32_t j = 0; j < knns.size(); ++j) {
    const geom::Point p = knns[j].point;
    if (knns[j].k == 0 || !std::isfinite(p.x) || !std::isfinite(p.y)) {
      continue;
    }
    // A NaN or negative radius starts from the point itself.
    radius_[j] = knns[j].radius > 0.0 ? knns[j].radius : 0.0;
    searching_.push_back(j);
  }

  BatchStats local;
  // Consecutive Runs sweep in alternating directions; a Run's extra kNN
  // rounds keep its direction, so the alternation across Runs is the
  // region-only one.
  const bool reverse = reverse_sweep_;
  reverse_sweep_ = !reverse_sweep_;
  // One pass for the region queries and the kNNs' first squares, then one
  // per round of the kNNs still searching.
  for (bool first = true; first || !searching_.empty(); first = false) {
    for (const uint32_t j : searching_) {
      const uint32_t q = static_cast<uint32_t>(num_rects_ + j);
      queries_[q] = KnnSquare(knns[j].point, radius_[j]);
      candidates_[j].clear();
      frontier_.push_back(PackItem(tree_->root(), q));
    }
    local.knn_rounds += searching_.size();
    root_mbr_ = geom::Rect::Empty();
    RTB_RETURN_IF_ERROR(RunLevels(reverse, &local));

    still_searching_.clear();
    for (const uint32_t j : searching_) {
      std::vector<Neighbor>& c = candidates_[j];
      local.knn_candidates += c.size();
      const size_t k = knns[j].k;
      const double r = radius_[j];
      const bool covers = queries_[num_rects_ + j].Contains(root_mbr_);
      if (c.size() >= k) {
        std::nth_element(c.begin(), c.begin() + (k - 1), c.end(), Nearer);
        const double kth = c[k - 1].distance;
        if (kth > r && !covers) {
          // Every object within the k-th distance meets that square.
          radius_[j] = kth;
          still_searching_.push_back(j);
          continue;
        }
        c.resize(k);
      } else if (!covers) {
        radius_[j] = r > 0.0 ? 2 * r : CoverRadius(knns[j].point, root_mbr_);
        still_searching_.push_back(j);
        continue;
      }
      std::sort(c.begin(), c.end(), Nearer);
      (*neighbors)[j] = c;
    }
    std::swap(searching_, still_searching_);
  }

  if (stats != nullptr) {
    stats->node_accesses += local.node_accesses;
    stats->page_visits += local.page_visits;
    stats->knn_rounds += local.knn_rounds;
    stats->knn_candidates += local.knn_candidates;
  }
  return Status::OK();
}

Status BatchExecutor::RunLevels(bool reverse, BatchStats* stats) {
  const LevelScheduler::WalkFn walk = [this](size_t w,
                                             std::span<const PageRun> runs) {
    return WalkRuns(w, runs);
  };
  const LevelScheduler::MergeFn merge = [this](size_t w) { MergeWorker(w); };

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
    stats->node_accesses += frontier_.size();
    stats->page_visits += runs_.size();

    RTB_RETURN_IF_ERROR(scheduler_->Run(runs_, walk, merge));
    std::swap(frontier_, next_);
  }
  return Status::OK();
}

}  // namespace rtb::rtree
