#include "rtree/knn.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <queue>

#include "storage/buffer_pool.h"

namespace rtb::rtree {

using geom::Point;
using geom::Rect;

double MinDistance(Point p, const Rect& r) {
  if (r.is_empty()) return std::numeric_limits<double>::infinity();
  double dx = 0.0;
  if (p.x < r.lo.x) {
    dx = r.lo.x - p.x;
  } else if (p.x > r.hi.x) {
    dx = p.x - r.hi.x;
  }
  double dy = 0.0;
  if (p.y < r.lo.y) {
    dy = r.lo.y - p.y;
  } else if (p.y > r.hi.y) {
    dy = p.y - r.hi.y;
  }
  return std::hypot(dx, dy);
}

namespace {

// Priority-queue element: either a node to expand or an object candidate.
struct QueueEntry {
  double distance = 0.0;
  bool is_object = false;
  uint64_t id = 0;  // PageId for nodes, ObjectId for objects.
  Rect rect;

  // Min-heap by distance; objects win ties so results emit before equally
  // distant subtrees are expanded needlessly.
  bool operator<(const QueueEntry& other) const {
    if (distance != other.distance) return distance > other.distance;
    return is_object < other.is_object;
  }
};

}  // namespace

Result<std::vector<Neighbor>> SearchKnn(const RTree& tree, Point point,
                                        size_t k, QueryStats* stats) {
  std::vector<Neighbor> result;
  if (k == 0) return result;

  std::priority_queue<QueueEntry> queue;
  queue.push(QueueEntry{0.0, false, tree.root(), Rect::Empty()});

  storage::PageCache* pool = tree.pool();
  while (!queue.empty() && result.size() < k) {
    QueueEntry top = queue.top();
    queue.pop();
    if (top.is_object) {
      result.push_back(Neighbor{top.id, top.distance, top.rect});
      continue;
    }
    RTB_ASSIGN_OR_RETURN(storage::PageGuard guard,
                         pool->Fetch(static_cast<storage::PageId>(top.id)));
    if (stats != nullptr) ++stats->nodes_accessed;
    RTB_ASSIGN_OR_RETURN(NodeView view,
                         NodeView::Create(guard.data(), pool->page_size()));
    for (uint16_t i = 0; i < view.count(); ++i) {
      const geom::Rect rect = view.rect(i);
      queue.push(QueueEntry{MinDistance(point, rect), view.is_leaf(),
                            view.id(i), rect});
    }
  }
  return result;
}

KnnRadius::KnnRadius(const TreeSummary& summary) {
  double entries = 0.0;
  size_t leaves = 0;
  for (const NodeInfo& node : summary.nodes()) {
    if (node.level != 0 || node.num_entries == 0 || node.mbr.is_empty()) {
      continue;
    }
    bounds_ = geom::Union(bounds_, node.mbr);
    entries += node.num_entries;
    ++leaves;
  }
  if (leaves == 0) return;

  // A degenerate MBR (collinear or coincident data) borrows its other side,
  // or a unit side, so every cell has an area.
  double width = bounds_.width();
  double height = bounds_.height();
  if (width <= 0.0) width = height;
  if (height <= 0.0) height = width;
  if (width <= 0.0) width = height = 1.0;
  side_ = std::max<size_t>(
      1, static_cast<size_t>(std::lround(std::sqrt(static_cast<double>(
             leaves)))));
  cell_w_ = width / static_cast<double>(side_);
  cell_h_ = height / static_cast<double>(side_);

  std::vector<double> count(side_ * side_, 0.0);
  for (const NodeInfo& node : summary.nodes()) {
    if (node.level != 0 || node.num_entries == 0 || node.mbr.is_empty()) {
      continue;
    }
    const size_t x0 = Column(node.mbr.lo.x), x1 = Column(node.mbr.hi.x);
    const size_t y0 = Row(node.mbr.lo.y), y1 = Row(node.mbr.hi.y);
    const double share = node.num_entries /
                         static_cast<double>((x1 - x0 + 1) * (y1 - y0 + 1));
    for (size_t y = y0; y <= y1; ++y) {
      for (size_t x = x0; x <= x1; ++x) count[y * side_ + x] += share;
    }
  }

  const double mean = entries / static_cast<double>(side_ * side_);
  unit_radius_.resize(count.size());
  for (size_t c = 0; c < count.size(); ++c) {
    const double per_cell = count[c] > 0.0 ? count[c] : mean;
    const double rho = per_cell / (cell_w_ * cell_h_);
    unit_radius_[c] = std::sqrt(kScale / (std::numbers::pi * rho));
  }
}

double KnnRadius::Estimate(Point p, size_t k) const {
  if (unit_radius_.empty()) return 0.0;
  const size_t c =
      Row(std::clamp(p.y, bounds_.lo.y, bounds_.hi.y)) * side_ +
      Column(std::clamp(p.x, bounds_.lo.x, bounds_.hi.x));
  return MinDistance(p, bounds_) +
         unit_radius_[c] * std::sqrt(static_cast<double>(k));
}

}  // namespace rtb::rtree
