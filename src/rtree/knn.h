// k-nearest-neighbor search over the R-tree (branch-and-bound with a
// best-first priority queue, Roussopoulos-Kelley-Vincent / Hjaltason-Samet
// style). Not part of the paper's evaluation, but a standard capability of
// any adoptable R-tree library; its node accesses flow through the same
// buffer pool, so its disk behaviour can be studied with the same tools.
//
// KnnRadius sizes a kNN as a region query instead: from the leaf MBRs of a
// TreeSummary it estimates the radius that holds k objects around a point,
// which is how BatchExecutor runs kNN in its level-synchronous pass beside
// the region queries (rtree/batch.h).

#ifndef RTB_RTREE_KNN_H_
#define RTB_RTREE_KNN_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "geom/point.h"
#include "rtree/rtree.h"
#include "rtree/summary.h"
#include "util/result.h"

namespace rtb::rtree {

/// One kNN result: the object and its (Euclidean) distance from the query
/// point to its rectangle.
struct Neighbor {
  ObjectId id = 0;
  double distance = 0.0;
  geom::Rect rect;
};

/// Finds the `k` objects whose rectangles are nearest to `point` (minimum
/// Euclidean distance from the point to the rectangle; 0 when the point is
/// inside). Results are sorted by ascending distance; fewer than `k` are
/// returned when the tree is smaller. `stats`, when non-null, accumulates
/// the number of nodes accessed.
Result<std::vector<Neighbor>> SearchKnn(const RTree& tree, geom::Point point,
                                        size_t k,
                                        QueryStats* stats = nullptr);

/// Distance helper: minimum Euclidean distance from `p` to `r` (0 inside).
double MinDistance(geom::Point p, const geom::Rect& r);

/// Density-based estimate of the k-th-neighbour radius, after the paper's
/// data-driven view (§3.2): queries are sized by where the data lies. Each
/// leaf's entries are spread evenly over the cells its MBR covers in a grid
/// of about sqrt(leaves) cells per side over the data's MBR; a cell no leaf
/// covers falls back to the whole MBR's mean density. The estimate at p is
///   r(p, k) = dist(p, MBR) + sqrt(kScale * k / (pi * rho(p))),
/// with rho read at p clamped into the MBR. It only has to be close: the
/// batched kNN widens a radius that holds fewer than k objects.
class KnnRadius {
 public:
  /// How many objects, as a multiple of k, the estimated disc is sized to
  /// hold. At 2 the first round resolves all but ~0.05% of k = 10 kNNs on
  /// the TIGER surrogate and ~1% on uniform points, and visits the fewest
  /// nodes on uniform points (EXPERIMENTS.md, "kNN on every core").
  static constexpr double kScale = 2.0;

  /// An estimator for the empty tree: every radius is 0.
  KnnRadius() = default;
  explicit KnnRadius(const TreeSummary& summary);

  /// The estimated radius of the `k` nearest objects around `p`.
  double Estimate(geom::Point p, size_t k) const;

 private:
  // Grid column / row of a coordinate inside bounds_.
  size_t Column(double x) const {
    return std::min(side_ - 1,
                    static_cast<size_t>((x - bounds_.lo.x) / cell_w_));
  }
  size_t Row(double y) const {
    return std::min(side_ - 1,
                    static_cast<size_t>((y - bounds_.lo.y) / cell_h_));
  }

  geom::Rect bounds_ = geom::Rect::Empty();
  size_t side_ = 0;  // Cells per side.
  double cell_w_ = 0.0;
  double cell_h_ = 0.0;
  // sqrt(kScale / (pi * rho)) per cell, row-major: the radius for k = 1.
  std::vector<double> unit_radius_;
};

}  // namespace rtb::rtree

#endif  // RTB_RTREE_KNN_H_
