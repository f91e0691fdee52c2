// Query generators for the unified query classes (model/query_class.h).
//
//  * Uniform centers: point queries uniform over the unit square; qx x qy
//    region queries whose top-right corner is uniform over
//    U' = [qx,1] x [qy,1], so the query fits inside the unit square
//    (Section 3.1, Fig. 3). An open axis emits [-inf, +inf] — the query
//    constrains only the fixed axes (partial match).
//  * Data centers: a qx x qy rectangle centered at a uniformly chosen
//    data-rectangle center (Section 3.2); qx = qy = 0 gives data-driven
//    point queries.
//  * Cluster centers: the center is a Zipf-weighted hotspot plus a
//    Gaussian offset (skewed workloads); hotspot placement is derived from
//    the class's placement seed, identically to the analytic model.
//
// Generators are constructed through a registry keyed by the class's
// center-source name, so new center sources plug in without touching this
// file. All generators are immutable after construction: Next() reads only
// the caller's Rng, so one generator instance is safely shared across
// threads, each with its own Rng, and each thread draws exactly the stream
// it would draw alone.
//
// Center-set lifetime: generators that sample data centers share ownership
// of the vector (shared_ptr), so a spec-built generator cannot dangle when
// the dataset that produced it is rebuilt or freed mid-run. Call sites
// whose centers provably outlive the generator (benches with stack-owned
// workloads) may use GeneratorContext::Borrowing.

#ifndef RTB_SIM_QUERY_GEN_H_
#define RTB_SIM_QUERY_GEN_H_

#include <memory>
#include <string>
#include <vector>

#include "geom/point.h"
#include "geom/rect.h"
#include "model/access_prob.h"
#include "model/query_class.h"
#include "util/result.h"
#include "util/rng.h"

namespace rtb::sim {

/// Produces a stream of query rectangles. Implementations are deterministic
/// functions of the Rng stream and hold no mutable state, so one instance
/// may be shared across threads (each with its own Rng).
class QueryGenerator {
 public:
  virtual ~QueryGenerator() = default;

  /// Draws the next query rectangle.
  virtual geom::Rect Next(Rng& rng) = 0;
};

/// Everything a generator factory may need beyond the QueryClass itself.
struct GeneratorContext {
  /// Data-rectangle centers, shared with the generator ("data" centers).
  std::shared_ptr<const std::vector<geom::Point>> centers;

  /// Wraps a caller-owned vector without taking ownership (aliasing
  /// shared_ptr with a no-op deleter). The caller guarantees `centers`
  /// outlives every generator built from this context.
  static GeneratorContext Borrowing(const std::vector<geom::Point>* centers);
};

/// Uniform point queries over the unit square.
class UniformPointGenerator final : public QueryGenerator {
 public:
  geom::Rect Next(Rng& rng) override;
};

/// Uniform region queries contained in the unit square; open axes emit
/// [-inf, +inf].
class UniformRegionGenerator final : public QueryGenerator {
 public:
  /// Requires 0 <= qx < 1, 0 <= qy < 1 (qx = qy = 0 degenerates to points).
  UniformRegionGenerator(double qx, double qy);
  /// Open-axis aware form; fixed extents must be in [0, 1).
  UniformRegionGenerator(model::AxisExtent x, model::AxisExtent y);

  geom::Rect Next(Rng& rng) override;

 private:
  model::AxisExtent x_;
  model::AxisExtent y_;
};

/// Queries centered at a uniformly chosen data center. Shares ownership of
/// the center set; open axes emit [-inf, +inf].
class DataDrivenGenerator final : public QueryGenerator {
 public:
  DataDrivenGenerator(std::shared_ptr<const std::vector<geom::Point>> centers,
                      model::AxisExtent x, model::AxisExtent y);
  DataDrivenGenerator(std::shared_ptr<const std::vector<geom::Point>> centers,
                      double qx, double qy);

  geom::Rect Next(Rng& rng) override;

 private:
  std::shared_ptr<const std::vector<geom::Point>> centers_;
  model::AxisExtent x_;
  model::AxisExtent y_;
};

/// Queries centered near Zipf-weighted Gaussian hotspots (skewed
/// workloads). The hotspot table and Zipf CDF are fixed at construction
/// (model::DeriveHotspots / model::ZipfWeights), so the instance is
/// immutable and thread-shareable like every other generator.
class ClusterHotspotGenerator final : public QueryGenerator {
 public:
  explicit ClusterHotspotGenerator(const model::QueryClass& qc);

  geom::Rect Next(Rng& rng) override;

  const std::vector<geom::Point>& hotspots() const { return hotspots_; }

 private:
  model::AxisExtent x_;
  model::AxisExtent y_;
  double spread_;
  std::vector<geom::Point> hotspots_;
  std::vector<double> cdf_;  // Cumulative Zipf weights over hotspot ranks.
};

/// A factory building a generator for one center source.
using GeneratorFactory = Result<std::unique_ptr<QueryGenerator>> (*)(
    const model::QueryClass& qc, const GeneratorContext& ctx);

/// Registers a center source under `center`. The builtins ("uniform",
/// "data", "cluster") are pre-registered; registering a name twice is an
/// error. `needs_centers` declares that the factory requires ctx.centers,
/// which the spec engine uses to materialize data centers up front.
Status RegisterGenerator(const std::string& center, GeneratorFactory factory,
                         bool needs_centers = false);

/// True when `center` names a registered center source.
bool HasGenerator(const std::string& center);

/// True when `center` is registered and its factory requires ctx.centers.
bool GeneratorNeedsCenters(const std::string& center);

/// Builds the generator matching a query class through the registry, so
/// simulations and the analytical model describe the same workload.
Result<std::unique_ptr<QueryGenerator>> MakeGenerator(
    const model::QueryClass& qc, const GeneratorContext& ctx = {});

/// Borrowing convenience for call sites whose centers outlive the
/// generator (the legacy signature): equivalent to passing
/// GeneratorContext::Borrowing(centers).
Result<std::unique_ptr<QueryGenerator>> MakeGenerator(
    const model::QueryClass& qc, const std::vector<geom::Point>* centers);

}  // namespace rtb::sim

#endif  // RTB_SIM_QUERY_GEN_H_
