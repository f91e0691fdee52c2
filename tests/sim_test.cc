// Tests for the query generators, the MBR-list LRU simulator, and the
// end-to-end workload runner (cross-checking simulator vs real execution).

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "data/datasets.h"
#include "model/access_prob.h"
#include "rtree/bulk_load.h"
#include "rtree/rtree.h"
#include "rtree/summary.h"
#include "sim/lru_sim.h"
#include "sim/query_gen.h"
#include "sim/runner.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"
#include "util/rng.h"

namespace rtb::sim {
namespace {

using geom::Point;
using geom::Rect;
using rtree::TreeSummary;
using storage::MemPageStore;

// --------------------------------------------------------------------------
// Query generators
// --------------------------------------------------------------------------

TEST(QueryGenTest, UniformPointsAreDegenerateAndInSquare) {
  UniformPointGenerator gen;
  Rng rng(401);
  for (int i = 0; i < 1000; ++i) {
    Rect q = gen.Next(rng);
    EXPECT_EQ(q.Area(), 0.0);
    EXPECT_TRUE(Rect::UnitSquare().Contains(q));
  }
}

TEST(QueryGenTest, UniformRegionsFitInsideSquareWithExactSize) {
  UniformRegionGenerator gen(0.25, 0.1);
  Rng rng(409);
  for (int i = 0; i < 1000; ++i) {
    Rect q = gen.Next(rng);
    EXPECT_NEAR(q.width(), 0.25, 1e-12);
    EXPECT_NEAR(q.height(), 0.1, 1e-12);
    EXPECT_TRUE(Rect::UnitSquare().Contains(q));
  }
}

TEST(QueryGenTest, UniformRegionTopRightCornerCoversUPrime) {
  // The top-right corner must reach both extremes of U' = [qx,1] x [qy,1].
  UniformRegionGenerator gen(0.5, 0.5);
  Rng rng(419);
  double min_x = 1.0, max_x = 0.0;
  for (int i = 0; i < 5000; ++i) {
    Rect q = gen.Next(rng);
    min_x = std::min(min_x, q.hi.x);
    max_x = std::max(max_x, q.hi.x);
  }
  EXPECT_LT(min_x, 0.52);
  EXPECT_GT(max_x, 0.98);
}

TEST(QueryGenTest, DataDrivenCentersOnDataPoints) {
  auto centers = std::make_shared<const std::vector<Point>>(
      std::vector<Point>{{0.25, 0.25}, {0.75, 0.75}});
  DataDrivenGenerator gen(centers, 0.1, 0.2);
  Rng rng(421);
  for (int i = 0; i < 100; ++i) {
    Rect q = gen.Next(rng);
    Point c = q.Center();
    bool at_first = std::abs(c.x - 0.25) < 1e-12 &&
                    std::abs(c.y - 0.25) < 1e-12;
    bool at_second = std::abs(c.x - 0.75) < 1e-12 &&
                     std::abs(c.y - 0.75) < 1e-12;
    EXPECT_TRUE(at_first || at_second);
    EXPECT_NEAR(q.width(), 0.1, 1e-12);
    EXPECT_NEAR(q.height(), 0.2, 1e-12);
  }
}

TEST(QueryGenTest, FactoryMatchesSpecs) {
  Rng rng(431);
  std::vector<Point> centers = {{0.5, 0.5}};
  auto point_gen = MakeGenerator(model::QuerySpec::UniformPoint());
  ASSERT_TRUE(point_gen.ok());
  EXPECT_EQ((*point_gen)->Next(rng).Area(), 0.0);
  auto region_gen = MakeGenerator(model::QuerySpec::UniformRegion(0.1, 0.1));
  ASSERT_TRUE(region_gen.ok());
  EXPECT_NEAR((*region_gen)->Next(rng).width(), 0.1, 1e-12);
  auto dd_gen =
      MakeGenerator(model::QuerySpec::DataDrivenPoint(), &centers);
  ASSERT_TRUE(dd_gen.ok());
  EXPECT_EQ((*dd_gen)->Next(rng).Center().x, 0.5);
  EXPECT_FALSE(MakeGenerator(model::QuerySpec::DataDrivenPoint()).ok());
}

// --------------------------------------------------------------------------
// MbrListSimulator on a handcrafted tree
// --------------------------------------------------------------------------

// Builds a tiny real tree with fanout 2 over four well-separated points so
// the traversal pattern is fully predictable:
//   leaves: L0 = {(.1,.1)}, L1 = {(.9,.1)}, ... actually 2 points per leaf.
struct TinyTree {
  MemPageStore store;
  std::unique_ptr<TreeSummary> summary;

  TinyTree() {
    std::vector<Rect> rects = {
        Rect::FromPoint({0.1, 0.1}), Rect::FromPoint({0.15, 0.15}),
        Rect::FromPoint({0.9, 0.9}), Rect::FromPoint({0.95, 0.95})};
    auto built = rtree::BuildRTree(&store, rtree::RTreeConfig::WithFanout(2),
                                   rects, rtree::LoadAlgorithm::kNearestX);
    EXPECT_TRUE(built.ok());
    auto s = TreeSummary::Extract(&store, built->root);
    EXPECT_TRUE(s.ok());
    summary = std::make_unique<TreeSummary>(*s);
  }
};

TEST(MbrListSimulatorTest, ColdQueryMissesWarmQueryHits) {
  TinyTree tiny;
  SimOptions options;
  options.buffer_pages = 10;  // Holds the whole 3-node tree.
  MbrListSimulator sim(tiny.summary.get(), options);
  Rect q = Rect::FromPoint({0.12, 0.12});
  uint64_t nodes = 0;
  uint64_t cold = sim.ExecuteQuery(q, &nodes);
  EXPECT_EQ(cold, 2u);  // Root + one leaf, both cold.
  EXPECT_EQ(nodes, 2u);
  uint64_t warm = sim.ExecuteQuery(q, nullptr);
  EXPECT_EQ(warm, 0u);
}

TEST(MbrListSimulatorTest, MissedQueryTouchesNothingByDefault) {
  TinyTree tiny;
  SimOptions options;
  options.buffer_pages = 10;
  MbrListSimulator sim(tiny.summary.get(), options);
  // Query in empty space: root MBR does not contain it.
  Rect q = Rect::FromPoint({0.5, 0.02});
  uint64_t nodes = 0;
  EXPECT_EQ(sim.ExecuteQuery(q, &nodes), 0u);
  EXPECT_EQ(nodes, 0u);

  SimOptions real;
  real.buffer_pages = 10;
  real.always_access_root = true;
  MbrListSimulator sim_real(tiny.summary.get(), real);
  nodes = 0;
  EXPECT_EQ(sim_real.ExecuteQuery(q, &nodes), 1u);  // Root read anyway.
  EXPECT_EQ(nodes, 1u);
}

TEST(MbrListSimulatorTest, LruEvictionWithTinyBuffer) {
  TinyTree tiny;
  SimOptions options;
  options.buffer_pages = 1;  // Root evicts leaf and vice versa.
  MbrListSimulator sim(tiny.summary.get(), options);
  Rect q = Rect::FromPoint({0.12, 0.12});
  EXPECT_EQ(sim.ExecuteQuery(q, nullptr), 2u);  // Both cold.
  // Buffer now holds only the leaf (last touched). Repeat: root misses,
  // evicts leaf; leaf misses again.
  EXPECT_EQ(sim.ExecuteQuery(q, nullptr), 2u);
}

TEST(MbrListSimulatorTest, ZeroBufferAllAccessesMiss) {
  TinyTree tiny;
  SimOptions options;
  options.buffer_pages = 0;
  MbrListSimulator sim(tiny.summary.get(), options);
  Rect q = Rect::FromPoint({0.12, 0.12});
  EXPECT_EQ(sim.ExecuteQuery(q, nullptr), 2u);
  EXPECT_EQ(sim.ExecuteQuery(q, nullptr), 2u);
}

TEST(MbrListSimulatorTest, PinnedRootNeverCostsDiskAccess) {
  TinyTree tiny;
  SimOptions options;
  options.buffer_pages = 2;
  options.pinned_levels = 1;
  MbrListSimulator sim(tiny.summary.get(), options);
  EXPECT_EQ(sim.pinned_pages(), 1u);
  Rect q = Rect::FromPoint({0.12, 0.12});
  EXPECT_EQ(sim.ExecuteQuery(q, nullptr), 1u);  // Only the leaf is cold.
  EXPECT_EQ(sim.ExecuteQuery(q, nullptr), 0u);
}

TEST(MbrListSimulatorTest, InfeasiblePinningReported) {
  TinyTree tiny;
  SimOptions options;
  options.buffer_pages = 1;
  options.pinned_levels = 2;  // Needs 3 pages.
  MbrListSimulator sim(tiny.summary.get(), options);
  UniformPointGenerator gen;
  Rng rng(433);
  auto result = sim.Run(&gen, &rng, 2, 10);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(MbrListSimulatorTest, RunProducesBatchStatistics) {
  Rng data_rng(439);
  MemPageStore store;
  auto rects = data::GenerateSyntheticRegion(2000, &data_rng);
  auto built = rtree::BuildRTree(&store, rtree::RTreeConfig::WithFanout(20),
                                 rects, rtree::LoadAlgorithm::kHilbertSort);
  ASSERT_TRUE(built.ok());
  auto summary = TreeSummary::Extract(&store, built->root);
  ASSERT_TRUE(summary.ok());
  SimOptions options;
  options.buffer_pages = 20;
  MbrListSimulator sim(&*summary, options);
  UniformPointGenerator gen;
  Rng rng(443);
  auto result = sim.Run(&gen, &rng, 10, 2000);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->queries_measured, 20000u);
  EXPECT_EQ(result->disk_access_batches.num_batches(), 10u);
  EXPECT_GT(result->mean_disk_accesses, 0.0);
  EXPECT_GE(result->mean_node_accesses, result->mean_disk_accesses);
  EXPECT_GT(result->warmup_used, 0u);
}

// --------------------------------------------------------------------------
// Simulator vs real execution
// --------------------------------------------------------------------------

class SimVsRealTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimVsRealTest, IdenticalDiskAccessCounts) {
  // The MBR-list simulator with always_access_root=true must agree *exactly*
  // with real R-tree execution through a real LRU buffer pool on the same
  // query stream. (Caveat: real recursion pins the root-to-leaf path, so
  // victim selection can differ from plain LRU when one query touches at
  // least as many pages as the pool holds — buffers here are sized above
  // the per-query working set.)
  const uint64_t buffer = GetParam();
  Rng data_rng(457);
  MemPageStore store;
  rtree::RTreeConfig config = rtree::RTreeConfig::WithFanout(16);
  auto rects = data::GenerateSyntheticRegion(3000, &data_rng);
  auto built = rtree::BuildRTree(&store, config, rects,
                                 rtree::LoadAlgorithm::kHilbertSort);
  ASSERT_TRUE(built.ok());
  auto summary = TreeSummary::Extract(&store, built->root);
  ASSERT_TRUE(summary.ok());
  store.ResetStats();

  // Pre-generate a fixed query stream so both sides see identical queries.
  std::vector<Rect> queries;
  Rng qrng(461);
  UniformRegionGenerator gen(0.02, 0.02);
  for (int i = 0; i < 4000; ++i) queries.push_back(gen.Next(qrng));

  SimOptions options;
  options.buffer_pages = buffer;
  options.always_access_root = true;
  MbrListSimulator sim(&*summary, options);
  uint64_t sim_accesses = 0;
  for (const Rect& q : queries) {
    sim_accesses += sim.ExecuteQuery(q, nullptr);
  }

  auto pool = storage::BufferPool::MakeLru(&store, buffer);
  auto tree = rtree::RTree::Open(pool.get(), config, built->root,
                                 built->height);
  ASSERT_TRUE(tree.ok());
  // Open() fetched the root; drop it so both sides start cold.
  ASSERT_TRUE(pool->EvictAll().ok());
  store.ResetStats();
  std::vector<rtree::ObjectId> sink;
  for (const Rect& q : queries) {
    sink.clear();
    ASSERT_TRUE(tree->Search(q, &sink).ok());
  }
  EXPECT_EQ(sim_accesses, store.stats().reads) << "buffer " << buffer;
}

INSTANTIATE_TEST_SUITE_P(Buffers, SimVsRealTest,
                         ::testing::Values(12, 25, 50, 200));

TEST(SimVsRealTest, TinyPoolStillExecutesQueries) {
  // A pool of exactly tree height frames is the minimum a recursive search
  // needs (the whole path stays pinned).
  Rng data_rng(457);
  MemPageStore store;
  rtree::RTreeConfig config = rtree::RTreeConfig::WithFanout(16);
  auto rects = data::GenerateSyntheticRegion(3000, &data_rng);
  auto built = rtree::BuildRTree(&store, config, rects,
                                 rtree::LoadAlgorithm::kHilbertSort);
  ASSERT_TRUE(built.ok());
  auto pool = storage::BufferPool::MakeLru(&store, built->height);
  auto tree = rtree::RTree::Open(pool.get(), config, built->root,
                                 built->height);
  ASSERT_TRUE(tree.ok());
  Rng qrng(461);
  UniformRegionGenerator gen(0.02, 0.02);
  std::vector<rtree::ObjectId> sink;
  for (int i = 0; i < 200; ++i) {
    sink.clear();
    ASSERT_TRUE(tree->Search(gen.Next(qrng), &sink).ok());
  }
}

TEST(SimVsRealTest, PinnedSimulatorMatchesPinnedPool) {
  // With the top levels pinned on both sides, simulator and real execution
  // must still agree exactly on disk accesses.
  Rng data_rng(467);
  MemPageStore store;
  rtree::RTreeConfig config = rtree::RTreeConfig::WithFanout(16);
  auto rects = data::GenerateSyntheticRegion(3000, &data_rng);
  auto built = rtree::BuildRTree(&store, config, rects,
                                 rtree::LoadAlgorithm::kHilbertSort);
  ASSERT_TRUE(built.ok());
  auto summary = TreeSummary::Extract(&store, built->root);
  ASSERT_TRUE(summary.ok());

  std::vector<Rect> queries;
  Rng qrng(479);
  UniformRegionGenerator gen(0.02, 0.02);
  for (int i = 0; i < 3000; ++i) queries.push_back(gen.Next(qrng));

  const uint64_t buffer = 40;
  const uint16_t pinned_levels = 2;

  SimOptions options;
  options.buffer_pages = buffer;
  options.pinned_levels = pinned_levels;
  options.always_access_root = true;
  MbrListSimulator sim(&*summary, options);
  uint64_t sim_accesses = 0;
  for (const Rect& q : queries) sim_accesses += sim.ExecuteQuery(q, nullptr);

  auto pool = storage::BufferPool::MakeLru(&store, buffer);
  ASSERT_TRUE(PinTopLevels(pool.get(), *summary, pinned_levels).ok());
  auto tree = rtree::RTree::Open(pool.get(), config, built->root,
                                 built->height);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(pool->EvictAll().ok());
  store.ResetStats();
  // Pinned pages were loaded before ResetStats, so they are free for the
  // pool exactly as they are for the simulator.
  std::vector<rtree::ObjectId> sink;
  for (const Rect& q : queries) {
    sink.clear();
    ASSERT_TRUE(tree->Search(q, &sink).ok());
  }
  EXPECT_EQ(sim_accesses, store.stats().reads);
}

TEST(RunnerTest, PinTopLevelsMakesThemFree) {
  Rng data_rng(463);
  MemPageStore store;
  rtree::RTreeConfig config = rtree::RTreeConfig::WithFanout(10);
  auto rects = data::GenerateUniformPoints(2000, &data_rng);
  auto built = rtree::BuildRTree(&store, config, rects,
                                 rtree::LoadAlgorithm::kHilbertSort);
  ASSERT_TRUE(built.ok());
  auto summary = TreeSummary::Extract(&store, built->root);
  ASSERT_TRUE(summary.ok());
  store.ResetStats();

  auto pool = storage::BufferPool::MakeLru(&store, 40);
  ASSERT_TRUE(PinTopLevels(pool.get(), *summary, 2).ok());
  EXPECT_EQ(pool->num_permanent_pins(), summary->PagesInTopLevels(2));

  auto tree = rtree::RTree::Open(pool.get(), config, built->root,
                                 built->height);
  ASSERT_TRUE(tree.ok());
  UniformPointGenerator gen;
  WorkloadOptions options;
  options.base_seed = 467;
  options.warmup = 500;
  options.queries = 500;
  auto result = RunWorkload(&*tree, &store, &gen, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->node_accesses, 0u);
  // With the top 2 levels pinned and a warm buffer, per-query disk
  // accesses should be modest (only leaf level misses).
  EXPECT_LT(result->MeanDiskAccesses(), result->MeanNodeAccesses());
}

TEST(RunnerTest, PinTooManyLevelsFails) {
  Rng data_rng(479);
  MemPageStore store;
  rtree::RTreeConfig config = rtree::RTreeConfig::WithFanout(10);
  auto rects = data::GenerateUniformPoints(2000, &data_rng);
  auto built = rtree::BuildRTree(&store, config, rects,
                                 rtree::LoadAlgorithm::kHilbertSort);
  ASSERT_TRUE(built.ok());
  auto summary = TreeSummary::Extract(&store, built->root);
  ASSERT_TRUE(summary.ok());
  auto pool = storage::BufferPool::MakeLru(&store, 4);
  Status s = PinTopLevels(pool.get(), *summary, summary->height());
  EXPECT_FALSE(s.ok());
}

}  // namespace
}  // namespace rtb::sim
