// Tests for the unified query-class API (model/query_class.h): the
// partial-match oracle (an open-axis query equals the same query filtered
// post hoc on its fixed axis alone), thread-invariant generator streams
// (one shared generator + per-worker Rng substreams = byte-identical
// rectangles regardless of thread count), shared ownership of data
// centers (a generator must outlive the dataset that produced it),
// cluster/Zipf skew, the generator registry, spec JSON round-trips
// (old-style documents must re-emit byte-identically), and
// measured-vs-predicted validation for the open-axis Eq. 5-6 extension
// and the batched effective-hit-rate model.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/datasets.h"
#include "engine/engine.h"
#include "engine/spec.h"
#include "model/access_prob.h"
#include "model/cost_model.h"
#include "model/query_class.h"
#include "rtree/bulk_load.h"
#include "rtree/rtree.h"
#include "sim/query_gen.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"
#include "util/macros.h"
#include "util/rng.h"

namespace rtb {
namespace {

using geom::Point;
using geom::Rect;
using model::AxisExtent;
using model::QueryClass;
using rtree::ObjectId;

std::vector<ObjectId> Sorted(std::vector<ObjectId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// A bulk-loaded tree over uniform points with object ids 0..n-1.
struct TreeFixture {
  std::vector<Rect> rects;
  std::unique_ptr<storage::MemPageStore> store;
  std::unique_ptr<storage::BufferPool> pool;
  rtree::BuiltTree built;
  uint32_t fanout;

  TreeFixture(size_t n, uint32_t fanout, uint64_t seed) : fanout(fanout) {
    Rng rng(seed);
    rects = data::GenerateUniformPoints(n, &rng);
    store = std::make_unique<storage::MemPageStore>();
    auto b = rtree::BuildRTree(store.get(),
                               rtree::RTreeConfig::WithFanout(fanout), rects,
                               rtree::LoadAlgorithm::kHilbertSort);
    RTB_CHECK(b.ok());
    built = *b;
    pool = storage::BufferPool::MakeLru(store.get(), 64);
  }

  Result<rtree::RTree> Open() {
    return rtree::RTree::Open(pool.get(),
                              rtree::RTreeConfig::WithFanout(fanout),
                              built.root, built.height);
  }
};

// --------------------------------------------------------------------------
// Partial match: open-axis queries against the oracle
// --------------------------------------------------------------------------

// An open-axis search through the tree must return exactly the objects a
// full scan keeps when filtering on the fixed axis alone — the open axis
// never constrains, and the traversal must not lose entries on the
// [-inf, +inf] bounds.
TEST(PartialMatchTest, OracleEquivalence) {
  TreeFixture fx(3000, 25, 91);
  auto tree = fx.Open();
  ASSERT_TRUE(tree.ok());

  struct Case {
    QueryClass qc;
    bool x_fixed;  // Which axis constrains.
  };
  const Case cases[] = {{QueryClass::PartialMatchX(0.05), true},
                        {QueryClass::PartialMatchY(0.04), false}};
  for (const Case& c : cases) {
    auto gen = sim::MakeGenerator(c.qc);
    ASSERT_TRUE(gen.ok()) << gen.status().ToString();
    Rng rng(7);
    for (int i = 0; i < 200; ++i) {
      const Rect q = (*gen)->Next(rng);
      // The generated rectangle carries the open-axis encoding.
      if (c.x_fixed) {
        EXPECT_EQ(q.lo.y, -std::numeric_limits<double>::infinity());
        EXPECT_EQ(q.hi.y, std::numeric_limits<double>::infinity());
      } else {
        EXPECT_EQ(q.lo.x, -std::numeric_limits<double>::infinity());
        EXPECT_EQ(q.hi.x, std::numeric_limits<double>::infinity());
      }

      std::vector<ObjectId> got;
      ASSERT_TRUE(tree->Search(q, &got).ok());

      std::vector<ObjectId> expect;
      for (size_t id = 0; id < fx.rects.size(); ++id) {
        const Rect& r = fx.rects[id];
        const bool hit = c.x_fixed
                             ? (r.lo.x <= q.hi.x && r.hi.x >= q.lo.x)
                             : (r.lo.y <= q.hi.y && r.hi.y >= q.lo.y);
        if (hit) expect.push_back(id);
      }
      EXPECT_EQ(Sorted(std::move(got)), expect);
    }
  }
}

// --------------------------------------------------------------------------
// Determinism: one shared generator, per-worker Rng substreams
// --------------------------------------------------------------------------

// Generators are immutable after construction, so the stream worker w
// draws from Rng(seed + w) must be byte-identical whether the workers run
// serially or concurrently on one shared instance. This is the property
// that makes engine runs reproducible across thread counts.
TEST(WorkloadDeterminismTest, GeneratorStreamsAreThreadInvariant) {
  constexpr uint64_t kSeed = 400;
  constexpr int kWorkers = 4;
  constexpr int kDraws = 256;

  auto centers = std::make_shared<const std::vector<Point>>(
      std::vector<Point>{{0.1, 0.1}, {0.4, 0.6}, {0.8, 0.2}, {0.3, 0.9}});
  sim::GeneratorContext ctx;
  ctx.centers = centers;

  const QueryClass classes[] = {
      QueryClass::UniformRegion(0.02, 0.04),
      QueryClass::PartialMatchX(0.05),
      QueryClass::DataDrivenRegion(0.01, 0.03),
      QueryClass::Clustered(0.02, 0.02, {8, 0.03, 1.5, 11}),
  };
  for (const QueryClass& qc : classes) {
    auto gen = sim::MakeGenerator(qc, ctx);
    ASSERT_TRUE(gen.ok()) << gen.status().ToString();

    // Serial reference: worker w's substream, drawn on this thread.
    std::vector<std::vector<Rect>> expected(kWorkers);
    for (int w = 0; w < kWorkers; ++w) {
      Rng rng(kSeed + static_cast<uint64_t>(w));
      for (int i = 0; i < kDraws; ++i) expected[w].push_back((*gen)->Next(rng));
    }

    // The same substreams, drawn concurrently from the one shared instance.
    std::vector<std::vector<Rect>> got(kWorkers);
    std::vector<std::thread> threads;
    for (int w = 0; w < kWorkers; ++w) {
      threads.emplace_back([&, w] {
        Rng rng(kSeed + static_cast<uint64_t>(w));
        for (int i = 0; i < kDraws; ++i) got[w].push_back((*gen)->Next(rng));
      });
    }
    for (std::thread& t : threads) t.join();

    for (int w = 0; w < kWorkers; ++w) {
      ASSERT_EQ(got[w].size(), expected[w].size());
      EXPECT_EQ(std::memcmp(got[w].data(), expected[w].data(),
                            expected[w].size() * sizeof(Rect)),
                0)
          << "center=" << qc.center << " worker=" << w;
    }
  }
}

// A data-driven generator shares ownership of its center set: the
// generator must keep working after every other handle to the centers is
// gone (ASan turns a dangling read into a hard failure here).
TEST(WorkloadDeterminismTest, DataCentersOutliveTheirSource) {
  const std::vector<Point> originals = {{0.25, 0.25}, {0.75, 0.75}};
  std::unique_ptr<sim::QueryGenerator> gen;
  {
    sim::GeneratorContext ctx;
    ctx.centers = std::make_shared<const std::vector<Point>>(originals);
    auto made = sim::MakeGenerator(QueryClass::DataDrivenRegion(0.1, 0.1), ctx);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    gen = std::move(*made);
  }  // ctx (and the last external shared_ptr) destroyed here.

  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    const Point c = gen->Next(rng).Center();
    const bool at_known =
        std::any_of(originals.begin(), originals.end(), [&](const Point& p) {
          return std::abs(c.x - p.x) < 1e-12 && std::abs(c.y - p.y) < 1e-12;
        });
    EXPECT_TRUE(at_known);
  }
}

// --------------------------------------------------------------------------
// Cluster center source: Zipf weights and hotspot concentration
// --------------------------------------------------------------------------

TEST(ClusterWorkloadTest, ZipfWeightsNormalizeAndDecay) {
  const auto flat = model::ZipfWeights(4, 0.0);
  ASSERT_EQ(flat.size(), 4u);
  for (double w : flat) EXPECT_DOUBLE_EQ(w, 0.25);

  const auto skewed = model::ZipfWeights(8, 1.0);
  double sum = 0.0;
  for (size_t i = 0; i < skewed.size(); ++i) {
    sum += skewed[i];
    if (i > 0) {
      EXPECT_LT(skewed[i], skewed[i - 1]);
    }
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
  // w_i ∝ 1/(i+1): the first weight is twice the second.
  EXPECT_NEAR(skewed[0] / skewed[1], 2.0, 1e-12);
}

// With spread = 0 every query lands exactly on a hotspot, so empirical
// pick frequencies must match the Zipf weights — and the generator must
// agree with model::DeriveHotspots on where the hotspots are.
TEST(ClusterWorkloadTest, SkewConcentratesQueriesOnHotspots) {
  model::ClusterParams params{6, 0.0, 2.0, 5};
  const QueryClass qc = QueryClass::Clustered(0.0, 0.0, params);
  auto gen = sim::MakeGenerator(qc);
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();

  const std::vector<Point> hotspots = model::DeriveHotspots(params);
  const std::vector<double> weights =
      model::ZipfWeights(params.hotspots, params.skew);

  constexpr int kDraws = 40000;
  std::vector<int> hits(hotspots.size(), 0);
  Rng rng(23);
  for (int i = 0; i < kDraws; ++i) {
    const Point c = (*gen)->Next(rng).Center();
    bool matched = false;
    for (size_t h = 0; h < hotspots.size(); ++h) {
      if (std::abs(c.x - hotspots[h].x) < 1e-12 &&
          std::abs(c.y - hotspots[h].y) < 1e-12) {
        ++hits[h];
        matched = true;
        break;
      }
    }
    ASSERT_TRUE(matched) << "query center not on any derived hotspot";
  }
  for (size_t h = 0; h < hotspots.size(); ++h) {
    const double freq = static_cast<double>(hits[h]) / kDraws;
    EXPECT_NEAR(freq, weights[h], 0.01) << "hotspot " << h;
  }
}

// --------------------------------------------------------------------------
// Generator registry
// --------------------------------------------------------------------------

Result<std::unique_ptr<sim::QueryGenerator>> MakeAlwaysPoint(
    const QueryClass&, const sim::GeneratorContext&) {
  return {std::make_unique<sim::UniformPointGenerator>()};
}

TEST(GeneratorRegistryTest, CustomCenterSourcePlugsIn) {
  ASSERT_TRUE(sim::RegisterGenerator("always-point", &MakeAlwaysPoint).ok());
  EXPECT_TRUE(sim::HasGenerator("always-point"));
  EXPECT_FALSE(sim::GeneratorNeedsCenters("always-point"));

  QueryClass qc;
  qc.center = "always-point";
  auto gen = sim::MakeGenerator(qc);
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  Rng rng(3);
  EXPECT_EQ((*gen)->Next(rng).Area(), 0.0);

  // No analytic model registered for it: the engine skips prediction
  // instead of failing the run.
  EXPECT_FALSE(model::HasAnalyticModel("always-point"));

  // The builtins are present, need-centers is per-source, duplicates and
  // unknowns are errors.
  EXPECT_TRUE(sim::HasGenerator("uniform"));
  EXPECT_TRUE(sim::GeneratorNeedsCenters("data"));
  EXPECT_FALSE(sim::GeneratorNeedsCenters("cluster"));
  EXPECT_FALSE(sim::RegisterGenerator("uniform", &MakeAlwaysPoint).ok());
  EXPECT_FALSE(sim::HasGenerator("zipf"));
  QueryClass unknown;
  unknown.center = "zipf";
  EXPECT_FALSE(sim::MakeGenerator(unknown).ok());
}

// --------------------------------------------------------------------------
// Spec JSON: byte-identical round-trips, new keys, diagnostics
// --------------------------------------------------------------------------

// An old-style document (no open axes, no cluster keys) must reach a
// byte-identical fixed point after one parse+emit cycle: re-parsing the
// emitted form and emitting again changes nothing. This is what keeps
// committed specs and baselines stable across the query-class redesign.
TEST(WorkloadSpecTest, SpecJsonReachesByteIdenticalFixedPoint) {
  const char* docs[] = {
      R"({"name": "legacy", "dataset": {"kind": "uniform", "n": 2000},
          "tree": {"fanout": 25},
          "workload": {"classes": [
            {"label": "point", "model": "uniform", "count": 1000},
            {"label": "region", "model": "data",
             "qx": 0.01, "qy": 0.02, "count": 500}]}})",
      R"({"workload": {"classes": [
            {"model": "uniform", "qx": 0.01, "qy": "open"},
            {"model": "cluster", "qx": 0.02, "qy": 0.02, "hotspots": 4,
             "spread": 0.1, "skew": 1.5, "hotspot_seed": 9}]}})",
  };
  for (const char* doc : docs) {
    auto first = engine::ExperimentSpec::FromJson(doc);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    const std::string emitted = first->ToJsonDict().ToString();
    auto second = engine::ExperimentSpec::FromJson(emitted);
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    EXPECT_EQ(second->ToJsonDict().ToString(), emitted);
  }
}

TEST(WorkloadSpecTest, OpenAxisAndClusterKeysParse) {
  auto spec = engine::ExperimentSpec::FromJson(
      R"({"workload": {"classes": [
            {"model": "uniform", "qx": 0.05, "qy": "open", "count": 10},
            {"model": "cluster", "qx": 0.01, "qy": 0.01,
             "hotspots": 32, "spread": 0.02, "skew": 0.5,
             "hotspot_seed": 77, "count": 10}]}})");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const auto& classes = spec->workload.classes;
  ASSERT_EQ(classes.size(), 2u);
  EXPECT_EQ(classes[0].query.x, AxisExtent::Fixed(0.05));
  EXPECT_EQ(classes[0].query.y, AxisExtent::Open());
  EXPECT_EQ(classes[1].query.center, "cluster");
  EXPECT_EQ(classes[1].query.cluster.hotspots, 32u);
  EXPECT_DOUBLE_EQ(classes[1].query.cluster.spread, 0.02);
  EXPECT_DOUBLE_EQ(classes[1].query.cluster.skew, 0.5);
  EXPECT_EQ(classes[1].query.cluster.placement_seed, 77u);

  // Diagnostics keep their field paths.
  auto bad_extent = engine::ExperimentSpec::FromJson(
      R"({"workload": {"classes": [{"qx": "wide"}]}})");
  ASSERT_FALSE(bad_extent.ok());
  EXPECT_NE(bad_extent.status().message().find("qx"), std::string::npos);

  // Cluster keys demand the cluster center source.
  EXPECT_FALSE(engine::ExperimentSpec::FromJson(
                   R"({"workload": {"classes": [
                        {"model": "uniform", "hotspots": 4}]}})")
                   .ok());

  // Mixed update classes cannot have open axes.
  auto mixed_open = engine::ExperimentSpec::FromJson(
      R"({"workload": {"classes": [
            {"model": "uniform", "qx": 0.01, "qy": "open",
             "insert_frac": 0.2}]}})");
  EXPECT_FALSE(mixed_open.ok());
}

// --------------------------------------------------------------------------
// Measured vs predicted: the open-axis Eq. 5-6 extension
// --------------------------------------------------------------------------

// A partial-match class through the full engine: the extended model
// (open axis -> per-axis factor 1 in the node-access probabilities) must
// predict both bufferless node accesses and LRU disk accesses within the
// tolerance band EXPERIMENTS.md established for the closed-axis model.
TEST(PartialMatchModelTest, OpenAxisMeasuredVsPredicted) {
  engine::ExperimentSpec spec;
  spec.name = "partial_match_model";
  spec.dataset.kind = "uniform";
  spec.dataset.n = 20000;
  spec.dataset.seed = 3;
  spec.tree.fanout = 25;
  spec.pool.buffer_pages = 128;
  spec.workload.warmup = 2000;
  engine::QueryClassSpec cls;
  cls.query = QueryClass::PartialMatchX(0.01);
  cls.count = 10000;
  spec.workload.classes.push_back(cls);
  spec.run.seed = 7;

  auto report = engine::Run(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const engine::ClassReport& cr = report->classes[0];
  ASSERT_TRUE(cr.model_evaluated);

  const double measured_nodes = cr.run.MeanNodeAccesses();
  const double predicted_nodes = cr.predicted.node_accesses;
  ASSERT_GT(measured_nodes, 0.0);
  EXPECT_LT(std::abs(measured_nodes - predicted_nodes) / measured_nodes, 0.25)
      << "measured " << measured_nodes << " predicted " << predicted_nodes;

  const double measured_disk = cr.run.MeanDiskAccesses();
  const double predicted_disk = cr.predicted.disk_accesses;
  ASSERT_GT(measured_disk, 0.0);
  EXPECT_LT(std::abs(measured_disk - predicted_disk) / measured_disk, 0.25)
      << "measured " << measured_disk << " predicted " << predicted_disk;
}

// --------------------------------------------------------------------------
// The batched effective-hit-rate model
// --------------------------------------------------------------------------

TEST(BatchedModelTest, BatchProbabilitiesCollapseWithinBatch) {
  const std::vector<double> probs = {0.5, 0.1, 0.0, 1.0};
  const auto q1 = model::BatchAccessProbabilities(probs, 1);
  for (size_t j = 0; j < probs.size(); ++j) EXPECT_DOUBLE_EQ(q1[j], probs[j]);

  const auto q4 = model::BatchAccessProbabilities(probs, 4);
  EXPECT_NEAR(q4[0], 1.0 - std::pow(0.5, 4), 1e-12);
  EXPECT_NEAR(q4[1], 1.0 - std::pow(0.9, 4), 1e-12);
  EXPECT_DOUBLE_EQ(q4[2], 0.0);
  EXPECT_DOUBLE_EQ(q4[3], 1.0);

  // Per-query disk accesses shrink as the batch grows (within-batch
  // collapse): each distinct page is fetched once per batch.
  const auto d1 = model::ExpectedBatchedDiskAccesses(probs, 2, 1);
  const auto d16 = model::ExpectedBatchedDiskAccesses(probs, 2, 16);
  EXPECT_LE(d16.disk_accesses, d1.disk_accesses);
  EXPECT_GE(d16.effective_hit_rate, 0.0);
  EXPECT_LE(d16.effective_hit_rate, 1.0);
}

// The engine's batched prediction against a measured batched run: the
// within-batch collapse model must track the measured per-query disk
// accesses of the batched executor on a small pool.
TEST(BatchedModelTest, EffectiveHitRateMatchesMeasuredRun) {
  engine::ExperimentSpec spec;
  spec.name = "batched_model";
  spec.dataset.kind = "uniform";
  spec.dataset.n = 20000;
  spec.dataset.seed = 11;
  spec.tree.fanout = 50;
  spec.pool.buffer_pages = 64;
  spec.workload.warmup = 1000;
  spec.workload.batch_size = 16;
  engine::QueryClassSpec cls;
  cls.query = QueryClass::UniformRegion(0.01, 0.01);
  cls.count = 10000;
  spec.workload.classes.push_back(cls);
  spec.run.seed = 5;

  auto report = engine::Run(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const engine::ClassReport& cr = report->classes[0];
  ASSERT_TRUE(cr.model_evaluated);
  ASSERT_TRUE(cr.predicted.batched);

  const double measured_disk = cr.run.MeanDiskAccesses();
  const double predicted_disk = cr.predicted.batched_disk_accesses;
  ASSERT_GT(measured_disk, 0.0);
  EXPECT_LT(std::abs(measured_disk - predicted_disk) / measured_disk, 0.30)
      << "measured " << measured_disk << " predicted " << predicted_disk;

  // The serial (per-query) model must overestimate the batched run's disk
  // traffic — that gap is exactly what the batched model corrects.
  EXPECT_LT(predicted_disk, cr.predicted.disk_accesses);
  EXPECT_GT(cr.predicted.effective_hit_rate, 0.0);
  EXPECT_LE(cr.predicted.effective_hit_rate, 1.0);
}

}  // namespace
}  // namespace rtb
