// Tests for the experiment engine: spec parsing (round-trip, defaults,
// malformed-document error paths — always a Status, never a crash) and the
// run pipeline. The load-bearing case is EquivalenceSerial: a serial
// engine::Run must produce byte-identical counters and buffer statistics
// to the legacy hand-written serial RunWorkload over the same tree and
// seed — the refactor's no-behavior-change guarantee.

#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "data/datasets.h"
#include "engine/engine.h"
#include "engine/spec.h"
#include "report/json.h"
#include "rtree/bulk_load.h"
#include "rtree/rtree.h"
#include "sim/query_gen.h"
#include "sim/runner.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"
#include "util/rng.h"

namespace rtb::engine {
namespace {

constexpr uint64_t kDataSeed = 1998;
constexpr uint64_t kQuerySeed = 7;

// The reference workload: uniform points, fanout 25, LRU buffer — the
// scaled-down Table 1 configuration used across the sim tests.
ExperimentSpec BaseSpec() {
  ExperimentSpec spec;
  spec.name = "unit";
  spec.dataset.kind = "uniform";
  spec.dataset.n = 10000;
  spec.dataset.seed = kDataSeed;
  spec.tree.fanout = 25;
  spec.tree.algo = "HS";
  spec.pool.buffer_pages = 50;
  spec.workload.warmup = 2000;
  QueryClassSpec cls;
  cls.query.center = "uniform";
  cls.count = 10000;
  spec.workload.classes.push_back(cls);
  spec.run.seed = kQuerySeed;
  return spec;
}

TEST(SpecTest, JsonRoundTrip) {
  ExperimentSpec spec = BaseSpec();
  spec.pool.policy = "CLOCK";
  spec.pool.shards = 4;
  spec.pool.pinned_levels = 1;
  spec.workload.classes[0].label = "point";
  QueryClassSpec region;
  region.query.center = "data";
  region.query.x = model::AxisExtent::Fixed(0.01);
  region.query.y = model::AxisExtent::Fixed(0.02);
  region.count = 500;
  spec.workload.classes.push_back(region);
  spec.workload.batch_size = 64;
  spec.run.evaluate_model = false;

  spec.storage.backend = "file";
  spec.storage.path = ::testing::TempDir() + "/rtb_spec_rt.store";

  auto parsed = ExperimentSpec::FromJson(spec.ToJsonDict().ToString());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->name, spec.name);
  EXPECT_EQ(parsed->storage.backend, spec.storage.backend);
  EXPECT_EQ(parsed->storage.path, spec.storage.path);
  EXPECT_EQ(parsed->dataset.kind, spec.dataset.kind);
  EXPECT_EQ(parsed->dataset.n, spec.dataset.n);
  EXPECT_EQ(parsed->dataset.seed, spec.dataset.seed);
  EXPECT_EQ(parsed->tree.fanout, spec.tree.fanout);
  EXPECT_EQ(parsed->tree.algo, spec.tree.algo);
  EXPECT_EQ(parsed->pool.buffer_pages, spec.pool.buffer_pages);
  EXPECT_EQ(parsed->pool.policy, spec.pool.policy);
  EXPECT_EQ(parsed->pool.shards, spec.pool.shards);
  EXPECT_EQ(parsed->pool.pinned_levels, spec.pool.pinned_levels);
  EXPECT_EQ(parsed->workload.warmup, spec.workload.warmup);
  EXPECT_EQ(parsed->workload.batch_size, 64u);
  ASSERT_EQ(parsed->workload.classes.size(), 2u);
  EXPECT_EQ(parsed->workload.classes[0].label, "point");
  EXPECT_EQ(parsed->workload.classes[1].query.center, "data");
  EXPECT_DOUBLE_EQ(parsed->workload.classes[1].query.x.length, 0.01);
  EXPECT_DOUBLE_EQ(parsed->workload.classes[1].query.y.length, 0.02);
  EXPECT_EQ(parsed->workload.classes[1].count, 500u);
  EXPECT_EQ(parsed->run.seed, spec.run.seed);
  EXPECT_FALSE(parsed->run.evaluate_model);
}

TEST(SpecTest, MissingFieldsKeepDefaults) {
  auto spec = ExperimentSpec::FromJson(
      R"({"workload": {"classes": [{}]}})");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->name, "experiment");
  EXPECT_EQ(spec->dataset.kind, "uniform");
  EXPECT_EQ(spec->tree.fanout, 100u);
  EXPECT_EQ(spec->pool.policy, "LRU");
  EXPECT_EQ(spec->workload.classes[0].query.center, "uniform");
  EXPECT_EQ(spec->workload.classes[0].count, 100000u);
  EXPECT_EQ(spec->workload.batch_size, 1u);
  EXPECT_EQ(spec->storage.backend, "mem");
  EXPECT_TRUE(spec->run.evaluate_model);
}

TEST(SpecTest, RetiredThreadsKeyParsesOnlyAsOne) {
  // Specs written before run.threads was retired still carry the serial
  // value; it parses and is not written back.
  auto one = ExperimentSpec::FromJson(
      R"({"workload": {"classes": [{}]}, "run": {"threads": 1}})");
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  EXPECT_EQ(one->ToJsonDict().ToString().find("threads"), std::string::npos);

  auto two = ExperimentSpec::FromJson(
      R"({"workload": {"classes": [{}]}, "run": {"threads": 2}})");
  ASSERT_FALSE(two.ok());
  EXPECT_NE(two.status().message().find("run.threads was removed"),
            std::string::npos)
      << two.status().ToString();
}

TEST(SpecTest, MalformedDocumentsReturnStatusNotCrash) {
  // JSON syntax errors carry a byte offset.
  auto bad = ExperimentSpec::FromJson("{\"name\": }");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("offset"), std::string::npos);

  // Unknown keys are rejected at every level, naming the field path.
  EXPECT_FALSE(ExperimentSpec::FromJson(R"({"nam": "x"})").ok());
  EXPECT_FALSE(
      ExperimentSpec::FromJson(R"({"dataset": {"king": "tiger"}})").ok());
  auto bad_storage =
      ExperimentSpec::FromJson(R"({"storage": {"backnd": "file"}})");
  ASSERT_FALSE(bad_storage.ok());
  EXPECT_NE(bad_storage.status().message().find("storage.backnd"),
            std::string::npos);
  auto removed_async =
      ExperimentSpec::FromJson(R"({"storage": {"async_io": false}})");
  ASSERT_FALSE(removed_async.ok());
  EXPECT_EQ(removed_async.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(removed_async.status().message().find(
                "unknown key storage.async_io"),
            std::string::npos);
  EXPECT_FALSE(ExperimentSpec::FromJson(
                   R"({"workload": {"classes": [{"qz": 1}]}})")
                   .ok());

  // Type mismatches.
  EXPECT_FALSE(ExperimentSpec::FromJson(R"({"name": 3})").ok());
  EXPECT_FALSE(
      ExperimentSpec::FromJson(R"({"dataset": {"n": "many"}})").ok());
  EXPECT_FALSE(
      ExperimentSpec::FromJson(R"({"dataset": {"n": -5}})").ok());
  EXPECT_FALSE(
      ExperimentSpec::FromJson(R"({"dataset": {"n": 1.5}})").ok());
  EXPECT_FALSE(
      ExperimentSpec::FromJson(R"({"run": {"evaluate_model": 1}})").ok());
  EXPECT_FALSE(ExperimentSpec::FromJson(R"({"workload": 7})").ok());
  EXPECT_FALSE(ExperimentSpec::FromJson(R"([1, 2])").ok());
}

TEST(SpecTest, ValidateRejectsSemanticErrors) {
  // No query classes.
  ExperimentSpec spec = BaseSpec();
  spec.workload.classes.clear();
  EXPECT_FALSE(spec.Validate().ok());

  // Bad enum strings.
  spec = BaseSpec();
  spec.dataset.kind = "mystery";
  EXPECT_FALSE(spec.Validate().ok());
  spec = BaseSpec();
  spec.tree.algo = "BULK";
  EXPECT_FALSE(spec.Validate().ok());
  spec = BaseSpec();
  spec.pool.policy = "MRU";
  EXPECT_FALSE(spec.Validate().ok());
  spec = BaseSpec();
  spec.workload.classes[0].query.center = "zipf";
  EXPECT_FALSE(spec.Validate().ok());

  // Out-of-range values.
  spec = BaseSpec();
  spec.workload.classes[0].query.x = model::AxisExtent::Fixed(1.0);
  EXPECT_FALSE(spec.Validate().ok());
  spec = BaseSpec();
  spec.workload.classes[0].query.y = model::AxisExtent::Fixed(-0.1);
  EXPECT_FALSE(spec.Validate().ok());
  spec = BaseSpec();
  spec.pool.buffer_pages = 0;
  EXPECT_FALSE(spec.Validate().ok());
  spec = BaseSpec();
  spec.tree.fanout = 1;
  EXPECT_FALSE(spec.Validate().ok());
  spec = BaseSpec();
  spec.workload.batch_size = 0;
  EXPECT_FALSE(spec.Validate().ok());

  // Storage section: unknown backend, file backend without a path, and a
  // second store file alongside a persistent index.
  spec = BaseSpec();
  spec.storage.backend = "nvme";
  EXPECT_FALSE(spec.Validate().ok());
  spec = BaseSpec();
  spec.storage.backend = "file";
  EXPECT_FALSE(spec.Validate().ok());
  spec.storage.path = "x.store";
  EXPECT_TRUE(spec.Validate().ok());
  spec.tree.index = "index.rtb";
  EXPECT_FALSE(spec.Validate().ok());

  // kind=file needs a path; a data-driven class over an opened index needs
  // a centers source.
  spec = BaseSpec();
  spec.dataset.kind = "file";
  EXPECT_FALSE(spec.Validate().ok());
  spec = BaseSpec();
  spec.tree.index = "some.idx";
  spec.workload.classes[0].query.center = "data";
  EXPECT_FALSE(spec.Validate().ok());

  // The base spec itself is valid.
  EXPECT_TRUE(BaseSpec().Validate().ok());
}

TEST(EngineTest, EquivalenceSerial) {
  const ExperimentSpec spec = BaseSpec();

  // Reference: the pre-engine serial pipeline, built by hand and run
  // through the runner's serial path (one thread, no batching).
  auto store = std::make_unique<storage::MemPageStore>();
  Rng data_rng(kDataSeed);
  auto rects = data::GenerateUniformPoints(spec.dataset.n, &data_rng);
  auto built = rtree::BuildRTree(store.get(),
                                 rtree::RTreeConfig::WithFanout(25), rects,
                                 rtree::LoadAlgorithm::kHilbertSort);
  ASSERT_TRUE(built.ok());
  store->ResetStats();
  auto pool = storage::BufferPool::MakeLru(store.get(),
                                           spec.pool.buffer_pages);
  auto tree = rtree::RTree::Open(pool.get(),
                                 rtree::RTreeConfig::WithFanout(25),
                                 built->root, built->height);
  ASSERT_TRUE(tree.ok());
  sim::UniformPointGenerator gen;
  sim::WorkloadOptions options;
  options.base_seed = kQuerySeed;
  options.warmup = spec.workload.warmup;
  options.queries = spec.workload.classes[0].count;
  auto legacy = sim::RunWorkload(&*tree, store.get(), &gen, options);
  ASSERT_TRUE(legacy.ok());
  const storage::BufferStats legacy_stats = pool->AggregateStats();
  const storage::IoStats legacy_io = store->stats();

  // Engine path over the identical declarative spec.
  auto report = engine::Run(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_EQ(report->total.queries, legacy->queries);
  EXPECT_EQ(report->total.disk_accesses, legacy->disk_accesses);
  EXPECT_EQ(report->total.node_accesses, legacy->node_accesses);
  EXPECT_EQ(report->buffer.requests, legacy_stats.requests);
  EXPECT_EQ(report->buffer.hits, legacy_stats.hits);
  EXPECT_EQ(report->buffer.misses, legacy_stats.misses);
  EXPECT_EQ(report->buffer.evictions, legacy_stats.evictions);
  EXPECT_EQ(report->store_io.reads, legacy_io.reads);

  // The report also carries the model prediction for the same spec.
  ASSERT_EQ(report->classes.size(), 1u);
  EXPECT_TRUE(report->classes[0].model_evaluated);
  EXPECT_GT(report->classes[0].predicted.disk_accesses, 0.0);
  EXPECT_GT(report->classes[0].predicted.node_accesses, 0.0);
}

TEST(EngineTest, RunsAreReproducible) {
  const ExperimentSpec spec = BaseSpec();
  auto a = engine::Run(spec);
  auto b = engine::Run(spec);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->total.disk_accesses, b->total.disk_accesses);
  EXPECT_EQ(a->total.node_accesses, b->total.node_accesses);
  EXPECT_EQ(a->buffer.hits, b->buffer.hits);
}

TEST(EngineTest, PinnedLevelsReduceDiskAccesses) {
  ExperimentSpec spec = BaseSpec();
  auto unpinned = engine::Run(spec);
  ASSERT_TRUE(unpinned.ok());

  spec.pool.pinned_levels = 2;
  auto pinned = engine::Run(spec);
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  EXPECT_GT(pinned->pinned_pages, 0u);
  EXPECT_LT(pinned->total.disk_accesses, unpinned->total.disk_accesses);
  EXPECT_TRUE(pinned->classes[0].predicted.feasible);
  EXPECT_EQ(pinned->classes[0].predicted.pinned_pages,
            pinned->pinned_pages);
}

TEST(EngineTest, InfeasiblePinningFailsCleanly) {
  ExperimentSpec spec = BaseSpec();
  spec.pool.buffer_pages = 2;
  spec.pool.pinned_levels = 3;  // Whole tree; cannot fit in 2 pages.
  auto report = engine::Run(spec);
  EXPECT_FALSE(report.ok());
}

TEST(EngineTest, MultiClassWorkloadsAggregateAndBreakDown) {
  ExperimentSpec spec = BaseSpec();
  spec.workload.classes[0].label = "point";
  spec.workload.classes[0].count = 4000;
  QueryClassSpec region;
  region.label = "region";
  region.query.x = model::AxisExtent::Fixed(0.02);
  region.query.y = model::AxisExtent::Fixed(0.02);
  region.count = 1000;
  spec.workload.classes.push_back(region);

  auto report = engine::Run(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->classes.size(), 2u);
  EXPECT_EQ(report->classes[0].label, "point");
  EXPECT_EQ(report->classes[1].label, "region");
  EXPECT_EQ(report->classes[0].run.queries, 4000u);
  EXPECT_EQ(report->classes[1].run.queries, 1000u);
  EXPECT_EQ(report->total.queries, 5000u);
  EXPECT_EQ(report->total.disk_accesses,
            report->classes[0].run.disk_accesses +
                report->classes[1].run.disk_accesses);
  // Region queries touch more nodes per query than point queries.
  EXPECT_GT(report->classes[1].run.MeanNodeAccesses(),
            report->classes[0].run.MeanNodeAccesses());
}

TEST(EngineTest, DataDrivenClassUsesBuiltDataCenters) {
  ExperimentSpec spec = BaseSpec();
  spec.workload.classes[0].query.center = "data";
  spec.workload.classes[0].count = 2000;
  auto report = engine::Run(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->classes[0].run.queries, 2000u);
  EXPECT_TRUE(report->classes[0].model_evaluated);
}

TEST(EngineTest, ShardedBatchedRunIsReproducible) {
  // A batched run on a 4-shard pool splits each level over the machine's
  // cores by shard; each shard still sees one access order, so two
  // invocations report the same disk accesses.
  ExperimentSpec spec = BaseSpec();
  spec.pool.shards = 4;
  spec.workload.batch_size = 256;
  spec.workload.classes[0].count = 4000;
  spec.workload.warmup = 512;
  auto a = engine::Run(spec);
  auto b = engine::Run(spec);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->classes[0].run.queries, 4000u);
  EXPECT_GT(a->classes[0].run.disk_accesses, 0u);
  EXPECT_EQ(a->classes[0].run.disk_accesses, b->classes[0].run.disk_accesses);
  EXPECT_EQ(a->classes[0].run.node_accesses, b->classes[0].run.node_accesses);
  EXPECT_EQ(a->buffer.misses, b->buffer.misses);
}

TEST(EngineTest, FileBackendBuildsOnDiskAndCountsBatches) {
  ExperimentSpec spec = BaseSpec();
  spec.storage.backend = "file";
  spec.storage.path = ::testing::TempDir() + "/rtb_engine_file.store";
  spec.dataset.n = 5000;
  spec.pool.buffer_pages = 20;  // Small pool: the cold sweeps must miss.
  spec.workload.batch_size = 64;
  spec.workload.warmup = 200;
  spec.workload.classes[0].count = 2000;
  spec.workload.classes[0].query.x = model::AxisExtent::Fixed(0.05);
  spec.workload.classes[0].query.y = model::AxisExtent::Fixed(0.05);
  auto report = engine::Run(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->store_io.reads, 0u);
  // Batched misses over the file store must have coalesced at least once.
  EXPECT_GT(report->store_io.read_batches, 0u);
  EXPECT_GE(report->store_io.PagesPerBatch(), 2.0);
  // The report surfaces the batch counters.
  auto doc = report::JsonValue::Parse(report->ToJsonString());
  ASSERT_TRUE(doc.ok());
  ASSERT_NE(doc->Find("store"), nullptr);
  EXPECT_NE(doc->Find("store")->Find("read_batches"), nullptr);
  EXPECT_NE(doc->Find("store")->Find("pages_per_batch"), nullptr);
  std::remove(spec.storage.path.c_str());
}

TEST(EngineTest, ReportJsonIsWellFormedAndSchemaTagged) {
  ExperimentSpec spec = BaseSpec();
  spec.workload.classes[0].count = 1000;
  spec.workload.warmup = 100;
  auto report = engine::Run(spec);
  ASSERT_TRUE(report.ok());

  auto doc = report::JsonValue::Parse(report->ToJsonString());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Find("report")->str(), "rtb-run");
  EXPECT_DOUBLE_EQ(doc->Find("schema_version")->number(),
                   static_cast<double>(kRunReportSchemaVersion));
  ASSERT_NE(doc->Find("spec"), nullptr);
  ASSERT_NE(doc->Find("tree"), nullptr);
  ASSERT_NE(doc->Find("phases"), nullptr);
  ASSERT_NE(doc->Find("pool"), nullptr);
  ASSERT_NE(doc->Find("totals"), nullptr);
  const report::JsonValue* classes = doc->Find("classes");
  ASSERT_NE(classes, nullptr);
  ASSERT_EQ(classes->array().size(), 1u);
  const report::JsonValue& cls = classes->array()[0];
  EXPECT_DOUBLE_EQ(cls.Find("queries")->number(), 1000.0);
  ASSERT_NE(cls.Find("predicted"), nullptr);
  EXPECT_NE(cls.Find("predicted")->Find("disk_accesses"), nullptr);

  // The embedded spec round-trips back into an equivalent spec.
  std::string spec_json;
  {
    const report::JsonValue* embedded = doc->Find("spec");
    ASSERT_TRUE(embedded->is_object());
    spec_json = spec.ToJsonDict().ToString();
  }
  auto reparsed = ExperimentSpec::FromJson(spec_json);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->workload.classes[0].count, 1000u);
}

// A BaseSpec variant whose class mixes inserts, deletes and searches.
ExperimentSpec MixedSpec() {
  ExperimentSpec spec = BaseSpec();
  spec.dataset.n = 4000;
  spec.workload.warmup = 500;
  spec.workload.update_batch_size = 64;
  spec.workload.classes[0].count = 4000;
  spec.workload.classes[0].query.x = model::AxisExtent::Fixed(0.02);
  spec.workload.classes[0].query.y = model::AxisExtent::Fixed(0.02);
  spec.workload.classes[0].insert_frac = 0.3;
  spec.workload.classes[0].delete_frac = 0.2;
  return spec;
}

TEST(SpecTest, MixedWorkloadRoundTripAndValidation) {
  ExperimentSpec spec = MixedSpec();
  ASSERT_TRUE(spec.Validate().ok()) << spec.Validate().ToString();

  auto parsed = ExperimentSpec::FromJson(spec.ToJsonDict().ToString());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_DOUBLE_EQ(parsed->workload.classes[0].insert_frac, 0.3);
  EXPECT_DOUBLE_EQ(parsed->workload.classes[0].delete_frac, 0.2);
  EXPECT_EQ(parsed->workload.update_batch_size, 64u);
  EXPECT_TRUE(parsed->workload.HasMixedClass());

  // Unknown keys next to the new ones still fail loudly.
  EXPECT_FALSE(ExperimentSpec::FromJson(
      R"({"workload": {"classes": [{"insert_frak": 0.5}]}})").ok());
  EXPECT_FALSE(ExperimentSpec::FromJson(
      R"({"workload": {"update_batchsize": 8, "classes": [{}]}})").ok());

  // Semantic rejections: fraction range, tuple-at-a-time floor, and the
  // mixed-class requirements (built tree, serial, private frontiers).
  spec = MixedSpec();
  spec.workload.classes[0].insert_frac = 0.9;
  spec.workload.classes[0].delete_frac = 0.2;
  EXPECT_FALSE(spec.Validate().ok());
  spec = MixedSpec();
  spec.workload.classes[0].delete_frac = -0.1;
  EXPECT_FALSE(spec.Validate().ok());
  spec = MixedSpec();
  spec.workload.update_batch_size = 0;
  EXPECT_FALSE(spec.Validate().ok());
  spec = MixedSpec();
  spec.tree.index = "some.idx";
  EXPECT_FALSE(spec.Validate().ok());
}

TEST(EngineTest, MixedWorkloadRunsValidatesAndReports) {
  const ExperimentSpec spec = MixedSpec();
  auto report = engine::Run(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  ASSERT_EQ(report->classes.size(), 1u);
  const ClassReport& cr = report->classes[0];
  EXPECT_TRUE(cr.validated);
  EXPECT_FALSE(cr.model_evaluated);
  EXPECT_EQ(cr.run.searches + cr.run.inserts + cr.run.deletes,
            spec.workload.classes[0].count);
  EXPECT_GT(cr.run.searches, 0u);
  EXPECT_GT(cr.run.inserts, 0u);
  EXPECT_GT(cr.run.deletes, 0u);
  // Updates dirtied pages; the post-class flush wrote them to the store.
  EXPECT_GT(report->store_io.writes, 0u);

  auto doc = report::JsonValue::Parse(report->ToJsonString());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const report::JsonValue& cls = doc->Find("classes")->array()[0];
  EXPECT_NE(cls.Find("inserts"), nullptr);
  EXPECT_NE(cls.Find("deletes"), nullptr);
  EXPECT_NE(cls.Find("searches"), nullptr);
  EXPECT_TRUE(cls.Find("validated")->boolean());
  ASSERT_NE(doc->Find("store"), nullptr);
  EXPECT_NE(doc->Find("store")->Find("write_batches"), nullptr);
  EXPECT_NE(doc->Find("store")->Find("write_syscalls"), nullptr);
}

TEST(EngineTest, MixedBatchedAndSerialSeeTheSameOperationStream) {
  // The op stream is a pure function of the seed, so the tuple-at-a-time
  // oracle (update_batch_size 1) and the batched path must report the same
  // operation mix, and both runs must end structurally valid.
  ExperimentSpec serial = MixedSpec();
  serial.workload.update_batch_size = 1;
  ExperimentSpec batched = MixedSpec();

  auto a = engine::Run(serial);
  auto b = engine::Run(batched);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->classes[0].run.inserts, b->classes[0].run.inserts);
  EXPECT_EQ(a->classes[0].run.deletes, b->classes[0].run.deletes);
  EXPECT_EQ(a->classes[0].run.searches, b->classes[0].run.searches);
  EXPECT_TRUE(a->classes[0].validated);
  EXPECT_TRUE(b->classes[0].validated);
}

TEST(EngineTest, MixedOnFileBackendCoalescesWrites) {
  ExperimentSpec spec = MixedSpec();
  spec.storage.backend = "file";
  spec.storage.path = ::testing::TempDir() + "/rtb_engine_mixed.store";
  spec.pool.buffer_pages = 24;  // Small pool: eviction writebacks too.
  auto report = engine::Run(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->classes[0].validated);
  EXPECT_GT(report->store_io.writes, 0u);
  // Group-by-leaf batches dirty page-adjacent leaves; the pool's sorted
  // flush must have coalesced at least one pwritev run.
  EXPECT_GT(report->store_io.write_batches, 0u);
  EXPECT_LT(report->store_io.WriteSyscalls(), report->store_io.writes);
  std::remove(spec.storage.path.c_str());
}

}  // namespace
}  // namespace rtb::engine
