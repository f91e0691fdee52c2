// Tests for the parallel path of the unified workload runner: threads == 1
// must be byte-identical to the serial stream, query slices must cover the
// stream exactly, and multi-threaded runs against a ShardedBufferPool must
// produce a balanced ledger. The multi-threaded cases also serve as
// data-race probes under -DRTB_SANITIZE=thread.

#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "data/datasets.h"
#include "rtree/bulk_load.h"
#include "rtree/rtree.h"
#include "sim/query_gen.h"
#include "sim/runner.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"
#include "storage/sharded_buffer_pool.h"
#include "util/rng.h"

namespace rtb::sim {
namespace {

// Table 1 configuration, scaled down: uniform points, fanout 25, uniform
// point queries.
struct Fixture {
  std::unique_ptr<storage::MemPageStore> store;
  rtree::BuiltTree built;

  static Fixture Make(size_t points, uint64_t seed) {
    Fixture f;
    f.store = std::make_unique<storage::MemPageStore>();
    Rng rng(seed);
    auto rects = data::GenerateUniformPoints(points, &rng);
    auto built = rtree::BuildRTree(f.store.get(),
                                   rtree::RTreeConfig::WithFanout(25), rects,
                                   rtree::LoadAlgorithm::kHilbertSort);
    EXPECT_TRUE(built.ok());
    f.built = *built;
    f.store->ResetStats();
    return f;
  }

  rtree::RTree OpenTree(storage::PageCache* pool) const {
    auto tree = rtree::RTree::Open(pool,
                                   rtree::RTreeConfig::WithFanout(25),
                                   built.root, built.height);
    EXPECT_TRUE(tree.ok());
    return std::move(*tree);
  }
};

constexpr uint64_t kSeed = 1998;
constexpr uint64_t kWarmup = 2000;
constexpr uint64_t kQueries = 10000;

// The paper's serial stream written out as a plain loop: Rng(kSeed) drives
// every query, warm-up first, then the measured queries.
WorkloadResult SerialLoop(rtree::RTree* tree, storage::PageStore* store,
                          QueryGenerator* gen) {
  Rng rng(kSeed);
  std::vector<rtree::ObjectId> sink;
  for (uint64_t i = 0; i < kWarmup; ++i) {
    sink.clear();
    EXPECT_TRUE(tree->Search(gen->Next(rng), &sink).ok());
  }
  const uint64_t reads_before = store->stats().reads;
  rtree::QueryStats stats;
  for (uint64_t i = 0; i < kQueries; ++i) {
    sink.clear();
    EXPECT_TRUE(tree->Search(gen->Next(rng), &sink, &stats).ok());
  }
  WorkloadResult r;
  r.queries = kQueries;
  r.node_accesses = stats.nodes_accessed;
  r.disk_accesses = store->stats().reads - reads_before;
  return r;
}

TEST(ParallelWorkloadTest, OneThreadIsByteIdenticalToSerialRunner) {
  Fixture f = Fixture::Make(10000, kSeed);
  UniformPointGenerator gen;

  // Serial reference: a plain query loop over Rng(kSeed).
  auto serial_pool = storage::BufferPool::MakeLru(f.store.get(), 50);
  rtree::RTree serial_tree = f.OpenTree(serial_pool.get());
  const WorkloadResult serial = SerialLoop(&serial_tree, f.store.get(), &gen);
  storage::BufferStats serial_stats = serial_pool->AggregateStats();
  f.store->ResetStats();

  // Parallel runner, one worker, same pool type, same seed.
  auto pool = storage::BufferPool::MakeLru(f.store.get(), 50);
  rtree::RTree tree = f.OpenTree(pool.get());
  WorkloadOptions options;
  options.threads = 1;
  options.base_seed = kSeed;
  options.warmup = kWarmup;
  options.queries = kQueries;
  auto parallel = RunWorkload(&tree, f.store.get(), &gen, options);
  ASSERT_TRUE(parallel.ok());

  EXPECT_EQ(parallel->queries, serial.queries);
  EXPECT_EQ(parallel->disk_accesses, serial.disk_accesses);
  EXPECT_EQ(parallel->node_accesses, serial.node_accesses);
  ASSERT_EQ(parallel->per_worker.size(), 1u);
  EXPECT_EQ(parallel->per_worker[0].node_accesses, serial.node_accesses);
  // The buffer pool saw the identical reference stream.
  storage::BufferStats stats = pool->AggregateStats();
  EXPECT_EQ(stats.requests, serial_stats.requests);
  EXPECT_EQ(stats.hits, serial_stats.hits);
  EXPECT_EQ(stats.misses, serial_stats.misses);
}

TEST(ParallelWorkloadTest, OneThreadOnSingleShardPoolMatchesSerial) {
  // threads == 1 over a one-shard ShardedBufferPool also reproduces the
  // serial counts: the shard is a mutex around the same BufferPool logic.
  Fixture f = Fixture::Make(10000, kSeed);
  UniformPointGenerator gen;

  auto serial_pool = storage::BufferPool::MakeLru(f.store.get(), 50);
  rtree::RTree serial_tree = f.OpenTree(serial_pool.get());
  const WorkloadResult serial = SerialLoop(&serial_tree, f.store.get(), &gen);
  f.store->ResetStats();

  auto pool = storage::ShardedBufferPool::MakeLru(f.store.get(), 50, 1);
  rtree::RTree tree = f.OpenTree(pool.get());
  WorkloadOptions options;
  options.threads = 1;
  options.base_seed = kSeed;
  options.warmup = kWarmup;
  options.queries = kQueries;
  auto parallel = RunWorkload(&tree, f.store.get(), &gen, options);
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(parallel->queries, serial.queries);
  EXPECT_EQ(parallel->disk_accesses, serial.disk_accesses);
  EXPECT_EQ(parallel->node_accesses, serial.node_accesses);
}

TEST(ParallelWorkloadTest, RunsAreReproducibleAcrossInvocations) {
  // A parallel run is a pure function of (tree, options): per-worker
  // counters must be identical run-to-run even with 4 workers racing on the
  // shared pool (disk totals can differ only through scheduling-dependent
  // cache interleaving — per-worker node counts cannot).
  Fixture f = Fixture::Make(10000, kSeed);
  UniformPointGenerator gen;
  auto run_once = [&f, &gen] {
    auto pool = storage::ShardedBufferPool::MakeLru(f.store.get(), 50, 4);
    rtree::RTree tree = f.OpenTree(pool.get());
    WorkloadOptions options;
    options.threads = 4;
    options.base_seed = kSeed;
    options.warmup = kWarmup;
    options.queries = kQueries;
    auto r = RunWorkload(&tree, f.store.get(), &gen, options);
    EXPECT_TRUE(r.ok());
    f.store->ResetStats();
    return std::move(*r);
  };
  WorkloadResult a = run_once();
  WorkloadResult b = run_once();
  ASSERT_EQ(a.per_worker.size(), 4u);
  ASSERT_EQ(b.per_worker.size(), 4u);
  for (size_t w = 0; w < 4; ++w) {
    EXPECT_EQ(a.per_worker[w].queries, b.per_worker[w].queries) << w;
    EXPECT_EQ(a.per_worker[w].node_accesses, b.per_worker[w].node_accesses)
        << w;
  }
  EXPECT_EQ(a.queries, kQueries);
  EXPECT_EQ(a.node_accesses, b.node_accesses);
}

TEST(ParallelWorkloadTest, QuerySlicesCoverStreamExactly) {
  // Uneven splits: 10 queries over 4 workers -> slices 3,3,2,2.
  Fixture f = Fixture::Make(2000, kSeed);
  UniformPointGenerator gen;
  auto pool = storage::ShardedBufferPool::MakeLru(f.store.get(), 20, 4);
  rtree::RTree tree = f.OpenTree(pool.get());
  WorkloadOptions options;
  options.threads = 4;
  options.base_seed = kSeed;
  options.warmup = 3;
  options.queries = 10;
  auto r = RunWorkload(&tree, f.store.get(), &gen, options);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->per_worker.size(), 4u);
  EXPECT_EQ(r->per_worker[0].queries, 3u);
  EXPECT_EQ(r->per_worker[1].queries, 3u);
  EXPECT_EQ(r->per_worker[2].queries, 2u);
  EXPECT_EQ(r->per_worker[3].queries, 2u);
  EXPECT_EQ(r->queries, 10u);
}

TEST(ParallelWorkloadTest, MultiThreadLedgerBalances) {
  Fixture f = Fixture::Make(10000, kSeed);
  UniformPointGenerator gen;
  auto pool = storage::ShardedBufferPool::MakeLru(f.store.get(), 50, 8);
  rtree::RTree tree = f.OpenTree(pool.get());
  WorkloadOptions options;
  options.threads = 8;
  options.base_seed = kSeed;
  options.warmup = kWarmup;
  options.queries = kQueries;
  auto r = RunWorkload(&tree, f.store.get(), &gen, options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->queries, kQueries);
  EXPECT_GT(r->node_accesses, 0u);
  // Merged pool counters balance, and every miss is a store read (warm-up
  // included on both sides of the equation).
  storage::BufferStats stats = pool->AggregateStats();
  EXPECT_EQ(stats.requests, stats.hits + stats.misses);
  EXPECT_EQ(stats.misses, f.store->stats().reads);
  // Reduced totals equal the per-worker sums.
  uint64_t queries = 0, nodes = 0;
  for (const WorkerResult& w : r->per_worker) {
    queries += w.queries;
    nodes += w.node_accesses;
  }
  EXPECT_EQ(queries, r->queries);
  EXPECT_EQ(nodes, r->node_accesses);
}

TEST(ParallelWorkloadTest, PinnedLevelsSurviveParallelTraffic) {
  // PinTopLevels + parallel queries: the pinned root region must still be
  // resident after a contended run (the fig10/fig11 pinning experiments
  // depend on this invariant).
  Fixture f = Fixture::Make(10000, kSeed);
  auto pool = storage::ShardedBufferPool::MakeLru(f.store.get(), 50, 4);
  rtree::RTree tree = f.OpenTree(pool.get());
  auto summary = rtree::TreeSummary::Extract(f.store.get(), f.built.root);
  ASSERT_TRUE(summary.ok());
  ASSERT_TRUE(PinTopLevels(pool.get(), *summary, 1).ok());
  ASSERT_EQ(pool->num_permanent_pins(), 1u);
  f.store->ResetStats();

  UniformPointGenerator gen;
  WorkloadOptions options;
  options.threads = 4;
  options.base_seed = kSeed;
  options.warmup = 500;
  options.queries = 5000;
  auto r = RunWorkload(&tree, f.store.get(), &gen, options);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(pool->Contains(f.built.root));
  EXPECT_EQ(pool->num_permanent_pins(), 1u);
}

TEST(ParallelWorkloadTest, RejectsZeroThreads) {
  Fixture f = Fixture::Make(2000, kSeed);
  auto pool = storage::ShardedBufferPool::MakeLru(f.store.get(), 20, 2);
  rtree::RTree tree = f.OpenTree(pool.get());
  UniformPointGenerator gen;
  WorkloadOptions options;
  options.threads = 0;
  options.queries = 10;
  auto r = RunWorkload(&tree, f.store.get(), &gen, options);
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace rtb::sim
