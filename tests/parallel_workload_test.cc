// Tests for the workload runner's worker count: one worker must be
// byte-identical to the serial stream, and a batched run on a sharded pool
// must report the same counters whatever its executor's worker count. The
// batch-256 cases split each level over helper threads, so they also serve
// as data-race probes under -DRTB_SANITIZE=thread.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
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

// A batch-256 run at `workers` on a fresh 4-shard, 50-frame LRU pool. At
// that batch size the leaf level has more than the executor's 32-run
// inline threshold, so workers > 1 really splits it over helper threads.
struct ShardedRun {
  WorkloadResult result;
  storage::BufferStats buffer;
};

ShardedRun RunSharded(Fixture& f, size_t workers, uint64_t queries) {
  auto pool = storage::ShardedBufferPool::MakeLru(f.store.get(), 50, 4);
  rtree::RTree tree = f.OpenTree(pool.get());
  UniformPointGenerator gen;
  WorkloadOptions options;
  options.base_seed = kSeed;
  options.warmup = kWarmup;
  options.queries = queries;
  options.batch_size = 256;
  options.workers = workers;
  auto r = RunWorkload(&tree, f.store.get(), &gen, options);
  EXPECT_TRUE(r.ok());
  f.store->ResetStats();
  return {std::move(*r), pool->AggregateStats()};
}

void ExpectSameCounters(const ShardedRun& a, const ShardedRun& b) {
  EXPECT_EQ(a.result.queries, b.result.queries);
  EXPECT_EQ(a.result.disk_accesses, b.result.disk_accesses);
  EXPECT_EQ(a.result.node_accesses, b.result.node_accesses);
  EXPECT_EQ(a.buffer.requests, b.buffer.requests);
  EXPECT_EQ(a.buffer.hits, b.buffer.hits);
  EXPECT_EQ(a.buffer.misses, b.buffer.misses);
  EXPECT_EQ(a.buffer.evictions, b.buffer.evictions);
  EXPECT_EQ(a.buffer.writebacks, b.buffer.writebacks);
  EXPECT_EQ(a.buffer.spare_frames, b.buffer.spare_frames);
}

TEST(ParallelWorkloadTest, OneWorkerIsByteIdenticalToSerialRunner) {
  Fixture f = Fixture::Make(10000, kSeed);
  UniformPointGenerator gen;

  // Serial reference: a plain query loop over Rng(kSeed).
  auto serial_pool = storage::BufferPool::MakeLru(f.store.get(), 50);
  rtree::RTree serial_tree = f.OpenTree(serial_pool.get());
  const WorkloadResult serial = SerialLoop(&serial_tree, f.store.get(), &gen);
  storage::BufferStats serial_stats = serial_pool->AggregateStats();
  f.store->ResetStats();

  // The runner, one worker, same pool type, same seed.
  auto pool = storage::BufferPool::MakeLru(f.store.get(), 50);
  rtree::RTree tree = f.OpenTree(pool.get());
  WorkloadOptions options;
  options.workers = 1;
  options.base_seed = kSeed;
  options.warmup = kWarmup;
  options.queries = kQueries;
  auto run = RunWorkload(&tree, f.store.get(), &gen, options);
  ASSERT_TRUE(run.ok());

  EXPECT_EQ(run->queries, serial.queries);
  EXPECT_EQ(run->disk_accesses, serial.disk_accesses);
  EXPECT_EQ(run->node_accesses, serial.node_accesses);
  // The buffer pool saw the identical reference stream.
  storage::BufferStats stats = pool->AggregateStats();
  EXPECT_EQ(stats.requests, serial_stats.requests);
  EXPECT_EQ(stats.hits, serial_stats.hits);
  EXPECT_EQ(stats.misses, serial_stats.misses);
}

TEST(ParallelWorkloadTest, OneWorkerOnSingleShardPoolMatchesSerial) {
  // One worker over a one-shard ShardedBufferPool also reproduces the
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
  options.workers = 1;
  options.base_seed = kSeed;
  options.warmup = kWarmup;
  options.queries = kQueries;
  auto run = RunWorkload(&tree, f.store.get(), &gen, options);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->queries, serial.queries);
  EXPECT_EQ(run->disk_accesses, serial.disk_accesses);
  EXPECT_EQ(run->node_accesses, serial.node_accesses);
}

TEST(ParallelWorkloadTest, RunsAreReproducibleAcrossInvocations) {
  // A batched run with 4 workers on a 4-shard pool is a pure function of
  // (tree, options): every shard is walked by one worker in one order, so
  // even the disk totals cannot depend on thread scheduling.
  Fixture f = Fixture::Make(10000, kSeed);
  const ShardedRun a = RunSharded(f, 4, kQueries);
  const ShardedRun b = RunSharded(f, 4, kQueries);
  EXPECT_EQ(a.result.queries, kQueries);
  EXPECT_GT(a.result.disk_accesses, 0u);
  ExpectSameCounters(a, b);
}

TEST(ParallelWorkloadTest, WorkerCountLeavesCountersUnchanged) {
  // Batch 256 on a 4-shard pool at 1, 2 and 4 workers: the worker count
  // changes wall time only, never a reported counter.
  Fixture f = Fixture::Make(10000, kSeed);
  const ShardedRun one = RunSharded(f, 1, kQueries);
  EXPECT_EQ(one.buffer.requests, one.buffer.hits + one.buffer.misses);
  for (size_t workers : {size_t{2}, size_t{4}}) {
    SCOPED_TRACE(workers);
    ExpectSameCounters(one, RunSharded(f, workers, kQueries));
  }
}

TEST(ParallelWorkloadTest, PinnedLevelsSurviveBatchedTraffic) {
  // PinTopLevels + a batched run split over 4 workers: the pinned root
  // must still be resident afterwards (the fig10/fig11 pinning
  // experiments depend on this invariant).
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
  options.base_seed = kSeed;
  options.warmup = 500;
  options.queries = 5000;
  options.batch_size = 256;
  options.workers = 4;
  auto r = RunWorkload(&tree, f.store.get(), &gen, options);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(pool->Contains(f.built.root));
  EXPECT_EQ(pool->num_permanent_pins(), 1u);
}

}  // namespace
}  // namespace rtb::sim
