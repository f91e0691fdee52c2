// Batched-vs-serial equivalence suite for rtree::BatchExecutor:
//
//   * property test — identical per-query result sets and identical summed
//     node-access counts across random workloads (point, region and empty
//     queries), random batch sizes, and pool capacities from one frame to
//     fully resident;
//   * batch_size=1 — the runner's batch_size=1 configuration is the serial
//     per-query loop itself: byte-identical BufferStats and WorkloadResult
//     counters against a hand-written reference of the historical path;
//   * multi-get — PageCache::FetchBatch pins in order, counts one request
//     per id, releases cleanly on error (no leaked pins, no shard-lock
//     deadlock), on both the serial and the sharded pool;
//   * threads>1 — a sharded-pool batched run is deterministic and keeps the
//     logical node-access count of its serial twin (TSan covers this test
//     via the concurrency label);
//   * workers>1 — one executor splitting each level by pool shard over 1, 2
//     or 4 threads returns the serial results and the same node accesses,
//     page visits and BufferStats for every worker count.

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/rtb.h"
#include "rtree/batch.h"

namespace rtb::rtree {
namespace {

using geom::Rect;
using storage::PageId;

Rect RandomRect(Rng& rng, double max_side) {
  const double x = rng.NextDouble() * (1.0 - max_side);
  const double y = rng.NextDouble() * (1.0 - max_side);
  return Rect(x, y, x + rng.NextDouble() * max_side,
              y + rng.NextDouble() * max_side);
}

struct TreeFixture {
  std::unique_ptr<storage::MemPageStore> store;
  BuiltTree built;
  uint32_t fanout;

  explicit TreeFixture(size_t points, uint32_t fanout, uint64_t seed = 11)
      : fanout(fanout) {
    Rng rng(seed);
    auto rects = data::GenerateUniformPoints(points, &rng);
    store = std::make_unique<storage::MemPageStore>();
    auto b = BuildRTree(store.get(), RTreeConfig::WithFanout(fanout), rects,
                        LoadAlgorithm::kHilbertSort);
    RTB_CHECK(b.ok());
    built = *b;
  }
};

// A mixed query stream: points, small regions, the occasional empty rect.
std::vector<Rect> MakeQueries(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Rect> queries;
  queries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (i % 11 == 10) {
      queries.push_back(Rect::Empty());
    } else if (i % 3 == 0) {
      queries.push_back(
          Rect::FromPoint({rng.NextDouble(), rng.NextDouble()}));
    } else {
      queries.push_back(RandomRect(rng, 0.07));
    }
  }
  return queries;
}

std::vector<ObjectId> Sorted(std::vector<ObjectId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// --------------------------------------------------------------------------
// Batched results and node accesses match the serial search (property test)
// --------------------------------------------------------------------------

void ExpectBatchEquivalence(TreeFixture& fx, size_t pool_pages,
                            size_t batch_size) {
  auto serial_pool = storage::BufferPool::MakeLru(fx.store.get(), pool_pages);
  auto batch_pool = storage::BufferPool::MakeLru(fx.store.get(), pool_pages);
  auto serial_tree =
      RTree::Open(serial_pool.get(), RTreeConfig::WithFanout(fx.fanout),
                  fx.built.root, fx.built.height);
  auto batch_tree =
      RTree::Open(batch_pool.get(), RTreeConfig::WithFanout(fx.fanout),
                  fx.built.root, fx.built.height);
  ASSERT_TRUE(serial_tree.ok());
  ASSERT_TRUE(batch_tree.ok());

  const std::vector<Rect> queries = MakeQueries(160, 500 + pool_pages);

  QueryStats serial_stats;
  std::vector<std::vector<ObjectId>> serial_results(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    ASSERT_TRUE(serial_tree->Search(queries[q], &serial_results[q],
                                    &serial_stats)
                    .ok());
  }

  BatchExecutor executor(&*batch_tree);
  BatchStats batch_stats;
  std::vector<std::vector<ObjectId>> batch_results;
  for (size_t off = 0; off < queries.size(); off += batch_size) {
    const size_t k = std::min(batch_size, queries.size() - off);
    std::vector<std::vector<ObjectId>> chunk;
    ASSERT_TRUE(executor
                    .Run(std::span<const Rect>(queries.data() + off, k),
                         &chunk, &batch_stats)
                    .ok());
    for (auto& r : chunk) batch_results.push_back(std::move(r));
  }

  ASSERT_EQ(batch_results.size(), serial_results.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    // Same id sets; emission order within a query is unspecified in the
    // batched path (pages are visited in page-id order, not preorder).
    EXPECT_EQ(Sorted(batch_results[q]), Sorted(serial_results[q]))
        << "pool " << pool_pages << " batch " << batch_size << " query "
        << q;
  }
  // Query q visits node n in either mode iff q intersects n's parent
  // entry, so the summed logical visit counts agree exactly.
  EXPECT_EQ(batch_stats.node_accesses, serial_stats.nodes_accessed);
  // Within a batch every distinct page is pinned once, so the batched side
  // can never issue more page requests than the serial side.
  EXPECT_LE(batch_pool->AggregateStats().requests,
            serial_pool->AggregateStats().requests);
}

TEST(BatchEquivalenceTest, ResidentPool) {
  TreeFixture fx(4000, 16);
  ExpectBatchEquivalence(fx, 4096, 64);
}

TEST(BatchEquivalenceTest, SmallPools) {
  TreeFixture fx(4000, 16);
  for (size_t pool_pages : {2u, 7u, 40u}) {
    for (size_t batch_size : {2u, 33u, 160u}) {
      ExpectBatchEquivalence(fx, pool_pages, batch_size);
    }
  }
}

TEST(BatchEquivalenceTest, OneFramePool) {
  // The degenerate pool: one frame, window degraded to a single page —
  // batching must still work (fetch-scan-release per page) and agree with
  // the serial search, exactly like the serial path's own 1-frame support.
  TreeFixture fx(3000, 10);
  ASSERT_GE(fx.built.height, 3);
  for (size_t batch_size : {2u, 64u}) {
    ExpectBatchEquivalence(fx, 1, batch_size);
  }
}

TEST(BatchEquivalenceTest, BatchOfOneAndEmptyBatch) {
  TreeFixture fx(2000, 16);
  auto pool = storage::BufferPool::MakeLru(fx.store.get(), 64);
  auto tree = RTree::Open(pool.get(), RTreeConfig::WithFanout(16),
                          fx.built.root, fx.built.height);
  ASSERT_TRUE(tree.ok());
  BatchExecutor executor(&*tree);

  std::vector<std::vector<ObjectId>> results;
  ASSERT_TRUE(executor.Run({}, &results).ok());
  EXPECT_TRUE(results.empty());

  const Rect query(0.2, 0.2, 0.4, 0.4);
  std::vector<ObjectId> serial;
  ASSERT_TRUE(tree->Search(query, &serial).ok());
  ASSERT_TRUE(executor.Run(std::span<const Rect>(&query, 1), &results).ok());
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(Sorted(results[0]), Sorted(serial));
}

// --------------------------------------------------------------------------
// batch_size=1 in the runner is the serial loop, byte for byte
// --------------------------------------------------------------------------

TEST(BatchRunnerTest, BatchSizeOneByteIdenticalToSerialRunner) {
  TreeFixture fx(5000, 32);
  constexpr uint64_t kSeed = 42, kWarmup = 300, kQueries = 700;

  // Reference: the historical serial loop, written out by hand. Worker 0
  // of the unified runner must execute this exact sequence.
  auto ref_pool = storage::BufferPool::MakeLru(fx.store.get(), 50);
  auto ref_tree = RTree::Open(ref_pool.get(), RTreeConfig::WithFanout(32),
                              fx.built.root, fx.built.height);
  ASSERT_TRUE(ref_tree.ok());
  sim::UniformRegionGenerator gen(0.05, 0.05);
  Rng ref_rng(kSeed + 0);  // Worker 0's substream.
  std::vector<ObjectId> sink;
  for (uint64_t i = 0; i < kWarmup; ++i) {
    sink.clear();
    ASSERT_TRUE(ref_tree->Search(gen.Next(ref_rng), &sink).ok());
  }
  const uint64_t ref_reads_before = fx.store->stats().reads;
  QueryStats ref_stats;
  for (uint64_t i = 0; i < kQueries; ++i) {
    sink.clear();
    ASSERT_TRUE(ref_tree->Search(gen.Next(ref_rng), &sink, &ref_stats).ok());
  }
  const uint64_t ref_disk = fx.store->stats().reads - ref_reads_before;
  const storage::BufferStats ref_buffer = ref_pool->AggregateStats();

  // Live: the unified runner with the default batch_size = 1.
  auto live_pool = storage::BufferPool::MakeLru(fx.store.get(), 50);
  auto live_tree = RTree::Open(live_pool.get(), RTreeConfig::WithFanout(32),
                               fx.built.root, fx.built.height);
  ASSERT_TRUE(live_tree.ok());
  sim::WorkloadOptions options;
  options.threads = 1;
  options.base_seed = kSeed;
  options.warmup = kWarmup;
  options.queries = kQueries;
  options.batch_size = 1;
  sim::UniformRegionGenerator live_gen(0.05, 0.05);
  auto result = sim::RunWorkload(&*live_tree, fx.store.get(), &live_gen,
                                 options);
  ASSERT_TRUE(result.ok());

  EXPECT_EQ(result->queries, kQueries);
  EXPECT_EQ(result->node_accesses, ref_stats.nodes_accessed);
  EXPECT_EQ(result->disk_accesses, ref_disk);

  const storage::BufferStats live_buffer = live_pool->AggregateStats();
  EXPECT_EQ(live_buffer.requests, ref_buffer.requests);
  EXPECT_EQ(live_buffer.hits, ref_buffer.hits);
  EXPECT_EQ(live_buffer.misses, ref_buffer.misses);
  EXPECT_EQ(live_buffer.evictions, ref_buffer.evictions);
  EXPECT_EQ(live_buffer.writebacks, ref_buffer.writebacks);
}

TEST(BatchRunnerTest, BatchedRunKeepsLogicalWorkAndResultsDeterministic) {
  TreeFixture fx(5000, 32);
  sim::WorkloadOptions options;
  options.threads = 1;
  options.base_seed = 7;
  options.warmup = 100;
  options.queries = 600;

  auto run = [&](uint64_t batch_size) {
    auto pool = storage::BufferPool::MakeLru(fx.store.get(), 60);
    auto tree = RTree::Open(pool.get(), RTreeConfig::WithFanout(32),
                            fx.built.root, fx.built.height);
    RTB_CHECK(tree.ok());
    sim::UniformRegionGenerator gen(0.04, 0.04);
    options.batch_size = batch_size;
    auto result = sim::RunWorkload(&*tree, fx.store.get(), &gen, options);
    RTB_CHECK(result.ok());
    return std::make_pair(*result, pool->AggregateStats());
  };

  const auto [serial, serial_buf] = run(1);
  for (uint64_t batch_size : {2u, 64u, 600u}) {
    const auto [batched, batched_buf] = run(batch_size);
    EXPECT_EQ(batched.queries, serial.queries) << batch_size;
    // Same query stream (generators draw per query, not per batch), same
    // logical node visits.
    EXPECT_EQ(batched.node_accesses, serial.node_accesses) << batch_size;
    // Coalescing strictly reduces page *requests*: a page shared by k
    // queries of a batch is requested once, not k times (the root alone
    // guarantees strictness at any batch_size >= 2).
    EXPECT_LT(batched_buf.requests, serial_buf.requests) << batch_size;
    // Disk *reads* are not point-wise comparable on a constrained pool —
    // reordering the accesses changes LRU's evictions — so only bound them
    // loosely at small batch sizes. Once a batch spans the whole workload,
    // within-batch dedup dominates any eviction jitter and reads must
    // strictly drop.
    EXPECT_LE(batched.disk_accesses,
              serial.disk_accesses + serial.disk_accesses / 4)
        << batch_size;
    if (batch_size >= options.queries) {
      EXPECT_LT(batched.disk_accesses, serial.disk_accesses) << batch_size;
    }
  }
}

// --------------------------------------------------------------------------
// FetchBatch (serial and sharded pools)
// --------------------------------------------------------------------------

TEST(FetchBatchTest, PinsInOrderAndCountsOneRequestPerId) {
  TreeFixture fx(1500, 16);
  auto pool = storage::BufferPool::MakeLru(fx.store.get(), 32);
  // Duplicate ids are allowed and each get an independent pin.
  const std::vector<PageId> ids = {fx.built.root, 0, 1, fx.built.root};
  pool->ResetStats();
  auto guards = pool->FetchBatch(ids.data(), ids.size());
  ASSERT_TRUE(guards.ok());
  ASSERT_EQ(guards->size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ((*guards)[i].page_id(), ids[i]);
    EXPECT_NE((*guards)[i].data(), nullptr);
  }
  const storage::BufferStats stats = pool->AggregateStats();
  EXPECT_EQ(stats.requests, ids.size());
  EXPECT_GE(stats.hits, 1u);  // The duplicated root is a hit at least once.
}

TEST(FetchBatchTest, ShardedPoolMatchesSerialPoolContents) {
  TreeFixture fx(1500, 16);
  auto sharded = storage::ShardedBufferPool::MakeLru(fx.store.get(), 32,
                                                     /*num_shards=*/4);
  // A run of consecutive ids spanning every shard, plus duplicates.
  std::vector<PageId> ids;
  for (PageId id = 0; id < 12; ++id) ids.push_back(id);
  ids.push_back(3);
  ids.push_back(3);
  auto guards = sharded->FetchBatch(ids.data(), ids.size());
  ASSERT_TRUE(guards.ok());
  ASSERT_EQ(guards->size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_EQ((*guards)[i].page_id(), ids[i]);
    // Same bytes the store holds (MemPageStore is the source of truth).
    std::vector<uint8_t> expected(sharded->page_size());
    ASSERT_TRUE(fx.store->Read(ids[i], expected.data()).ok());
    EXPECT_EQ(std::memcmp((*guards)[i].data(), expected.data(),
                          expected.size()),
              0)
        << "id " << ids[i];
  }
  EXPECT_EQ(sharded->AggregateStats().requests, ids.size());
}

TEST(FetchBatchTest, OverCapacityFailsWithoutLeakingPins) {
  TreeFixture fx(1500, 16);
  // Pool of two frames; a batch of three distinct pages cannot all be
  // pinned at once.
  auto pool = storage::BufferPool::MakeLru(fx.store.get(), 2);
  const std::vector<PageId> ids = {0, 1, 2};
  auto guards = pool->FetchBatch(ids.data(), ids.size());
  ASSERT_FALSE(guards.ok());
  // The partial pins were all released: single fetches work again.
  for (PageId id : ids) {
    EXPECT_TRUE(pool->Fetch(id).ok()) << id;
  }
}

TEST(FetchBatchTest, ShardedOverCapacityFailsWithoutDeadlockOrLeak) {
  TreeFixture fx(1500, 16);
  // One shard of two frames: the failing batch pins, fails, and must
  // release its partial pins after dropping the shard lock (a release
  // under the lock would self-deadlock).
  auto pool = storage::ShardedBufferPool::MakeLru(fx.store.get(), 2,
                                                  /*num_shards=*/1);
  const std::vector<PageId> ids = {0, 1, 2};
  auto guards = pool->FetchBatch(ids.data(), ids.size());
  ASSERT_FALSE(guards.ok());
  for (PageId id : ids) {
    EXPECT_TRUE(pool->Fetch(id).ok()) << id;
  }
}

// --------------------------------------------------------------------------
// Concurrent batched execution (sharded pool; run under TSan via the
// concurrency label)
// --------------------------------------------------------------------------

TEST(BatchConcurrencyTest, ThreadedBatchedRunIsDeterministic) {
  TreeFixture fx(4000, 32);
  auto run = [&](uint64_t batch_size) {
    auto pool = storage::ShardedBufferPool::MakeLru(fx.store.get(), 64,
                                                    /*num_shards=*/4);
    auto tree = RTree::Open(pool.get(), RTreeConfig::WithFanout(32),
                            fx.built.root, fx.built.height);
    RTB_CHECK(tree.ok());
    sim::UniformRegionGenerator gen(0.05, 0.05);
    sim::WorkloadOptions options;
    options.threads = 2;
    options.base_seed = 9;
    options.warmup = 50;
    options.queries = 400;
    options.batch_size = batch_size;
    auto result = sim::RunWorkload(&*tree, fx.store.get(), &gen, options);
    RTB_CHECK(result.ok());
    return *result;
  };

  const sim::WorkloadResult serial = run(1);
  const sim::WorkloadResult batched_a = run(32);
  const sim::WorkloadResult batched_b = run(32);
  EXPECT_EQ(batched_a.queries, serial.queries);
  // Logical node visits are a pure function of the query stream, so they
  // match the serial run and reproduce across identical batched runs.
  EXPECT_EQ(batched_a.node_accesses, serial.node_accesses);
  EXPECT_EQ(batched_a.node_accesses, batched_b.node_accesses);
  ASSERT_EQ(batched_a.per_worker.size(), 2u);
  for (size_t w = 0; w < 2; ++w) {
    EXPECT_EQ(batched_a.per_worker[w].queries,
              serial.per_worker[w].queries);
    EXPECT_EQ(batched_a.per_worker[w].node_accesses,
              serial.per_worker[w].node_accesses);
  }
}

// --------------------------------------------------------------------------
// Shard-split levels: one executor, 1/2/4 workers (run under TSan via the
// concurrency label)
// --------------------------------------------------------------------------

struct ShardedRun {
  std::vector<std::vector<ObjectId>> results;  // Sorted per query.
  BatchStats batch;
  storage::BufferStats buffer;
  size_t workers = 0;
};

// Runs `queries` in batches of `batch_size` through one executor with
// `workers` threads, over a fresh sharded pool of `capacity` frames and
// `shards` shards. `pin_levels` permanently pins the root (1) or the root
// and its children (2) first.
ShardedRun RunSharded(const TreeFixture& fx, size_t capacity, size_t shards,
                      int pin_levels, size_t workers,
                      const std::vector<Rect>& queries, size_t batch_size) {
  auto pool =
      storage::ShardedBufferPool::MakeLru(fx.store.get(), capacity, shards);
  RTB_CHECK(pool->num_shards() == shards);
  if (pin_levels > 0) {
    RTB_CHECK(pool->PinPermanently(fx.built.root).ok());
  }
  if (pin_levels > 1) {
    std::vector<uint8_t> page(fx.store->page_size());
    RTB_CHECK(fx.store->Read(fx.built.root, page.data()).ok());
    auto view = NodeView::Create(page.data(), page.size());
    RTB_CHECK(view.ok());
    for (uint16_t i = 0; i < view->count(); ++i) {
      RTB_CHECK(pool->PinPermanently(
                        static_cast<PageId>(view->id(i)))
                    .ok());
    }
  }
  pool->ResetStats();
  auto tree = RTree::Open(pool.get(), RTreeConfig::WithFanout(fx.fanout),
                          fx.built.root, fx.built.height);
  RTB_CHECK(tree.ok());

  ShardedRun run;
  BatchExecutor executor(&*tree, workers);
  run.workers = executor.workers();
  for (size_t off = 0; off < queries.size(); off += batch_size) {
    const size_t k = std::min(batch_size, queries.size() - off);
    std::vector<std::vector<ObjectId>> chunk;
    RTB_CHECK(executor
                  .Run(std::span<const Rect>(queries.data() + off, k), &chunk,
                       &run.batch)
                  .ok());
    for (auto& r : chunk) run.results.push_back(Sorted(std::move(r)));
  }
  run.buffer = pool->AggregateStats();
  return run;
}

TEST(BatchWorkersTest, ShardSplitLevelsMatchSerialAndKeepBufferStats) {
  TreeFixture fx(20000, 16);
  ASSERT_GE(fx.built.height, 4);
  const std::vector<Rect> queries = MakeQueries(600, 77);

  // The oracle: the serial search over a resident pool.
  auto serial_pool = storage::BufferPool::MakeLru(fx.store.get(), 1 << 14);
  auto serial_tree =
      RTree::Open(serial_pool.get(), RTreeConfig::WithFanout(fx.fanout),
                  fx.built.root, fx.built.height);
  ASSERT_TRUE(serial_tree.ok());
  QueryStats serial_stats;
  std::vector<std::vector<ObjectId>> serial(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    ASSERT_TRUE(
        serial_tree->Search(queries[q], &serial[q], &serial_stats).ok());
    serial[q] = Sorted(std::move(serial[q]));
  }

  struct Config {
    size_t capacity;
    size_t shards;
    int pin_levels;
  };
  const Config configs[] = {
      {64, 1, 0},    // One shard: the walk is the historical one.
      {64, 8, 0},    // 8-frame shards: windows of two pages.
      {128, 2, 0},
      {256, 4, 0},   // The serving default: 64 frames per shard.
      {256, 16, 0},
      {192, 4, 2},   // Root and its children pinned.
  };
  for (const Config& c : configs) {
    for (size_t batch_size : {size_t{37}, size_t{256}}) {
      SCOPED_TRACE(::testing::Message()
                   << c.capacity << " frames, " << c.shards << " shards, "
                   << c.pin_levels << " pinned levels, batch " << batch_size);
      const ShardedRun one =
          RunSharded(fx, c.capacity, c.shards, c.pin_levels, 1, queries,
                     batch_size);
      ASSERT_EQ(one.workers, 1u);
      ASSERT_EQ(one.results, serial);
      EXPECT_EQ(one.batch.node_accesses, serial_stats.nodes_accessed);
      EXPECT_GT(one.buffer.misses, 0u);
      for (size_t workers : {size_t{2}, size_t{4}}) {
        const ShardedRun many =
            RunSharded(fx, c.capacity, c.shards, c.pin_levels, workers,
                       queries, batch_size);
        EXPECT_EQ(many.workers, std::min(workers, c.shards));
        EXPECT_EQ(many.results, serial) << workers << " workers";
        EXPECT_EQ(many.batch.node_accesses, one.batch.node_accesses);
        EXPECT_EQ(many.batch.page_visits, one.batch.page_visits);
        EXPECT_EQ(many.buffer.requests, one.buffer.requests);
        EXPECT_EQ(many.buffer.hits, one.buffer.hits);
        EXPECT_EQ(many.buffer.misses, one.buffer.misses);
        EXPECT_EQ(many.buffer.evictions, one.buffer.evictions);
      }
    }
  }
}

TEST(BatchWorkersTest, OneShardPoolWalksLikeTheSerialPool) {
  // A one-shard pool sees the serial pool's access sequence: small levels
  // run in sweep order, and regrouping one shard keeps that order.
  TreeFixture fx(20000, 16);
  const std::vector<Rect> queries = MakeQueries(600, 78);
  for (size_t batch_size : {size_t{1}, size_t{37}, size_t{256}}) {
    SCOPED_TRACE(::testing::Message() << "batch " << batch_size);
    auto serial_pool = storage::BufferPool::MakeLru(fx.store.get(), 64);
    auto serial_tree =
        RTree::Open(serial_pool.get(), RTreeConfig::WithFanout(fx.fanout),
                    fx.built.root, fx.built.height);
    ASSERT_TRUE(serial_tree.ok());
    BatchExecutor executor(&*serial_tree);
    BatchStats serial_batch;
    std::vector<std::vector<ObjectId>> serial;
    for (size_t off = 0; off < queries.size(); off += batch_size) {
      const size_t k = std::min(batch_size, queries.size() - off);
      std::vector<std::vector<ObjectId>> chunk;
      ASSERT_TRUE(executor
                      .Run(std::span<const Rect>(queries.data() + off, k),
                           &chunk, &serial_batch)
                      .ok());
      for (auto& r : chunk) serial.push_back(Sorted(std::move(r)));
    }
    const storage::BufferStats serial_buffer =
        serial_pool->AggregateStats();

    const ShardedRun sharded = RunSharded(fx, 64, 1, 0, 1, queries,
                                          batch_size);
    EXPECT_EQ(sharded.results, serial);
    EXPECT_EQ(sharded.batch.page_visits, serial_batch.page_visits);
    EXPECT_EQ(sharded.buffer.requests, serial_buffer.requests);
    EXPECT_EQ(sharded.buffer.hits, serial_buffer.hits);
    EXPECT_EQ(sharded.buffer.misses, serial_buffer.misses);
    EXPECT_EQ(sharded.buffer.evictions, serial_buffer.evictions);
  }
}

TEST(BatchWorkersTest, SerialPoolRunsOnOneWorker) {
  // The serial pool has one shard and no locks: the executor keeps every
  // level on the calling thread whatever it is asked for.
  TreeFixture fx(2000, 16);
  auto pool = storage::BufferPool::MakeLru(fx.store.get(), 64);
  auto tree = RTree::Open(pool.get(), RTreeConfig::WithFanout(fx.fanout),
                          fx.built.root, fx.built.height);
  ASSERT_TRUE(tree.ok());
  BatchExecutor executor(&*tree, 4);
  EXPECT_EQ(executor.workers(), 1u);
}

}  // namespace
}  // namespace rtb::rtree
