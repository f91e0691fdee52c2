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
//   * runner workers — a batch-256 runner pass split over 4 workers on a
//     sharded pool is deterministic down to its disk accesses and keeps the
//     logical node-access count of its serial twin (TSan covers this test
//     via the concurrency label);
//   * workers>1 — one executor splitting each level by pool shard over 1, 2
//     or 4 threads returns the serial results and the same node accesses,
//     page visits and BufferStats for every worker count, also when one
//     shard holds most of a level's runs;
//   * kNN — kNNs riding the level pass beside region queries return
//     SearchKnn's distances (k 1-64 and k > n; points inside the data,
//     outside it and on leaf MBR edges; objects exactly at the radius; the
//     empty tree), with identical BufferStats at 1, 2 and 4 workers.

#include <algorithm>
#include <cmath>
#include <limits>
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

  TreeFixture(const std::vector<Rect>& rects, uint32_t fanout)
      : store(std::make_unique<storage::MemPageStore>()), fanout(fanout) {
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
  Rng ref_rng(kSeed);
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

TEST(BatchConcurrencyTest, ShardSplitBatchedRunIsDeterministic) {
  TreeFixture fx(4000, 32);
  auto run = [&](uint64_t batch_size) {
    auto pool = storage::ShardedBufferPool::MakeLru(fx.store.get(), 64,
                                                    /*num_shards=*/4);
    auto tree = RTree::Open(pool.get(), RTreeConfig::WithFanout(32),
                            fx.built.root, fx.built.height);
    RTB_CHECK(tree.ok());
    sim::UniformRegionGenerator gen(0.05, 0.05);
    sim::WorkloadOptions options;
    options.base_seed = 9;
    options.warmup = 50;
    options.queries = 400;
    options.batch_size = batch_size;
    options.workers = 4;
    auto result = sim::RunWorkload(&*tree, fx.store.get(), &gen, options);
    RTB_CHECK(result.ok());
    return std::make_pair(*result, pool->AggregateStats());
  };

  const auto [serial, serial_buffer] = run(1);
  const auto [batched_a, buffer_a] = run(256);
  const auto [batched_b, buffer_b] = run(256);
  EXPECT_EQ(batched_a.queries, serial.queries);
  // Logical node visits are a pure function of the query stream, so they
  // match the serial run; each shard is walked by one worker in one order,
  // so identical batched runs also agree on every pool counter.
  EXPECT_EQ(batched_a.node_accesses, serial.node_accesses);
  EXPECT_EQ(batched_a.node_accesses, batched_b.node_accesses);
  EXPECT_EQ(batched_a.disk_accesses, batched_b.disk_accesses);
  EXPECT_EQ(buffer_a.requests, buffer_b.requests);
  EXPECT_EQ(buffer_a.hits, buffer_b.hits);
  EXPECT_EQ(buffer_a.misses, buffer_b.misses);
  EXPECT_EQ(buffer_a.evictions, buffer_b.evictions);
  // A batch shares each distinct page's pin among its queries.
  EXPECT_LT(buffer_a.requests, serial_buffer.requests);
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

// The leaf pages a search for `q` visits below `page`, by a plain descent
// over the store.
void CollectLeaves(const TreeFixture& fx, PageId page, const Rect& q,
                   std::vector<PageId>* out) {
  std::vector<uint8_t> buf(fx.store->page_size());
  RTB_CHECK(fx.store->Read(page, buf.data()).ok());
  auto view = NodeView::Create(buf.data(), buf.size());
  RTB_CHECK(view.ok());
  if (view->is_leaf()) {
    out->push_back(page);
    return;
  }
  for (uint16_t i = 0; i < view->count(); ++i) {
    if (view->rect(i).Intersects(q)) {
      CollectLeaves(fx, static_cast<PageId>(view->id(i)), q, out);
    }
  }
}

TEST(BatchWorkersTest, SkewedLevelKeepsResultsAndBufferStats) {
  // Each batch's leaf level has most of its runs in one shard: the workers
  // claim that shard first and share out the rest. The shard is still
  // walked by one worker in sweep order, so results and every BufferStats
  // counter equal one worker's.
  TreeFixture fx(20000, 16);
  constexpr size_t kCapacity = 256;
  constexpr size_t kShards = 8;
  constexpr size_t kSkewed = 48;  // Leaves of the heavy shard per batch.
  auto probe = storage::ShardedBufferPool::MakeLru(fx.store.get(), kCapacity,
                                                   kShards);
  std::vector<PageId> all_leaves;
  CollectLeaves(fx, fx.built.root, Rect(0, 0, 1, 1), &all_leaves);

  // Batch b: a point query on one entry of each of kSkewed leaves of shard
  // `heavy[b]`, then a few scattered queries.
  const size_t heavy[] = {0, 3, 5};
  std::vector<Rect> queries;
  for (size_t b = 0; b < 3; ++b) {
    std::vector<Rect> batch;
    for (const PageId leaf : all_leaves) {
      if (batch.size() == kSkewed) break;
      if (probe->ShardOf(leaf) != heavy[b]) continue;
      std::vector<uint8_t> buf(fx.store->page_size());
      ASSERT_TRUE(fx.store->Read(leaf, buf.data()).ok());
      auto view = NodeView::Create(buf.data(), buf.size());
      ASSERT_TRUE(view.ok());
      batch.push_back(Rect::FromPoint(view->rect(0).lo));
    }
    ASSERT_EQ(batch.size(), kSkewed);
    for (const Rect& q : MakeQueries(8, 80 + b)) batch.push_back(q);

    std::vector<PageId> leaves;
    for (const Rect& q : batch) CollectLeaves(fx, fx.built.root, q, &leaves);
    std::sort(leaves.begin(), leaves.end());
    leaves.erase(std::unique(leaves.begin(), leaves.end()), leaves.end());
    const size_t in_heavy = static_cast<size_t>(std::count_if(
        leaves.begin(), leaves.end(),
        [&](PageId p) { return probe->ShardOf(p) == heavy[b]; }));
    ASSERT_GE(leaves.size(), LevelScheduler::kMinParallelRuns);
    ASSERT_GT(in_heavy * 2, leaves.size()) << "batch " << b;
    queries.insert(queries.end(), batch.begin(), batch.end());
  }
  const size_t batch_size = kSkewed + 8;

  auto serial_pool = storage::BufferPool::MakeLru(fx.store.get(), 1 << 14);
  auto serial_tree =
      RTree::Open(serial_pool.get(), RTreeConfig::WithFanout(fx.fanout),
                  fx.built.root, fx.built.height);
  ASSERT_TRUE(serial_tree.ok());
  std::vector<std::vector<ObjectId>> serial(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    ASSERT_TRUE(serial_tree->Search(queries[q], &serial[q]).ok());
    serial[q] = Sorted(std::move(serial[q]));
  }

  const ShardedRun one =
      RunSharded(fx, kCapacity, kShards, 0, 1, queries, batch_size);
  ASSERT_EQ(one.results, serial);
  ASSERT_GT(one.buffer.evictions, 0u) << "the heavy shard must overflow";
  for (const size_t workers : {size_t{2}, size_t{4}}) {
    const ShardedRun many =
        RunSharded(fx, kCapacity, kShards, 0, workers, queries, batch_size);
    EXPECT_EQ(many.workers, workers);
    EXPECT_EQ(many.results, serial) << workers << " workers";
    EXPECT_EQ(many.batch.node_accesses, one.batch.node_accesses);
    EXPECT_EQ(many.batch.page_visits, one.batch.page_visits);
    EXPECT_EQ(many.buffer.requests, one.buffer.requests);
    EXPECT_EQ(many.buffer.hits, one.buffer.hits);
    EXPECT_EQ(many.buffer.misses, one.buffer.misses);
    EXPECT_EQ(many.buffer.evictions, one.buffer.evictions);
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

// --------------------------------------------------------------------------
// kNN in the level pass: SearchKnn's distances, and the same BufferStats for
// any worker count
// --------------------------------------------------------------------------

using geom::Point;

// The serial best-first search over a resident pool answers every kNN.
std::vector<std::vector<double>> OracleDistances(
    const TreeFixture& fx, const std::vector<KnnQuery>& knns) {
  auto pool = storage::BufferPool::MakeLru(fx.store.get(), 1 << 14);
  auto tree = RTree::Open(pool.get(), RTreeConfig::WithFanout(fx.fanout),
                          fx.built.root, fx.built.height);
  RTB_CHECK(tree.ok());
  std::vector<std::vector<double>> out;
  for (const KnnQuery& q : knns) {
    auto got = SearchKnn(*tree, q.point, q.k);
    RTB_CHECK(got.ok());
    out.emplace_back();
    for (const Neighbor& n : *got) out.back().push_back(n.distance);
  }
  return out;
}

std::vector<double> Distances(const std::vector<Neighbor>& neighbors) {
  std::vector<double> out;
  for (const Neighbor& n : neighbors) out.push_back(n.distance);
  return out;
}

// Ascending (distance, id), no id twice: the executor's ranking.
void ExpectRanked(const std::vector<Neighbor>& neighbors) {
  for (size_t i = 1; i < neighbors.size(); ++i) {
    const Neighbor& a = neighbors[i - 1];
    const Neighbor& b = neighbors[i];
    EXPECT_TRUE(a.distance < b.distance ||
                (a.distance == b.distance && a.id < b.id))
        << "rank " << i;
  }
}

// A seeded mix of region queries and kNNs over `fx`: kNN points inside the
// data, outside it, and on the corners and edges of leaf MBRs; k cycling
// 1-64 with every 16th kNN asking for more objects than the tree holds;
// the radius from the estimator, and every 7th one scaled so the kNN must
// widen (x0, x0.01) or starts covering the tree (x50).
struct KnnMix {
  std::vector<Rect> rects;
  std::vector<KnnQuery> knns;
};

KnnMix MakeKnnMix(const TreeFixture& fx, size_t n_rects, size_t n_knns,
                  uint64_t seed) {
  auto summary = TreeSummary::Extract(fx.store.get(), fx.built.root);
  RTB_CHECK(summary.ok());
  std::vector<Rect> leaves;
  for (const NodeInfo& node : summary->nodes()) {
    if (node.level == 0) leaves.push_back(node.mbr);
  }
  const KnnRadius radius(*summary);
  const size_t objects = summary->NumDataEntries();

  KnnMix mix;
  mix.rects = MakeQueries(n_rects, seed);
  Rng rng(seed + 1);
  for (size_t j = 0; j < n_knns; ++j) {
    Point p{rng.NextDouble(), rng.NextDouble()};
    if (j % 3 == 1) {
      p = Point{rng.NextDouble() * 2.0 - 0.5, rng.NextDouble() * 2.0 - 0.5};
      if (j % 2 == 0) p.x = 1.0 + 0.1 * rng.NextDouble();  // Outside.
    } else if (j % 3 == 2) {
      const Rect& leaf = leaves[rng.NextUint64() % leaves.size()];
      switch (j % 4) {
        case 0: p = leaf.lo; break;
        case 1: p = leaf.hi; break;
        case 2: p = Point{leaf.lo.x, leaf.Center().y}; break;
        default: p = Point{leaf.Center().x, leaf.hi.y}; break;
      }
    }
    const size_t k = j % 16 == 15 ? objects + 5 : 1 + j % 64;
    double r = radius.Estimate(p, k);
    if (j % 7 == 3) r *= (j / 7) % 3 == 0 ? 0.0 : (j / 7) % 3 == 1 ? 0.01 : 50;
    mix.knns.push_back(KnnQuery{p, k, r});
  }
  return mix;
}

struct KnnRun {
  std::vector<std::vector<ObjectId>> results;  // Sorted per query.
  std::vector<std::vector<Neighbor>> neighbors;
  BatchStats batch;
  storage::BufferStats buffer;
};

// Runs `mix` in batches of `batch_size` region queries and `batch_size / 4`
// kNNs through one executor with `workers` threads, on a fresh sharded pool.
KnnRun RunKnnMix(const TreeFixture& fx, size_t capacity, size_t shards,
                 size_t workers, const KnnMix& mix, size_t batch_size) {
  auto pool =
      storage::ShardedBufferPool::MakeLru(fx.store.get(), capacity, shards);
  auto tree = RTree::Open(pool.get(), RTreeConfig::WithFanout(fx.fanout),
                          fx.built.root, fx.built.height);
  RTB_CHECK(tree.ok());
  BatchExecutor executor(&*tree, workers);
  RTB_CHECK(executor.workers() == std::min(workers, shards));
  KnnRun run;
  const size_t knn_batch = std::max<size_t>(1, batch_size / 4);
  for (size_t b = 0; b * batch_size < mix.rects.size() ||
                     b * knn_batch < mix.knns.size();
       ++b) {
    const size_t r0 = std::min(mix.rects.size(), b * batch_size);
    const size_t r1 = std::min(mix.rects.size(), r0 + batch_size);
    const size_t k0 = std::min(mix.knns.size(), b * knn_batch);
    const size_t k1 = std::min(mix.knns.size(), k0 + knn_batch);
    std::vector<std::vector<ObjectId>> chunk;
    std::vector<std::vector<Neighbor>> nn;
    RTB_CHECK(executor
                  .Run(std::span<const Rect>(mix.rects.data() + r0, r1 - r0),
                       std::span<const KnnQuery>(mix.knns.data() + k0,
                                                 k1 - k0),
                       &chunk, &nn, &run.batch)
                  .ok());
    for (auto& r : chunk) run.results.push_back(Sorted(std::move(r)));
    for (auto& n : nn) run.neighbors.push_back(std::move(n));
  }
  run.buffer = pool->AggregateStats();
  return run;
}

void ExpectSameBufferStats(const storage::BufferStats& a,
                           const storage::BufferStats& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.writebacks, b.writebacks);
  EXPECT_EQ(a.spare_frames, b.spare_frames);
}

TEST(BatchKnnTest, MatchesSearchKnnAndKeepsBufferStatsAcrossWorkers) {
  TreeFixture fx(20000, 16);
  for (const uint64_t seed : {uint64_t{91}, uint64_t{92}}) {
    const KnnMix mix = MakeKnnMix(fx, 400, 160, seed);
    const std::vector<std::vector<double>> oracle =
        OracleDistances(fx, mix.knns);
    auto serial_pool =
        storage::BufferPool::MakeLru(fx.store.get(), 1 << 14);
    auto serial_tree =
        RTree::Open(serial_pool.get(), RTreeConfig::WithFanout(fx.fanout),
                    fx.built.root, fx.built.height);
    ASSERT_TRUE(serial_tree.ok());
    std::vector<std::vector<ObjectId>> serial(mix.rects.size());
    for (size_t q = 0; q < mix.rects.size(); ++q) {
      ASSERT_TRUE(serial_tree->Search(mix.rects[q], &serial[q]).ok());
      serial[q] = Sorted(std::move(serial[q]));
    }

    for (const auto& [capacity, shards] :
         {std::pair<size_t, size_t>{256, 4}, {64, 8}}) {
      for (const size_t batch_size : {size_t{37}, size_t{256}}) {
        SCOPED_TRACE(::testing::Message()
                     << "seed " << seed << ", " << capacity << " frames, "
                     << shards << " shards, batch " << batch_size);
        const KnnRun one =
            RunKnnMix(fx, capacity, shards, 1, mix, batch_size);
        ASSERT_EQ(one.results, serial);
        ASSERT_EQ(one.neighbors.size(), mix.knns.size());
        for (size_t j = 0; j < mix.knns.size(); ++j) {
          EXPECT_EQ(Distances(one.neighbors[j]), oracle[j]) << "kNN " << j;
          ExpectRanked(one.neighbors[j]);
        }
        // Every kNN takes a round; the scaled radii force some more.
        EXPECT_GT(one.batch.knn_rounds, mix.knns.size());
        EXPECT_GT(one.batch.knn_candidates, 0u);
        for (const size_t workers : {size_t{2}, size_t{4}}) {
          const KnnRun many =
              RunKnnMix(fx, capacity, shards, workers, mix, batch_size);
          EXPECT_EQ(many.results, one.results) << workers << " workers";
          ASSERT_EQ(many.neighbors.size(), one.neighbors.size());
          for (size_t j = 0; j < one.neighbors.size(); ++j) {
            ASSERT_EQ(many.neighbors[j].size(), one.neighbors[j].size());
            for (size_t i = 0; i < one.neighbors[j].size(); ++i) {
              EXPECT_EQ(many.neighbors[j][i].id, one.neighbors[j][i].id);
              EXPECT_EQ(many.neighbors[j][i].distance,
                        one.neighbors[j][i].distance);
            }
          }
          EXPECT_EQ(many.batch.node_accesses, one.batch.node_accesses);
          EXPECT_EQ(many.batch.page_visits, one.batch.page_visits);
          EXPECT_EQ(many.batch.knn_rounds, one.batch.knn_rounds);
          EXPECT_EQ(many.batch.knn_candidates, one.batch.knn_candidates);
          ExpectSameBufferStats(many.buffer, one.buffer);
        }
      }
    }
  }
}

TEST(BatchKnnTest, ObjectsExactlyAtTheRadiusNeedNoSecondRound) {
  // A 0.01-spaced grid of points: most kNNs here have ties at their k-th
  // distance, and the axis-aligned neighbours sit exactly on the edge of a
  // square whose half-side is that distance. Handed the exact k-th
  // distance, every kNN must resolve in its first round, which only holds
  // if rounding never cuts such an object off.
  std::vector<Rect> grid;
  for (int i = 0; i < 100; ++i) {
    for (int j = 0; j < 100; ++j) {
      grid.push_back(Rect::FromPoint({i * 0.01, j * 0.01}));
    }
  }
  const TreeFixture fx(grid, 16);

  Rng rng(5);
  std::vector<KnnQuery> knns;
  for (size_t j = 0; j < 200; ++j) {
    const double x = static_cast<double>(rng.NextUint64() % 100) * 0.01;
    const double y = static_cast<double>(rng.NextUint64() % 100) * 0.01;
    const Point p = j % 2 == 0 ? Point{x, y} : Point{x + 0.005, y};
    knns.push_back(KnnQuery{p, 1 + j % 64, 0.0});
  }
  const std::vector<std::vector<double>> oracle = OracleDistances(fx, knns);
  for (size_t j = 0; j < knns.size(); ++j) knns[j].radius = oracle[j].back();

  auto pool = storage::ShardedBufferPool::MakeLru(fx.store.get(), 256, 4);
  auto tree = RTree::Open(pool.get(), RTreeConfig::WithFanout(16),
                          fx.built.root, fx.built.height);
  ASSERT_TRUE(tree.ok());
  BatchExecutor executor(&*tree, 4);
  std::vector<std::vector<ObjectId>> results;
  std::vector<std::vector<Neighbor>> neighbors;
  BatchStats stats;
  ASSERT_TRUE(executor.Run({}, knns, &results, &neighbors, &stats).ok());
  EXPECT_EQ(stats.knn_rounds, knns.size());
  for (size_t j = 0; j < knns.size(); ++j) {
    EXPECT_EQ(Distances(neighbors[j]), oracle[j]) << "kNN " << j;
  }
}

TEST(BatchKnnTest, EmptyTreeAndDegenerateKnnsFindNothing) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  // The empty tree: one round, whose square covers the (empty) root MBR,
  // ends every kNN, whatever its radius.
  {
    storage::MemPageStore store;
    auto pool = storage::ShardedBufferPool::MakeLru(&store, 64, 2);
    auto tree = RTree::Create(pool.get(), RTreeConfig::WithFanout(16));
    ASSERT_TRUE(tree.ok());
    ASSERT_TRUE(pool->FlushAll().ok());
    auto summary = TreeSummary::Extract(&store, tree->root());
    ASSERT_TRUE(summary.ok());
    const KnnRadius radius(*summary);
    EXPECT_EQ(radius.Estimate(Point{0.5, 0.5}, 10), 0.0);
    const std::vector<KnnQuery> knns = {{{0.5, 0.5}, 1, 0.0},
                                        {{-3.0, 7.0}, 64, 0.25},
                                        {{0.5, 0.5}, 1000, 1e9}};
    const Rect rect(0.0, 0.0, 1.0, 1.0);
    BatchExecutor executor(&*tree, 2);
    std::vector<std::vector<ObjectId>> results;
    std::vector<std::vector<Neighbor>> neighbors;
    BatchStats stats;
    ASSERT_TRUE(executor
                    .Run(std::span<const Rect>(&rect, 1), knns, &results,
                         &neighbors, &stats)
                    .ok());
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].empty());
    ASSERT_EQ(neighbors.size(), knns.size());
    for (const auto& n : neighbors) EXPECT_TRUE(n.empty());
    EXPECT_EQ(stats.knn_rounds, knns.size());
    EXPECT_EQ(stats.knn_candidates, 0u);
  }
  // k = 0 and a non-finite point find nothing and touch no pages.
  {
    TreeFixture fx(2000, 16);
    auto pool = storage::BufferPool::MakeLru(fx.store.get(), 64);
    auto tree = RTree::Open(pool.get(), RTreeConfig::WithFanout(16),
                            fx.built.root, fx.built.height);
    ASSERT_TRUE(tree.ok());
    const std::vector<KnnQuery> knns = {{{0.5, 0.5}, 0, 0.1},
                                        {{kNaN, 0.5}, 5, 0.1},
                                        {{0.5, kNaN}, 5, kNaN}};
    BatchExecutor executor(&*tree);
    std::vector<std::vector<ObjectId>> results;
    std::vector<std::vector<Neighbor>> neighbors;
    BatchStats stats;
    const uint64_t requests = pool->AggregateStats().requests;
    ASSERT_TRUE(executor.Run({}, knns, &results, &neighbors, &stats).ok());
    ASSERT_EQ(neighbors.size(), knns.size());
    for (const auto& n : neighbors) EXPECT_TRUE(n.empty());
    EXPECT_EQ(stats.knn_rounds, 0u);
    EXPECT_EQ(stats.node_accesses, 0u);
    EXPECT_EQ(pool->AggregateStats().requests, requests);
  }
}

TEST(KnnRadiusTest, DiscHoldsAboutScaleTimesK) {
  // Uniform data: the estimated disc around an interior point holds about
  // kScale * k objects; outside the data the estimate adds the distance to
  // the data's MBR.
  TreeFixture fx(20000, 16);
  auto summary = TreeSummary::Extract(fx.store.get(), fx.built.root);
  ASSERT_TRUE(summary.ok());
  const KnnRadius radius(*summary);
  auto pool = storage::BufferPool::MakeLru(fx.store.get(), 1 << 14);
  auto tree = RTree::Open(pool.get(), RTreeConfig::WithFanout(fx.fanout),
                          fx.built.root, fx.built.height);
  ASSERT_TRUE(tree.ok());
  Rng rng(3);
  constexpr size_t kK = 20;
  double held = 0.0;
  constexpr int kTrials = 200;
  for (int t = 0; t < kTrials; ++t) {
    const Point p{0.1 + 0.8 * rng.NextDouble(), 0.1 + 0.8 * rng.NextDouble()};
    const double r = radius.Estimate(p, kK);
    auto all = SearchKnn(*tree, p, 4 * kK);
    ASSERT_TRUE(all.ok());
    held += static_cast<double>(std::count_if(
        all->begin(), all->end(),
        [r](const Neighbor& n) { return n.distance <= r; }));
  }
  const double mean = held / kTrials;
  EXPECT_GT(mean, 0.7 * KnnRadius::kScale * kK);
  EXPECT_LT(mean, 1.3 * KnnRadius::kScale * kK);

  const Point outside{3.0, 0.5};
  EXPECT_GT(radius.Estimate(outside, 1), 2.0);
  EXPECT_EQ(KnnRadius().Estimate(outside, 1), 0.0);
}

}  // namespace
}  // namespace rtb::rtree
