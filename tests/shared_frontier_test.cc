// Tests for SharedBatchExecutor (rtree/shared_batch.h): the collective,
// cross-worker shared frontier must return exactly the serial Search
// results for every worker's queries, count the same global node accesses
// as the single-frontier BatchExecutor over the merged query set, tolerate
// empty per-worker slices, and abort collectively (same error on every
// worker) on an injected I/O fault. Also drives the runner integration
// (WorkloadOptions::shared_frontier). Labeled `concurrency` (run it under
// TSan).

#include <algorithm>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/datasets.h"
#include "rtree/batch.h"
#include "rtree/bulk_load.h"
#include "rtree/rtree.h"
#include "rtree/shared_batch.h"
#include "sim/query_gen.h"
#include "sim/runner.h"
#include "storage/buffer_pool.h"
#include "storage/fault_injection.h"
#include "storage/page_store.h"
#include "storage/sharded_buffer_pool.h"
#include "util/rng.h"

namespace rtb::rtree {
namespace {

using geom::Rect;

std::vector<Rect> MakeQueries(size_t n, uint64_t seed, double side = 0.05) {
  std::vector<Rect> queries;
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const double x = rng.NextDouble() * (1.0 - side);
    const double y = rng.NextDouble() * (1.0 - side);
    queries.emplace_back(x, y, x + side, y + side);
  }
  return queries;
}

std::vector<ObjectId> Sorted(std::vector<ObjectId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

class SharedFrontierTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(9001);
    rects_ = data::GenerateSyntheticRegion(4000, &rng);
    auto built = BuildRTree(&store_, RTreeConfig::WithFanout(32), rects_,
                            LoadAlgorithm::kHilbertSort);
    ASSERT_TRUE(built.ok());
    built_ = *built;
  }

  Result<RTree> OpenTree(storage::PageCache* pool) {
    return RTree::Open(pool, RTreeConfig::WithFanout(32), built_.root,
                       built_.height);
  }

  // Serial ground truth through a private pool, sorted per query.
  std::vector<std::vector<ObjectId>> SerialResults(
      const std::vector<Rect>& queries) {
    auto pool = storage::BufferPool::MakeLru(&store_, 32);
    auto tree = OpenTree(pool.get());
    EXPECT_TRUE(tree.ok());
    std::vector<std::vector<ObjectId>> out(queries.size());
    for (size_t q = 0; q < queries.size(); ++q) {
      EXPECT_TRUE(tree->Search(queries[q], &out[q]).ok());
      out[q] = Sorted(std::move(out[q]));
    }
    return out;
  }

  storage::MemPageStore store_{storage::kDefaultPageSize};
  std::vector<Rect> rects_;
  BuiltTree built_;
};

TEST_F(SharedFrontierTest, SingleWorkerMatchesSerialSearch) {
  auto pool = storage::BufferPool::MakeLru(&store_, 32);
  auto tree = OpenTree(pool.get());
  ASSERT_TRUE(tree.ok());
  const std::vector<Rect> queries = MakeQueries(60, 7);
  const auto expected = SerialResults(queries);

  SharedBatchExecutor executor(&*tree, 1);
  std::vector<std::vector<ObjectId>> results;
  BatchStats stats;
  ASSERT_TRUE(executor.Run(0, queries, &results, &stats).ok());
  ASSERT_EQ(results.size(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(Sorted(results[q]), expected[q]) << "query " << q;
  }
  EXPECT_GT(stats.node_accesses, 0u);
}

TEST_F(SharedFrontierTest, WorkersMatchSerialAndCountersMatchBatched) {
  constexpr uint32_t kWorkers = 3;
  const std::vector<Rect> all = MakeQueries(90, 11);
  const auto expected = SerialResults(all);

  // Global node accesses must equal BatchExecutor over the merged set: the
  // shared frontier holds the same (page, query) items, only claimed by
  // different threads.
  uint64_t batched_nodes = 0;
  {
    auto pool = storage::BufferPool::MakeLru(&store_, 64);
    auto tree = OpenTree(pool.get());
    ASSERT_TRUE(tree.ok());
    BatchExecutor executor(&*tree);
    std::vector<std::vector<ObjectId>> results;
    BatchStats stats;
    ASSERT_TRUE(executor.Run(all, &results, &stats).ok());
    batched_nodes = stats.node_accesses;
  }

  auto pool = storage::ShardedBufferPool::MakeLru(&store_, 64);
  auto tree = OpenTree(pool.get());
  ASSERT_TRUE(tree.ok());
  SharedBatchExecutor executor(&*tree, kWorkers);

  // Uneven slices on purpose (30 is divisible by 3; 90 split 40/40/10 is
  // not what SliceSize would do, but any split must work).
  const size_t cuts[kWorkers + 1] = {0, 40, 80, 90};
  std::vector<std::vector<std::vector<ObjectId>>> results(kWorkers);
  std::vector<BatchStats> stats(kWorkers);
  std::vector<Status> statuses(kWorkers, Status::OK());
  {
    std::vector<std::thread> threads;
    for (uint32_t w = 0; w < kWorkers; ++w) {
      threads.emplace_back([&, w] {
        std::span<const Rect> slice(all.data() + cuts[w],
                                    cuts[w + 1] - cuts[w]);
        statuses[w] = executor.Run(w, slice, &results[w], &stats[w]);
      });
    }
    for (auto& t : threads) t.join();
  }
  uint64_t shared_nodes = 0;
  for (uint32_t w = 0; w < kWorkers; ++w) {
    ASSERT_TRUE(statuses[w].ok()) << "worker " << w;
    shared_nodes += stats[w].node_accesses;
    for (size_t q = 0; q < results[w].size(); ++q) {
      EXPECT_EQ(Sorted(results[w][q]), expected[cuts[w] + q])
          << "worker " << w << " query " << q;
    }
  }
  EXPECT_EQ(shared_nodes, batched_nodes);
}

TEST_F(SharedFrontierTest, EmptySlicesStillParticipate) {
  constexpr uint32_t kWorkers = 2;
  const std::vector<Rect> queries = MakeQueries(20, 13);
  const auto expected = SerialResults(queries);

  auto pool = storage::ShardedBufferPool::MakeLru(&store_, 32);
  auto tree = OpenTree(pool.get());
  ASSERT_TRUE(tree.ok());
  SharedBatchExecutor executor(&*tree, kWorkers);

  std::vector<std::vector<ObjectId>> full, empty;
  Status s0, s1;
  {
    std::thread other([&] {
      s1 = executor.Run(1, std::span<const Rect>(), &empty, nullptr);
    });
    s0 = executor.Run(0, queries, &full, nullptr);
    other.join();
  }
  ASSERT_TRUE(s0.ok()) << s0.ToString();
  ASSERT_TRUE(s1.ok()) << s1.ToString();
  EXPECT_TRUE(empty.empty());
  ASSERT_EQ(full.size(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(Sorted(full[q]), expected[q]) << "query " << q;
  }
}

TEST_F(SharedFrontierTest, ErrorAbortsAllWorkersWithSameStatus) {
  constexpr uint32_t kWorkers = 2;
  storage::FaultInjectingPageStore faulty(&store_);
  auto pool = storage::ShardedBufferPool::MakeLru(&faulty, 32);
  auto tree = OpenTree(pool.get());
  ASSERT_TRUE(tree.ok());
  SharedBatchExecutor executor(&*tree, kWorkers);
  const std::vector<Rect> queries = MakeQueries(40, 17, /*side=*/0.3);

  // Fail plenty of reads so the fault fires no matter which worker claims
  // the window that reads next.
  faulty.FailNextReads(1000000, Status::IoError("disk gone"));
  std::vector<std::vector<std::vector<ObjectId>>> results(kWorkers);
  std::vector<Status> statuses(kWorkers, Status::OK());
  {
    std::vector<std::thread> threads;
    for (uint32_t w = 0; w < kWorkers; ++w) {
      threads.emplace_back([&, w] {
        std::span<const Rect> slice(queries.data() + w * 20, 20);
        statuses[w] = executor.Run(w, slice, &results[w], nullptr);
      });
    }
    for (auto& t : threads) t.join();
  }
  for (uint32_t w = 0; w < kWorkers; ++w) {
    EXPECT_FALSE(statuses[w].ok()) << "worker " << w;
    EXPECT_EQ(statuses[w].code(), StatusCode::kIoError);
  }

  // And the same executor recovers for a clean collective round.
  faulty.FailNextReads(0, Status::OK());
  const auto expected = SerialResults(queries);
  {
    std::vector<std::thread> threads;
    for (uint32_t w = 0; w < kWorkers; ++w) {
      threads.emplace_back([&, w] {
        std::span<const Rect> slice(queries.data() + w * 20, 20);
        statuses[w] = executor.Run(w, slice, &results[w], nullptr);
      });
    }
    for (auto& t : threads) t.join();
  }
  for (uint32_t w = 0; w < kWorkers; ++w) {
    ASSERT_TRUE(statuses[w].ok()) << "worker " << w;
    for (size_t q = 0; q < 20; ++q) {
      EXPECT_EQ(Sorted(results[w][q]), expected[w * 20 + q])
          << "worker " << w << " query " << q;
    }
  }
}

TEST_F(SharedFrontierTest, RunWorkloadSharedMatchesPrivateFrontierCounters) {
  sim::UniformRegionGenerator gen(0.05, 0.05);

  sim::WorkloadOptions options;
  options.threads = 2;
  options.base_seed = 3;
  options.warmup = 40;
  options.queries = 200;
  options.batch_size = 32;

  auto run = [&](bool shared) -> sim::WorkloadResult {
    auto pool = storage::ShardedBufferPool::MakeLru(&store_, 48);
    auto tree = OpenTree(pool.get());
    EXPECT_TRUE(tree.ok());
    options.shared_frontier = shared;
    auto result = sim::RunWorkload(&*tree, &store_, &gen, options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return *result;
  };

  const sim::WorkloadResult base = run(false);
  const sim::WorkloadResult shared = run(true);
  EXPECT_EQ(shared.queries, base.queries);
  // Same query streams, same per-(page, query) dedup semantics: the global
  // logical work is identical; only page pinning is arranged differently.
  EXPECT_EQ(shared.node_accesses, base.node_accesses);
  EXPECT_GT(shared.node_accesses, 0u);
}

TEST(SharedFrontierValidationTest, RequiresBatchSizeAtLeastTwo) {
  storage::MemPageStore store(storage::kDefaultPageSize);
  Rng rng(1);
  auto rects = data::GenerateSyntheticRegion(500, &rng);
  auto built = BuildRTree(&store, RTreeConfig::WithFanout(16), rects,
                          LoadAlgorithm::kHilbertSort);
  ASSERT_TRUE(built.ok());
  auto pool = storage::BufferPool::MakeLru(&store, 16);
  auto tree = RTree::Open(pool.get(), RTreeConfig::WithFanout(16),
                          built->root, built->height);
  ASSERT_TRUE(tree.ok());

  sim::UniformRegionGenerator gen(0.05, 0.05);
  sim::WorkloadOptions options;
  options.threads = 1;
  options.queries = 10;
  options.batch_size = 1;
  options.shared_frontier = true;
  auto result = sim::RunWorkload(&*tree, &store, &gen, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace rtb::rtree
