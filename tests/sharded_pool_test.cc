// Tests for ShardedBufferPool: shard routing and capacity split, serial
// equivalence at one shard, aggregate-stat consistency, and multi-threaded
// hammer tests (run these under -DRTB_SANITIZE=thread to certify the
// locking; see DESIGN.md).

#include <unistd.h>

#include <atomic>
#include <barrier>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "storage/buffer_pool.h"
#include "storage/file_page_store.h"
#include "storage/page_store.h"
#include "storage/sharded_buffer_pool.h"
#include "util/rng.h"

namespace rtb::storage {
namespace {

constexpr size_t kPageSize = 64;

// Allocates `n` pages whose first byte is their id (mod 256).
std::unique_ptr<MemPageStore> MakeStore(int n) {
  auto store = std::make_unique<MemPageStore>(kPageSize);
  for (int i = 0; i < n; ++i) {
    auto id = store->Allocate();
    EXPECT_TRUE(id.ok());
    std::vector<uint8_t> data(kPageSize, 0);
    data[0] = static_cast<uint8_t>(*id);
    EXPECT_TRUE(store->Write(*id, data.data()).ok());
  }
  store->ResetStats();
  return store;
}

TEST(ShardedBufferPoolTest, FetchRoundTripAcrossShards) {
  auto store = MakeStore(64);
  auto pool = ShardedBufferPool::MakeLru(store.get(), 32, 4);
  EXPECT_EQ(pool->num_shards(), 4u);
  EXPECT_EQ(pool->capacity(), 32u);
  for (PageId p = 0; p < 64; ++p) {
    auto g = pool->Fetch(p);
    ASSERT_TRUE(g.ok());
    EXPECT_EQ(g->data()[0], static_cast<uint8_t>(p));
  }
  BufferStats stats = pool->AggregateStats();
  EXPECT_EQ(stats.requests, 64u);
  EXPECT_EQ(stats.requests, stats.hits + stats.misses);
}

TEST(ShardedBufferPoolTest, ShardCountRoundsDownToPowerOfTwo) {
  auto store = MakeStore(8);
  // 6 requested -> 4 (floor power of two).
  auto pool = ShardedBufferPool::MakeLru(store.get(), 32, 6);
  EXPECT_EQ(pool->num_shards(), 4u);
  // Every shard keeps kMinFramesPerShard (8) frames: capacity 24 caps 16
  // requested shards at 2, and a pool under 8 frames gets one shard.
  auto small = ShardedBufferPool::MakeLru(store.get(), 24, 16);
  EXPECT_EQ(small->num_shards(), 2u);
  auto tiny = ShardedBufferPool::MakeLru(store.get(), 3, 16);
  EXPECT_EQ(tiny->num_shards(), 1u);
  EXPECT_EQ(tiny->capacity(), 3u);
}

TEST(ShardedBufferPoolTest, SingleShardMatchesSerialPoolExactly) {
  // With one shard the pool is a mutex around one BufferPool, so any access
  // sequence produces identical counters to the serial pool.
  auto store_a = MakeStore(32);
  auto store_b = MakeStore(32);
  auto serial = BufferPool::MakeLru(store_a.get(), 8);
  auto sharded = ShardedBufferPool::MakeLru(store_b.get(), 8, 1);
  ASSERT_EQ(sharded->num_shards(), 1u);
  Rng rng(1998);
  for (int step = 0; step < 4000; ++step) {
    PageId p = static_cast<PageId>(rng.UniformInt(32));
    auto ga = serial->Fetch(p);
    auto gb = sharded->Fetch(p);
    ASSERT_TRUE(ga.ok());
    ASSERT_TRUE(gb.ok());
    ASSERT_EQ(ga->data()[0], gb->data()[0]);
  }
  BufferStats a = serial->AggregateStats();
  BufferStats b = sharded->AggregateStats();
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(store_a->stats().reads, store_b->stats().reads);
}

TEST(ShardedBufferPoolTest, BlockOfEightIdsSharesShardAndOneReadBatch) {
  // Routing is by 8-page block: a block's ids share a shard, blocks spread
  // over the shards, and a fetch window of one block reaches a vectored
  // store as one read batch.
  const std::string path = ::testing::TempDir() + "/rtb_sharded_block_" +
                           std::to_string(::getpid());
  auto store = FilePageStore::Create(path, kPageSize);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  std::vector<uint8_t> data(kPageSize, 0);
  for (int i = 0; i < 128; ++i) {
    auto id = (*store)->Allocate();
    ASSERT_TRUE(id.ok());
    data[0] = static_cast<uint8_t>(*id);
    ASSERT_TRUE((*store)->Write(*id, data.data()).ok());
  }
  auto pool = ShardedBufferPool::MakeLru(store->get(), 64, 8);
  ASSERT_EQ(pool->num_shards(), 8u);
  std::set<size_t> used;
  for (PageId block = 0; block < 16; ++block) {
    const size_t shard = pool->ShardOf(block * 8);
    ASSERT_LT(shard, pool->num_shards());
    used.insert(shard);
    for (PageId p = block * 8; p < block * 8 + 8; ++p) {
      EXPECT_EQ(pool->ShardOf(p), shard) << "page " << p;
    }
  }
  EXPECT_GE(used.size(), 4u) << "16 blocks must spread over the shards";

  (*store)->ResetStats();
  std::vector<PageId> ids;
  for (PageId p = 24; p < 32; ++p) ids.push_back(p);
  auto guards = pool->FetchBatch(ids.data(), ids.size());
  ASSERT_TRUE(guards.ok());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ((*guards)[i].data()[0], static_cast<uint8_t>(ids[i]));
  }
  const IoStats io = (*store)->stats();
  EXPECT_EQ(io.reads, 8u);
  EXPECT_EQ(io.read_batches, 1u);
  EXPECT_EQ(io.batch_pages, 8u);
  guards->clear();
  ASSERT_TRUE((*store)->Close().ok());
  std::remove(path.c_str());
}

TEST(ShardedBufferPoolTest, DirtyPagesWrittenBackThroughShards) {
  auto store = MakeStore(64);
  auto pool = ShardedBufferPool::MakeLru(store.get(), 32, 4);
  ASSERT_EQ(pool->num_shards(), 4u);
  for (PageId p = 0; p < 64; ++p) {
    auto g = pool->FetchMutable(p);
    ASSERT_TRUE(g.ok());
    g->mutable_data()[1] = static_cast<uint8_t>(0xA0 + p);
  }
  ASSERT_TRUE(pool->FlushAll().ok());
  ASSERT_TRUE(pool->EvictAll().ok());
  std::vector<uint8_t> buf(kPageSize);
  for (PageId p = 0; p < 64; ++p) {
    ASSERT_TRUE(store->Read(p, buf.data()).ok());
    EXPECT_EQ(buf[1], static_cast<uint8_t>(0xA0 + p)) << "page " << p;
    EXPECT_FALSE(pool->Contains(p));
  }
}

TEST(ShardedBufferPoolTest, NewPageRoutesToOwningShard) {
  auto store = MakeStore(0);
  auto pool = ShardedBufferPool::MakeLru(store.get(), 16, 4);
  std::set<PageId> ids;
  for (int i = 0; i < 8; ++i) {
    auto g = pool->NewPage();
    ASSERT_TRUE(g.ok());
    g->mutable_data()[0] = static_cast<uint8_t>(g->page_id());
    ids.insert(g->page_id());
  }
  EXPECT_EQ(ids.size(), 8u);  // Distinct ids.
  ASSERT_TRUE(pool->FlushAll().ok());
  std::vector<uint8_t> buf(kPageSize);
  for (PageId p : ids) {
    ASSERT_TRUE(store->Read(p, buf.data()).ok());
    EXPECT_EQ(buf[0], static_cast<uint8_t>(p));
  }
}

TEST(ShardedBufferPoolTest, PermanentPinsSurvivePressureAndEvictAll) {
  auto store = MakeStore(64);
  auto pool = ShardedBufferPool::MakeLru(store.get(), 16, 4);
  ASSERT_TRUE(pool->PinPermanently(0).ok());
  ASSERT_TRUE(pool->PinPermanently(1).ok());
  EXPECT_EQ(pool->num_permanent_pins(), 2u);
  for (PageId p = 2; p < 64; ++p) {
    auto g = pool->Fetch(p);
    ASSERT_TRUE(g.ok());
  }
  EXPECT_TRUE(pool->Contains(0));
  EXPECT_TRUE(pool->Contains(1));
  ASSERT_TRUE(pool->EvictAll().ok());
  EXPECT_TRUE(pool->Contains(0));
  EXPECT_TRUE(pool->Contains(1));
  ASSERT_TRUE(pool->UnpinPermanently(0).ok());
  ASSERT_TRUE(pool->UnpinPermanently(1).ok());
  EXPECT_EQ(pool->num_permanent_pins(), 0u);
}

// shard_pinnable_frames subtracts a shard's own permanent pins, not other
// shards' and not transient pins.
TEST(ShardedBufferPoolTest, PinnableFramesCountEachShardsPermanentPins) {
  auto store = MakeStore(64);
  auto pool = ShardedBufferPool::MakeLru(store.get(), 32, 4);
  ASSERT_EQ(pool->num_shards(), 4u);  // 8 frames each.
  ASSERT_TRUE(pool->PinPermanently(0).ok());
  ASSERT_TRUE(pool->PinPermanently(1).ok());  // Same 8-page block as 0.
  const size_t pinned = pool->ShardOf(0);
  PageId other = 8;
  while (pool->ShardOf(other) == pinned) other += 8;
  auto held = pool->Fetch(other);
  ASSERT_TRUE(held.ok());
  for (size_t s = 0; s < pool->num_shards(); ++s) {
    EXPECT_EQ(pool->shard_pinnable_frames(s), s == pinned ? 6u : 8u) << s;
  }

  auto serial = BufferPool::MakeLru(store.get(), 16);
  ASSERT_TRUE(serial->PinPermanently(0).ok());
  EXPECT_EQ(serial->shard_pinnable_frames(0), 15u);
}

TEST(ShardedBufferPoolTest, ShardStatsSumToAggregate) {
  auto store = MakeStore(64);
  auto pool = ShardedBufferPool::MakeLru(store.get(), 16, 4);
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    auto g = pool->Fetch(static_cast<PageId>(rng.UniformInt(64)));
    ASSERT_TRUE(g.ok());
  }
  BufferStats sum;
  for (const BufferStats& s : pool->ShardStats()) sum += s;
  BufferStats agg = pool->AggregateStats();
  EXPECT_EQ(sum.requests, agg.requests);
  EXPECT_EQ(sum.hits, agg.hits);
  EXPECT_EQ(sum.misses, agg.misses);
  EXPECT_EQ(sum.evictions, agg.evictions);
  EXPECT_EQ(agg.requests, 1000u);
  pool->ResetStats();
  EXPECT_EQ(pool->AggregateStats().requests, 0u);
}

// --------------------------------------------------------------------------
// Concurrency hammer tests. Thread counts deliberately exceed hardware
// concurrency so the scheduler forces interleavings even on small machines.
// --------------------------------------------------------------------------

TEST(ShardedBufferPoolConcurrencyTest, ConcurrentFetchReleaseCountsAreExact) {
  constexpr int kPages = 256;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 20000;
  auto store = MakeStore(kPages);
  auto pool = ShardedBufferPool::MakeLru(store.get(), 128, 8);

  // A couple of permanently pinned "root" pages, touched by every thread.
  ASSERT_TRUE(pool->PinPermanently(0).ok());
  ASSERT_TRUE(pool->PinPermanently(1).ok());
  // Pinning itself fetches; start the ledger after it.
  pool->ResetStats();
  store->ResetStats();

  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &failures, t] {
      Rng rng(1000 + static_cast<uint64_t>(t));
      for (int i = 0; i < kOpsPerThread; ++i) {
        PageId p = static_cast<PageId>(rng.UniformInt(kPages));
        auto g = pool->Fetch(p);
        if (!g.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        // Read under the pin; the first byte is the page id.
        if (g->data()[0] != static_cast<uint8_t>(p)) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        if (i % 3 == 0) g->Release();  // Otherwise released by destructor.
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0u);
  // After the join, the merged ledger must balance exactly: every request
  // is either a hit or a miss, and every miss hit the store.
  BufferStats stats = pool->AggregateStats();
  EXPECT_EQ(stats.requests,
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(stats.requests, stats.hits + stats.misses);
  EXPECT_EQ(stats.misses, store->stats().reads);
  // Pinned pages were never evicted under contention.
  EXPECT_TRUE(pool->Contains(0));
  EXPECT_TRUE(pool->Contains(1));
  EXPECT_EQ(pool->num_permanent_pins(), 2u);
}

TEST(ShardedBufferPoolConcurrencyTest, ConcurrentWritersToDisjointPages) {
  // Each thread mutates its own page range through the shared pool; after a
  // flush the store must hold every thread's last write (this would race —
  // and TSan would flag it — if pins or the shard locks were broken).
  constexpr int kThreads = 8;
  constexpr int kPagesPerThread = 16;
  constexpr int kRounds = 500;
  auto store = MakeStore(kThreads * kPagesPerThread);
  auto pool = ShardedBufferPool::MakeLru(store.get(), 64, 8);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, t] {
      Rng rng(50 + static_cast<uint64_t>(t));
      for (int i = 0; i < kRounds; ++i) {
        PageId p = static_cast<PageId>(
            t * kPagesPerThread +
            static_cast<int>(rng.UniformInt(kPagesPerThread)));
        auto g = pool->FetchMutable(p);
        ASSERT_TRUE(g.ok());
        g->mutable_data()[2] = static_cast<uint8_t>(t + 1);
      }
    });
  }
  for (auto& th : threads) th.join();

  ASSERT_TRUE(pool->FlushAll().ok());
  std::vector<uint8_t> buf(kPageSize);
  for (int t = 0; t < kThreads; ++t) {
    // Every page a thread touched carries that thread's tag or is untouched.
    for (int i = 0; i < kPagesPerThread; ++i) {
      PageId p = static_cast<PageId>(t * kPagesPerThread + i);
      ASSERT_TRUE(store->Read(p, buf.data()).ok());
      EXPECT_TRUE(buf[2] == 0 || buf[2] == static_cast<uint8_t>(t + 1))
          << "page " << p << " tagged by wrong thread: " << int{buf[2]};
    }
  }
}

TEST(ShardedBufferPoolConcurrencyTest, HeldPinsLeaveRoomInSmallPool) {
  // Four threads each hold one pin on a ~24-frame pool asking for 16
  // shards while every thread sweeps all pages. A shard of one or two
  // frames would be filled by another thread's held pin and fail the
  // sweep's fetch with ResourceExhausted; the per-shard frame floor keeps
  // room for every concurrent pin.
  constexpr int kThreads = 4;
  constexpr int kPages = 64;
  auto store = MakeStore(kPages);
  auto pool = ShardedBufferPool::MakeLru(store.get(), 24, 16);
  std::barrier sync(kThreads);
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto held = pool->Fetch(static_cast<PageId>(t));
      if (!held.ok()) failures.fetch_add(1, std::memory_order_relaxed);
      sync.arrive_and_wait();  // Every thread now holds its pin.
      for (PageId p = 0; p < kPages; ++p) {
        auto g = pool->Fetch(p);
        if (!g.ok() || g->data()[0] != static_cast<uint8_t>(p)) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
      sync.arrive_and_wait();  // No pin drops before every sweep is done.
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0u);
}

TEST(ShardedBufferPoolConcurrencyTest, GuardsReleasableOnOtherThreads) {
  // PageGuards may migrate across threads: pins are atomic and release
  // re-takes the owning shard's lock, so handing a guard to another thread
  // to drop is safe.
  auto store = MakeStore(32);
  auto pool = ShardedBufferPool::MakeLru(store.get(), 16, 4);
  std::vector<PageGuard> guards;
  for (PageId p = 0; p < 8; ++p) {
    auto g = pool->Fetch(p);
    ASSERT_TRUE(g.ok());
    guards.push_back(std::move(*g));
  }
  std::thread releaser([&guards] {
    for (auto& g : guards) g.Release();
  });
  releaser.join();
  // All pins dropped: EvictAll succeeds (it refuses while guards are held).
  EXPECT_TRUE(pool->EvictAll().ok());
}

}  // namespace
}  // namespace rtb::storage
