// Failure-injection tests: I/O errors must propagate as Status through the
// buffer pool and the R-tree without crashes, leaks of frames, or state
// corruption — and the system must recover once the fault clears.

#include <cstdio>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "data/datasets.h"
#include "rtree/bulk_load.h"
#include "rtree/knn.h"
#include "rtree/rtree.h"
#include "rtree/summary.h"
#include "storage/buffer_pool.h"
#include "storage/fault_injection.h"
#include "storage/file_page_store.h"
#include "storage/page_store.h"
#include "util/rng.h"

namespace rtb::storage {
namespace {

using geom::Point;
using geom::Rect;

TEST(FaultInjectionTest, PassThroughWhenHealthy) {
  MemPageStore base(64);
  FaultInjectingPageStore store(&base);
  auto id = store.Allocate();
  ASSERT_TRUE(id.ok());
  std::vector<uint8_t> buf(64, 7);
  ASSERT_TRUE(store.Write(*id, buf.data()).ok());
  std::vector<uint8_t> out(64);
  ASSERT_TRUE(store.Read(*id, out.data()).ok());
  EXPECT_EQ(out[0], 7);
}

TEST(FaultInjectionTest, FailNextReadsCountsDown) {
  MemPageStore base(64);
  FaultInjectingPageStore store(&base);
  (void)store.Allocate();
  std::vector<uint8_t> buf(64);
  store.FailNextReads(2, Status::IoError("boom"));
  EXPECT_EQ(store.Read(0, buf.data()).code(), StatusCode::kIoError);
  EXPECT_EQ(store.Read(0, buf.data()).code(), StatusCode::kIoError);
  EXPECT_TRUE(store.Read(0, buf.data()).ok());
}

TEST(BufferPoolFaultTest, ReadFaultSurfacesAndFrameIsReusable) {
  MemPageStore base(64);
  FaultInjectingPageStore store(&base);
  for (int i = 0; i < 3; ++i) (void)store.Allocate();
  auto pool = BufferPool::MakeLru(&store, 2);

  store.FailNextReads(1, Status::IoError("disk died"));
  auto failed = pool->Fetch(0);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIoError);
  EXPECT_FALSE(pool->Contains(0));

  // The frame must have been returned to the free list: the pool can still
  // hold two pages.
  auto a = pool->Fetch(1);
  auto b = pool->Fetch(2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // And the faulted page is fetchable after the fault clears.
  a->Release();
  b->Release();
  auto recovered = pool->Fetch(0);
  EXPECT_TRUE(recovered.ok());
}

TEST(BufferPoolFaultTest, WritebackFaultSurfacesOnEviction) {
  MemPageStore base(64);
  FaultInjectingPageStore store(&base);
  for (int i = 0; i < 2; ++i) (void)store.Allocate();
  auto pool = BufferPool::MakeLru(&store, 1);
  {
    auto g = pool->FetchMutable(0);
    ASSERT_TRUE(g.ok());
    g->mutable_data()[0] = 9;
  }
  store.FailNextWrites(1, Status::IoError("write fault"));
  auto next = pool->Fetch(1);  // Must evict dirty page 0 -> writeback fails.
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kIoError);
  // Retry succeeds once the fault clears, and the dirty data survives.
  auto retry = pool->Fetch(1);
  ASSERT_TRUE(retry.ok());
  retry->Release();
  ASSERT_TRUE(pool->EvictAll().ok());
  std::vector<uint8_t> buf(64);
  ASSERT_TRUE(base.Read(0, buf.data()).ok());
  EXPECT_EQ(buf[0], 9);
}

TEST(BufferPoolFaultTest, CloseSurfacesWritebackFailureAndKeepsDirtyPage) {
  MemPageStore base(64);
  FaultInjectingPageStore store(&base);
  for (int i = 0; i < 2; ++i) (void)store.Allocate();
  auto pool = BufferPool::MakeLru(&store, 2);
  {
    auto g = pool->FetchMutable(0);
    ASSERT_TRUE(g.ok());
    g->mutable_data()[0] = 42;
  }
  store.FailNextWrites(1, Status::IoError("close-time write fault"));
  Status s = pool->Close();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  // The failed writeback must not have dropped the dirty data: once the
  // fault clears, Close succeeds and the page reaches the store.
  ASSERT_TRUE(pool->Close().ok());
  std::vector<uint8_t> buf(64);
  ASSERT_TRUE(base.Read(0, buf.data()).ok());
  EXPECT_EQ(buf[0], 42);
}

TEST(FaultInjectionTest, HealthyBatchKeepsBaseVectoredPath) {
  const char* path = "/tmp/rtb_fault_batch_test.store";
  auto file = FilePageStore::Create(path);
  ASSERT_TRUE(file.ok());
  std::vector<uint8_t> buf((*file)->page_size());
  for (int i = 0; i < 8; ++i) {
    auto id = (*file)->Allocate();
    ASSERT_TRUE(id.ok());
    buf[0] = static_cast<uint8_t>(0x40 + i);
    ASSERT_TRUE((*file)->Write(*id, buf.data()).ok());
  }
  FaultInjectingPageStore store(file->get());

  // A poisoned page outside the batch must not degrade the batch to
  // page-at-a-time reads: the base store still coalesces.
  store.FailPage(7, Status::IoError("bad sector"));
  const PageId ids[4] = {1, 2, 3, 4};
  std::vector<uint8_t> out(4 * store.page_size());
  uint8_t* const outs[4] = {out.data(), out.data() + store.page_size(),
                            out.data() + 2 * store.page_size(),
                            out.data() + 3 * store.page_size()};
  const uint64_t batches_before = store.stats().read_batches;
  ASSERT_TRUE(store.ReadBatch(ids, 4, outs).ok());
  EXPECT_GT(store.stats().read_batches, batches_before);
  EXPECT_EQ(out[0], 0x41);
  EXPECT_EQ(out[3 * store.page_size()], 0x44);

  // A batch that does contain the poisoned page fails.
  const PageId poisoned_ids[3] = {5, 6, 7};
  EXPECT_EQ(store.ReadBatch(poisoned_ids, 3, outs).code(),
            StatusCode::kIoError);

  // And an armed countdown fails the batch at the faulted page.
  store.FailPage(kInvalidPageId, Status::OK());
  store.FailNextReads(1, Status::IoError("transient"));
  EXPECT_EQ(store.ReadBatch(ids, 4, outs).code(), StatusCode::kIoError);
  ASSERT_TRUE(store.ReadBatch(ids, 4, outs).ok());

  ASSERT_TRUE(store.Close().ok());
  std::remove(path);
}

TEST(FaultInjectionTest, HealthyWriteBatchKeepsBaseVectoredPath) {
  const char* path = "/tmp/rtb_fault_write_batch_test.store";
  auto file = FilePageStore::Create(path);
  ASSERT_TRUE(file.ok());
  for (int i = 0; i < 8; ++i) {
    auto id = (*file)->Allocate();
    ASSERT_TRUE(id.ok());
  }
  FaultInjectingPageStore store(file->get());

  // A write-poisoned page outside the batch must not degrade the batch to
  // page-at-a-time writes: the base store still coalesces with pwritev.
  store.FailPageWrites(7, Status::IoError("bad sector"));
  const PageId ids[4] = {1, 2, 3, 4};
  std::vector<uint8_t> data(4 * store.page_size());
  const uint8_t* datas[4];
  for (int i = 0; i < 4; ++i) {
    data[static_cast<size_t>(i) * store.page_size()] =
        static_cast<uint8_t>(0x60 + i);
    datas[i] = data.data() + static_cast<size_t>(i) * store.page_size();
  }
  const uint64_t batches_before = store.stats().write_batches;
  ASSERT_TRUE(store.WriteBatch(ids, 4, datas).ok());
  EXPECT_GT(store.stats().write_batches, batches_before);
  std::vector<uint8_t> buf(store.page_size());
  ASSERT_TRUE(store.Read(4, buf.data()).ok());
  EXPECT_EQ(buf[0], 0x63);

  // A batch that does contain the poisoned page fails.
  const PageId poisoned_ids[3] = {5, 6, 7};
  std::vector<uint8_t> three(3 * store.page_size());
  const uint8_t* const threes[3] = {three.data(),
                                    three.data() + store.page_size(),
                                    three.data() + 2 * store.page_size()};
  EXPECT_EQ(store.WriteBatch(poisoned_ids, 3, threes).code(),
            StatusCode::kIoError);

  // And an armed countdown fails the batch at the faulted page.
  store.FailPageWrites(kInvalidPageId, Status::OK());
  store.FailNextWrites(1, Status::IoError("transient"));
  EXPECT_EQ(store.WriteBatch(ids, 4, datas).code(), StatusCode::kIoError);
  ASSERT_TRUE(store.WriteBatch(ids, 4, datas).ok());

  ASSERT_TRUE(store.Close().ok());
  std::remove(path);
}

TEST(BufferPoolFaultTest, FlushFaultKeepsAllPagesDirtyForRetry) {
  const char* path = "/tmp/rtb_fault_flush_test.store";
  auto file = FilePageStore::Create(path);
  ASSERT_TRUE(file.ok());
  FaultInjectingPageStore store(file->get());
  auto pool = BufferPool::MakeLru(&store, 8);
  for (int i = 0; i < 6; ++i) {
    auto g = pool->NewPage();
    ASSERT_TRUE(g.ok());
    g->mutable_data()[0] = static_cast<uint8_t>(0x70 + i);
  }

  // Fail one page's write mid-batch. The coalesced flush may have written
  // a prefix, but the pool must keep *every* page dirty, so the retry
  // rewrites them all (rewriting an already-written page is idempotent).
  store.FailPageWrites(3, Status::IoError("bad sector"));
  Status flush = pool->FlushAll();
  ASSERT_FALSE(flush.ok());
  store.FailPageWrites(kInvalidPageId, Status::OK());
  ASSERT_TRUE(pool->FlushAll().ok());
  std::vector<uint8_t> buf(store.page_size());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(store.Read(static_cast<PageId>(i), buf.data()).ok());
    EXPECT_EQ(buf[0], 0x70 + i) << "page " << i;
  }
  ASSERT_TRUE(pool->Close().ok());
  std::remove(path);
}

TEST(BufferPoolFaultTest, EvictionClusterWritebackCoalescesAndRecovers) {
  const char* path = "/tmp/rtb_fault_evict_cluster_test.store";
  auto file = FilePageStore::Create(path);
  ASSERT_TRUE(file.ok());
  FaultInjectingPageStore store(&**file);
  auto pool = BufferPool::MakeLru(&store, 4);
  // Dirty the whole pool with consecutive pages, then force an eviction:
  // the victim's writeback should cluster its dirty neighbors into one
  // vectored batch.
  for (int i = 0; i < 4; ++i) {
    auto g = pool->NewPage();
    ASSERT_TRUE(g.ok());
    g->mutable_data()[0] = static_cast<uint8_t>(0x50 + i);
  }
  const uint64_t batches_before = store.stats().write_batches;
  auto g = pool->NewPage();  // Evicts one victim, clustering the rest.
  ASSERT_TRUE(g.ok());
  EXPECT_GT(store.stats().write_batches, batches_before);
  // The clustered pages were written as data and are now clean; the store
  // holds their bytes.
  std::vector<uint8_t> buf(store.page_size());
  ASSERT_TRUE(store.Read(2, buf.data()).ok());
  EXPECT_EQ(buf[0], 0x52);
  ASSERT_TRUE(pool->Close().ok());
  std::remove(path);
}

class RTreeFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(881);
    rects_ = data::GenerateSyntheticRegion(2000, &rng);
    auto built = rtree::BuildRTree(&base_, rtree::RTreeConfig::WithFanout(16),
                                   rects_, rtree::LoadAlgorithm::kHilbertSort);
    ASSERT_TRUE(built.ok());
    built_ = *built;
    store_ = std::make_unique<FaultInjectingPageStore>(&base_);
    pool_ = BufferPool::MakeLru(store_.get(), 8);
    auto tree = rtree::RTree::Open(pool_.get(),
                                   rtree::RTreeConfig::WithFanout(16),
                                   built_.root, built_.height);
    ASSERT_TRUE(tree.ok());
    tree_ = std::make_unique<rtree::RTree>(std::move(*tree));
    ASSERT_TRUE(pool_->EvictAll().ok());
  }

  MemPageStore base_{kDefaultPageSize};
  rtree::BuiltTree built_;
  std::unique_ptr<FaultInjectingPageStore> store_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<rtree::RTree> tree_;
  std::vector<Rect> rects_;
};

TEST_F(RTreeFaultTest, SearchPropagatesIoErrorAndRecovers) {
  store_->FailNextReads(1, Status::IoError("transient"));
  std::vector<rtree::ObjectId> out;
  Status s = tree_->Search(Rect(0.4, 0.4, 0.6, 0.6), &out);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);

  // Same query succeeds after the fault clears, with complete results.
  out.clear();
  ASSERT_TRUE(tree_->Search(Rect(0.4, 0.4, 0.6, 0.6), &out).ok());
  size_t expected = 0;
  for (const Rect& r : rects_) {
    if (r.Intersects(Rect(0.4, 0.4, 0.6, 0.6))) ++expected;
  }
  EXPECT_EQ(out.size(), expected);
}

TEST_F(RTreeFaultTest, PoisonedLeafFailsOnlyQueriesTouchingIt) {
  // Poison one leaf page; queries in other regions keep working.
  auto summary = rtree::TreeSummary::Extract(&base_, built_.root);
  ASSERT_TRUE(summary.ok());
  PageId poisoned = kInvalidPageId;
  Rect poisoned_mbr;
  for (const auto& node : summary->nodes()) {
    if (node.level == 0) {
      poisoned = node.page;
      poisoned_mbr = node.mbr;
      break;
    }
  }
  ASSERT_NE(poisoned, kInvalidPageId);
  ASSERT_TRUE(pool_->EvictAll().ok());
  store_->FailPage(poisoned, Status::IoError("bad sector"));

  std::vector<rtree::ObjectId> out;
  Status hit = tree_->Search(poisoned_mbr, &out);
  EXPECT_FALSE(hit.ok());

  // A query in a disjoint region avoids the poisoned page entirely.
  Rect elsewhere = poisoned_mbr.Center().x < 0.5
                       ? Rect(0.9, 0.9, 0.95, 0.95)
                       : Rect(0.02, 0.02, 0.05, 0.05);
  out.clear();
  EXPECT_TRUE(tree_->Search(elsewhere, &out).ok());
}

TEST_F(RTreeFaultTest, InsertFailureLeavesTreeReadable) {
  store_->FailNextReads(1, Status::IoError("transient"));
  Status s = tree_->Insert(Rect(0.5, 0.5, 0.51, 0.51), 999999);
  EXPECT_FALSE(s.ok());
  // The tree remains fully readable afterwards.
  std::vector<rtree::ObjectId> out;
  ASSERT_TRUE(tree_->Search(Rect::UnitSquare(), &out).ok());
  EXPECT_GE(out.size(), rects_.size());
}

TEST_F(RTreeFaultTest, KnnPropagatesIoError) {
  store_->FailNextReads(1, Status::IoError("transient"));
  auto got = rtree::SearchKnn(*tree_, Point{0.5, 0.5}, 3);
  EXPECT_FALSE(got.ok());
  auto retry = rtree::SearchKnn(*tree_, Point{0.5, 0.5}, 3);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry->size(), 3u);
}

}  // namespace
}  // namespace rtb::storage
