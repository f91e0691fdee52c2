// Failure-path and batch-read tests for the file-backed store: corrupt or
// truncated files must fail Open with a precise status, a file that lost
// its tail must fail ReadBatch mid-batch (not fabricate zeros), injected
// faults must land mid-batch through the buffer pool without leaking
// frames, and the coalesced (preadv/pwritev) batches must move the same
// bytes as per-page Read/Write calls.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/buffer_pool.h"
#include "storage/fault_injection.h"
#include "storage/file_page_store.h"
#include "storage/page_store.h"

namespace rtb::storage {
namespace {

// One pointer per page of the contiguous buffer `buf` (`n` pages of
// `page_size` bytes), in memory order: the destination/source array of a
// ReadBatch or WriteBatch over consecutive buffers.
template <typename T>
std::vector<T*> PagePtrs(T* buf, size_t n, size_t page_size) {
  std::vector<T*> ptrs(n);
  for (size_t i = 0; i < n; ++i) ptrs[i] = buf + i * page_size;
  return ptrs;
}

class FilePageStoreFailureTest : public ::testing::Test {
 protected:
  std::string Path(const char* name) {
    // The pid keeps the store files of concurrent runs of this binary
    // disjoint.
    return ::testing::TempDir() + "/rtb_fpsf_" + std::to_string(::getpid()) +
           "_" + name;
  }

  // A store of `pages` pages at `path`; page p is filled with byte p.
  std::unique_ptr<FilePageStore> MakeStore(const std::string& path,
                                           size_t pages,
                                           size_t page_size = 128) {
    auto store = FilePageStore::Create(path, page_size);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    for (size_t p = 0; p < pages; ++p) {
      auto id = (*store)->Allocate();
      EXPECT_TRUE(id.ok());
      std::vector<uint8_t> data(page_size, static_cast<uint8_t>(p));
      EXPECT_TRUE((*store)->Write(*id, data.data()).ok());
    }
    (*store)->ResetStats();
    return std::move(*store);
  }

  // Overwrites 4 bytes at `offset` in `path`.
  void Patch(const std::string& path, std::streamoff offset, uint32_t value) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(offset);
    f.write(reinterpret_cast<const char*>(&value), sizeof(value));
    ASSERT_TRUE(f.good());
  }
};

TEST_F(FilePageStoreFailureTest, OpenFailsOnTruncatedHeader) {
  const std::string path = Path("short_header");
  {
    std::ofstream f(path, std::ios::binary);
    f << "RTBS";  // Valid magic prefix, but the header ends here.
  }
  auto opened = FilePageStore::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
  EXPECT_NE(opened.status().ToString().find("truncated header"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST_F(FilePageStoreFailureTest, OpenFailsOnUnsupportedVersion) {
  const std::string path = Path("bad_version");
  MakeStore(path, 1).reset();  // Destructor syncs a valid file.
  Patch(path, /*offset=*/4, /*version=*/99);
  auto opened = FilePageStore::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kNotSupported);
  std::remove(path.c_str());
}

TEST_F(FilePageStoreFailureTest, OpenFailsOnImplausibleHeaderFields) {
  const std::string path = Path("zero_page_size");
  MakeStore(path, 1).reset();
  Patch(path, /*offset=*/8, /*page_size=*/0);
  auto opened = FilePageStore::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST_F(FilePageStoreFailureTest, ReadBatchRejectsUnallocatedPageUpfront) {
  const std::string path = Path("bounds");
  auto store = MakeStore(path, 3);
  std::vector<uint8_t> out(3 * 128);
  const PageId ids[] = {0, 1, 7};
  EXPECT_EQ(store->ReadBatch(ids, 3, PagePtrs(out.data(), 3, 128).data())
                .code(),
            StatusCode::kNotFound);
  // Validation happens before any I/O: nothing was counted.
  EXPECT_EQ(store->stats().reads, 0u);
  store.reset();
  std::remove(path.c_str());
}

TEST_F(FilePageStoreFailureTest, ReadBatchMatchesPerPageReads) {
  const std::string path = Path("batch_bytes");
  auto store = MakeStore(path, 12);
  // A consecutive window, as the batch executor's sorted frontiers produce.
  const PageId ids[] = {3, 4, 5, 6, 7};
  std::vector<uint8_t> batched(5 * 128);
  ASSERT_TRUE(
      store->ReadBatch(ids, 5, PagePtrs(batched.data(), 5, 128).data()).ok());
  for (size_t k = 0; k < 5; ++k) {
    std::vector<uint8_t> single(128);
    ASSERT_TRUE(store->Read(ids[k], single.data()).ok());
    EXPECT_EQ(std::memcmp(single.data(), batched.data() + k * 128, 128), 0)
        << "page " << ids[k];
  }
  const IoStats stats = store->stats();
  // Per-page read accounting is the same either way (5 + 5 reads); only
  // the syscall shape differs.
  EXPECT_EQ(stats.reads, 10u);
  EXPECT_EQ(stats.read_batches, 1u);
  EXPECT_EQ(stats.batch_pages, 5u);
  EXPECT_EQ(stats.ReadSyscalls(), 6u);  // 1 preadv + 5 singles.
  store.reset();
  std::remove(path.c_str());
}

TEST_F(FilePageStoreFailureTest, ScatteredIdsNeverCoalesce) {
  const std::string path = Path("scattered");
  auto store = MakeStore(path, 8);
  const PageId ids[] = {0, 2, 4, 6};  // Runs of length one.
  std::vector<uint8_t> out(4 * 128);
  ASSERT_TRUE(
      store->ReadBatch(ids, 4, PagePtrs(out.data(), 4, 128).data()).ok());
  for (size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(out[k * 128], static_cast<uint8_t>(ids[k]));
  }
  EXPECT_EQ(store->stats().read_batches, 0u);
  EXPECT_EQ(store->stats().reads, 4u);
  store.reset();
  std::remove(path.c_str());
}

TEST_F(FilePageStoreFailureTest, WriteBatchMatchesPerPageWrites) {
  const std::string batched_path = Path("write_batched");
  const std::string single_path = Path("write_single");
  auto batched = MakeStore(batched_path, 10);
  auto single = MakeStore(single_path, 10);
  // Two runs, {1..4} and {8, 9}, as a sorted dirty set produces them.
  const PageId ids[] = {1, 2, 3, 4, 8, 9};
  std::vector<uint8_t> data(6 * 128);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(0xA0 + i * 7);
  }
  ASSERT_TRUE(batched
                  ->WriteBatch(ids, 6,
                               PagePtrs<const uint8_t>(data.data(), 6, 128)
                                   .data())
                  .ok());
  for (size_t k = 0; k < 6; ++k) {
    ASSERT_TRUE(single->Write(ids[k], data.data() + k * 128).ok());
  }
  // Both runs coalesce; per-page writes stay 6.
  EXPECT_EQ(batched->stats().writes, 6u);
  EXPECT_EQ(batched->stats().write_batches, 2u);
  EXPECT_EQ(batched->stats().write_batch_pages, 6u);
  EXPECT_EQ(batched->stats().WriteSyscalls(), 2u);
  EXPECT_EQ(single->stats().writes, 6u);
  EXPECT_EQ(single->stats().write_batches, 0u);
  EXPECT_EQ(single->stats().WriteSyscalls(), 6u);
  // Every page, written or not, reads back the same from both stores.
  for (PageId p = 0; p < 10; ++p) {
    std::vector<uint8_t> a(128), b(128);
    ASSERT_TRUE(batched->Read(p, a.data()).ok());
    ASSERT_TRUE(single->Read(p, b.data()).ok());
    EXPECT_EQ(a, b) << "page " << p;
  }
  batched.reset();
  single.reset();
  std::remove(batched_path.c_str());
  std::remove(single_path.c_str());
}

TEST_F(FilePageStoreFailureTest, ReadBatchFailsOnTruncatedData) {
  const std::string path = Path("short_data");
  MakeStore(path, 4).reset();  // Header records 4 pages.
  // Chop the file mid-way through the last page: the header still promises
  // 4 pages, but the bytes are gone. Batch and single-page reads must
  // report the short read instead of fabricating data.
  const uintmax_t full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full - 64);
  auto reopened = FilePageStore::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->num_pages(), 4u);
  const PageId ids[] = {0, 1, 2, 3};
  std::vector<uint8_t> out(4 * 128);
  Status batch =
      (*reopened)->ReadBatch(ids, 4, PagePtrs(out.data(), 4, 128).data());
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.code(), StatusCode::kIoError);
  // The single-page read agrees.
  EXPECT_EQ((*reopened)->Read(3, out.data()).code(), StatusCode::kIoError);
  reopened->reset();
  std::remove(path.c_str());
}

TEST_F(FilePageStoreFailureTest, AllocateFaultSurfacesThroughNewPage) {
  const std::string path = Path("alloc_fault");
  auto base = MakeStore(path, 0);
  FaultInjectingPageStore store(base.get());
  auto pool = BufferPool::MakeLru(&store, 4);

  store.FailNextAllocations(1, Status::IoError("disk full"));
  auto failed = pool->NewPage();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIoError);

  // The pool recovers once the fault clears: the next allocation succeeds
  // and no frame leaked from the failed attempt.
  auto page = pool->NewPage();
  ASSERT_TRUE(page.ok());
  page->Release();
  EXPECT_TRUE(pool->FlushAll().ok());
  EXPECT_TRUE(pool->EvictAll().ok());
  pool.reset();
  base.reset();
  std::remove(path.c_str());
}

TEST_F(FilePageStoreFailureTest, MidBatchFaultThroughFetchBatchLeaksNothing) {
  const std::string path = Path("midbatch_fault");
  auto base = MakeStore(path, 6);
  FaultInjectingPageStore store(base.get());
  auto pool = BufferPool::MakeLru(&store, 8);

  // Poison the middle page of the window: the wrapper degrades the batch to
  // per-page reads, so the failure lands after page 0 was read — exactly
  // mid-batch.
  store.FailPage(1, Status::IoError("bad sector"));
  const PageId ids[] = {0, 1, 2};
  auto failed = pool->FetchBatch(ids, 3);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIoError);
  // The unwind uninstalled every staged frame — nothing resident, nothing
  // pinned.
  EXPECT_FALSE(pool->Contains(0));
  EXPECT_FALSE(pool->Contains(1));
  EXPECT_FALSE(pool->Contains(2));
  EXPECT_TRUE(pool->EvictAll().ok());

  // Clearing the fault makes the same window fetchable.
  store.FailPage(kInvalidPageId, Status::OK());
  auto guards = pool->FetchBatch(ids, 3);
  ASSERT_TRUE(guards.ok());
  ASSERT_EQ(guards->size(), 3u);
  for (size_t k = 0; k < 3; ++k) {
    EXPECT_EQ((*guards)[k].data()[0], static_cast<uint8_t>(ids[k]));
  }
  guards->clear();
  EXPECT_TRUE(pool->EvictAll().ok());
  pool.reset();
  base.reset();
  std::remove(path.c_str());
}

TEST_F(FilePageStoreFailureTest, CloseFlushesAndIsIdempotent) {
  const std::string path = Path("close");
  {
    auto store = MakeStore(path, 3);
    ASSERT_TRUE(store->Close().ok());
    // Idempotent: a second Close on an already-closed store is a no-op.
    ASSERT_TRUE(store->Close().ok());
    // The store must not be used for I/O afterwards.
    std::vector<uint8_t> buf(store->page_size());
    EXPECT_FALSE(store->Read(0, buf.data()).ok());
  }
  // The header reached the disk through Close: the file reopens cleanly
  // with all pages intact.
  auto reopened = FilePageStore::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->num_pages(), 3u);
  std::vector<uint8_t> buf((*reopened)->page_size());
  ASSERT_TRUE((*reopened)->Read(2, buf.data()).ok());
  EXPECT_EQ(buf[0], 2);
  std::remove(path.c_str());
}

TEST_F(FilePageStoreFailureTest, BatchesScatterAndGatherAnyBufferOrder) {
  const std::string path = Path("scatter");
  constexpr size_t kPageSize = 128;
  auto store = MakeStore(path, 80, kPageSize);
  // One lone page, then a run of 70 consecutive ids, which splits at the
  // 64-page vectored limit: one pread, then two preadv (64 + 6 pages).
  std::vector<PageId> ids = {2};
  for (PageId p = 10; p < 80; ++p) ids.push_back(p);
  const size_t n = ids.size();
  // Page i's buffer sits at slot n - 1 - i: descending memory order, so no
  // two consecutive ids have adjacent buffers.
  std::vector<uint8_t> buf(n * kPageSize);
  std::vector<uint8_t*> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = buf.data() + (n - 1 - i) * kPageSize;

  ASSERT_TRUE(store->ReadBatch(ids.data(), n, out.data()).ok());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(std::vector<uint8_t>(out[i], out[i] + kPageSize),
              std::vector<uint8_t>(kPageSize, static_cast<uint8_t>(ids[i])))
        << "page " << ids[i];
  }
  IoStats stats = store->stats();
  EXPECT_EQ(stats.reads, n);
  EXPECT_EQ(stats.read_batches, 2u);
  EXPECT_EQ(stats.batch_pages, 70u);

  // Write new bytes back from the same descending buffers.
  std::vector<const uint8_t*> in(n);
  for (size_t i = 0; i < n; ++i) {
    std::memset(out[i], 0xC0 ^ static_cast<int>(ids[i]), kPageSize);
    in[i] = out[i];
  }
  ASSERT_TRUE(store->WriteBatch(ids.data(), n, in.data()).ok());
  stats = store->stats();
  EXPECT_EQ(stats.writes, n);
  EXPECT_EQ(stats.write_batches, 2u);
  EXPECT_EQ(stats.write_batch_pages, 70u);
  for (size_t i = 0; i < n; ++i) {
    std::vector<uint8_t> page(kPageSize);
    ASSERT_TRUE(store->Read(ids[i], page.data()).ok());
    EXPECT_EQ(page, std::vector<uint8_t>(
                        kPageSize, static_cast<uint8_t>(0xC0 ^ ids[i])))
        << "page " << ids[i];
  }
  // Pages outside the batch are untouched.
  std::vector<uint8_t> page(kPageSize);
  ASSERT_TRUE(store->Read(5, page.data()).ok());
  EXPECT_EQ(page, std::vector<uint8_t>(kPageSize, 5));
  store.reset();
  std::remove(path.c_str());
}

// The batch-first API contract: FetchBatch must count exactly what a
// Fetch-per-page loop counts, on both the pool and the store, for any mix
// of hits, misses, duplicates and evictions. Two identical stores and
// pools run the same windows — one through the PageCache base-class loop,
// one through the overridden staged path — and every counter must match.
// Runs on a MemPageStore and on a FilePageStore (param: file-backed).
class FetchBatchIdentityTest : public ::testing::TestWithParam<bool> {
 protected:
  static constexpr size_t kPageSize = 64;
  static constexpr size_t kPages = 16;

  // A store of kPages pages, page p filled with byte p, counters reset.
  std::unique_ptr<PageStore> MakeStore(const char* name) {
    std::unique_ptr<PageStore> store;
    if (GetParam()) {
      const std::string path = ::testing::TempDir() + "/rtb_fbi_" +
                               std::to_string(::getpid()) + "_" + name;
      paths_.push_back(path);
      auto file = FilePageStore::Create(path, kPageSize);
      EXPECT_TRUE(file.ok()) << file.status().ToString();
      store = std::move(*file);
    } else {
      store = std::make_unique<MemPageStore>(kPageSize);
    }
    for (size_t p = 0; p < kPages; ++p) {
      auto id = store->Allocate();
      EXPECT_TRUE(id.ok());
      std::vector<uint8_t> data(kPageSize, static_cast<uint8_t>(p));
      EXPECT_TRUE(store->Write(*id, data.data()).ok());
    }
    store->ResetStats();
    return store;
  }

  void TearDown() override {
    for (const std::string& path : paths_) std::remove(path.c_str());
  }

 private:
  std::vector<std::string> paths_;
};

TEST_P(FetchBatchIdentityTest, StatsAreByteIdenticalToLoopFetch) {
  std::unique_ptr<PageStore> loop_store = MakeStore("loop");
  std::unique_ptr<PageStore> batch_store = MakeStore("batch");
  auto loop_pool = BufferPool::MakeLru(loop_store.get(), 6);
  auto batch_pool = BufferPool::MakeLru(batch_store.get(), 6);

  // Windows with repeats, re-fetches (hits) and capacity pressure
  // (evictions), including a descending elevator window.
  const std::vector<std::vector<PageId>> windows = {
      {0, 1, 2, 3}, {2, 3, 4, 5}, {5, 5, 6}, {9, 8, 7, 6},
      {10, 11, 12, 13}, {0, 1, 2}, {15, 14, 13, 12},
  };
  for (const std::vector<PageId>& w : windows) {
    auto loop_guards =
        loop_pool->PageCache::FetchBatch(w.data(), w.size());
    auto batch_guards = batch_pool->FetchBatch(w.data(), w.size());
    ASSERT_TRUE(loop_guards.ok());
    ASSERT_TRUE(batch_guards.ok());
    ASSERT_EQ(loop_guards->size(), batch_guards->size());
    for (size_t k = 0; k < w.size(); ++k) {
      EXPECT_EQ((*batch_guards)[k].data()[0], static_cast<uint8_t>(w[k]));
      EXPECT_EQ(std::memcmp((*loop_guards)[k].data(),
                            (*batch_guards)[k].data(), kPageSize),
                0);
    }
  }

  const BufferStats loop_stats = loop_pool->AggregateStats();
  const BufferStats batch_stats = batch_pool->AggregateStats();
  EXPECT_EQ(batch_stats.requests, loop_stats.requests);
  EXPECT_EQ(batch_stats.hits, loop_stats.hits);
  EXPECT_EQ(batch_stats.misses, loop_stats.misses);
  EXPECT_EQ(batch_stats.evictions, loop_stats.evictions);
  EXPECT_EQ(batch_stats.writebacks, loop_stats.writebacks);

  // Per-page reads match on every store. The looped path reads one page
  // per call, so it never coalesces; MemPageStore has no syscalls to save,
  // so its batch counters stay zero and the syscall counts match too. On a
  // file the batched path reads the consecutive misses of a window with
  // one preadv each.
  const IoStats loop_io = loop_store->stats();
  const IoStats batch_io = batch_store->stats();
  EXPECT_EQ(batch_io.reads, loop_io.reads);
  EXPECT_EQ(loop_io.read_batches, 0u);
  if (GetParam()) {
    EXPECT_GT(batch_io.read_batches, 0u);
    EXPECT_LT(batch_io.ReadSyscalls(), loop_io.ReadSyscalls());
  } else {
    EXPECT_EQ(batch_io.read_batches, 0u);
    EXPECT_EQ(batch_io.ReadSyscalls(), loop_io.ReadSyscalls());
  }
}

INSTANTIATE_TEST_SUITE_P(Stores, FetchBatchIdentityTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? std::string("File")
                                             : std::string("Mem");
                         });

}  // namespace
}  // namespace rtb::storage
