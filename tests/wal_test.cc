// Framing and group-commit units for storage::WalWriter / WalReader:
//
//   * CRC-32C — the known answer, and the SSE4.2 path equal to the
//     portable slicing-by-8 path at every length and alignment tried;
//   * round trip — every record type survives write + read with its LSN,
//     page id, payload and page-count field intact, and a page image's
//     zero tail is not logged;
//   * durability buffering — records buffered under a deferred window are
//     genuinely absent from the file until a sync point (the property the
//     crash tests rely on), and EnsureDurable drains them;
//   * group commit — window 1 forces one fsync per commit, window N one
//     per N commits, and Close drains the remainder;
//   * corruption — a flipped bit or a truncated tail stops the reader at
//     the last whole record with torn_tail() set, never a bad decode;
//   * file header — a file shorter than the header reads as an empty log;
//     a header-less version-1 log, a version-2 log (it may hold
//     before-images that need undo) or a foreign version is NotSupported,
//     and recovery then leaves the log and the store byte-identical;
//   * checkpoint — restarts the file with its header and a single
//     checkpoint record; a pool commit checkpoints online once the log
//     passes its bound, which keeps the file bounded;
//   * sticky death — a failed sync point kills the writer permanently.
//
// Runs with the DurableSync seam off: WalStats::fsyncs counts durability
// points, not syscalls, so the counts are exact on any filesystem.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/buffer_pool.h"
#include "storage/fault_injection.h"
#include "storage/file_page_store.h"
#include "storage/page_store.h"
#include "storage/wal.h"

namespace rtb::storage {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_durable_ = DurableSyncActive();
    SetDurableSync(false);
  }
  void TearDown() override { SetDurableSync(was_durable_); }

  std::string Path(const char* name) {
    return ::testing::TempDir() + "/rtb_wal_" + std::to_string(::getpid()) +
           "_" + name;
  }

  static uint64_t FileSize(const std::string& path) {
    struct stat st {};
    return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                          : 0;
  }

  static std::vector<uint8_t> Bytes(size_t n, uint8_t seed) {
    std::vector<uint8_t> out(n);
    for (size_t i = 0; i < n; ++i) out[i] = static_cast<uint8_t>(seed + i);
    return out;
  }

  static std::vector<uint8_t> FileBytes(const std::string& path) {
    std::ifstream f(path, std::ios::binary);
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(f), {});
  }

  static void WriteFile(const std::string& path,
                        const std::vector<uint8_t>& bytes) {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  }

  static std::vector<WalRecord> ReadAll(const std::string& path,
                                        bool* torn = nullptr) {
    auto reader = WalReader::Open(path);
    EXPECT_TRUE(reader.ok()) << reader.status().ToString();
    std::vector<WalRecord> records;
    WalRecord rec;
    while ((*reader)->Next(&rec)) records.push_back(rec);
    if (torn != nullptr) *torn = (*reader)->torn_tail();
    return records;
  }

  bool was_durable_ = false;
};

TEST_F(WalTest, Crc32cMatchesTheKnownAnswer) {
  const char* check = "123456789";
  const auto* bytes = reinterpret_cast<const uint8_t*>(check);
  EXPECT_EQ(Crc32c(0, bytes, 9), 0xE3069283u);
  EXPECT_EQ(Crc32cPortable(0, bytes, 9), 0xE3069283u);
  // Continuing from a running value equals one pass over the whole input.
  EXPECT_EQ(Crc32c(Crc32c(0, bytes, 4), bytes + 4, 5), 0xE3069283u);
  EXPECT_EQ(Crc32c(0, bytes, 0), 0u);
}

TEST_F(WalTest, HardwareCrc32cEqualsSlicingBy8) {
  // The dispatch picks the instruction exactly when the CPU has it;
  // elsewhere both sides are the portable path and agree trivially.
#if defined(__x86_64__)
  EXPECT_EQ(Crc32cHardware(), __builtin_cpu_supports("sse4.2") != 0);
#else
  EXPECT_FALSE(Crc32cHardware());
#endif
  std::vector<uint8_t> buf(4096 + 8);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<uint8_t>(i * 131 + (i >> 7));
  }
  std::vector<size_t> lengths;
  for (size_t len = 0; len <= 64; ++len) lengths.push_back(len);
  lengths.push_back(4096);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len : lengths) {
      const uint8_t* p = buf.data() + offset;
      EXPECT_EQ(Crc32c(0, p, len), Crc32cPortable(0, p, len))
          << "offset " << offset << " length " << len;
      EXPECT_EQ(Crc32c(0x12345678u, p, len),
                Crc32cPortable(0x12345678u, p, len))
          << "seeded, offset " << offset << " length " << len;
    }
  }
}

TEST_F(WalTest, RejectsZeroWindow) {
  WalWriter::Options options;
  options.group_commit_window = 0;
  auto writer = WalWriter::Create(Path("zero_window"), options);
  EXPECT_EQ(writer.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(WalTest, RoundTripsEveryRecordType) {
  const std::string path = Path("round_trip");
  auto writer = WalWriter::Create(path);  // Window 1.
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  const std::vector<uint8_t> after = Bytes(64, 10);
  // A node page is zero past its last entry; that tail is not logged.
  std::vector<uint8_t> zero_tail = Bytes(40, 90);
  zero_tail.resize(64, 0);
  EXPECT_EQ((*writer)->AppendPageImage(3, after.data(), after.size()), 1u);
  EXPECT_EQ(
      (*writer)->AppendPageImage(4, zero_tail.data(), zero_tail.size()), 2u);
  auto commit = (*writer)->Commit(/*num_pages=*/17);
  ASSERT_TRUE(commit.ok());
  EXPECT_EQ(*commit, 3u);
  EXPECT_TRUE((*writer)->Durable(*commit));  // Window 1 forces the group.
  ASSERT_TRUE((*writer)->Close().ok());

  bool torn = true;
  const std::vector<WalRecord> records = ReadAll(path, &torn);
  EXPECT_FALSE(torn);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].type, WalRecordType::kPageImage);
  EXPECT_EQ(records[0].lsn, 1u);
  EXPECT_EQ(records[0].page_id, 3u);
  EXPECT_EQ(records[0].payload, after);
  EXPECT_EQ(records[1].type, WalRecordType::kPageImage);
  EXPECT_EQ(records[1].page_id, 4u);
  EXPECT_EQ(records[1].payload, Bytes(40, 90));
  EXPECT_EQ(records[2].type, WalRecordType::kCommit);
  EXPECT_EQ(records[2].lsn, 3u);
  EXPECT_EQ(records[2].num_pages, 17u);
}

TEST_F(WalTest, DeferredRecordsStayOutOfTheFileUntilASyncPoint) {
  const std::string path = Path("deferred");
  WalWriter::Options options;
  options.group_commit_window = 8;
  auto writer = WalWriter::Create(path, options);
  ASSERT_TRUE(writer.ok());
  const std::vector<uint8_t> image = Bytes(32, 1);
  (*writer)->AppendPageImage(0, image.data(), image.size());
  auto commit = (*writer)->Commit(1);
  ASSERT_TRUE(commit.ok());
  // Two records buffered, no sync point yet: the file must hold only its
  // header — that is what makes a simulated crash lose exactly the
  // unsynced suffix.
  EXPECT_EQ(FileSize(path), kWalFileHeaderSize);
  EXPECT_FALSE((*writer)->Durable(*commit));
  EXPECT_EQ((*writer)->stats().fsyncs, 0u);

  ASSERT_TRUE((*writer)->EnsureDurable(*commit).ok());
  EXPECT_TRUE((*writer)->Durable(*commit));
  EXPECT_EQ((*writer)->stats().fsyncs, 1u);
  EXPECT_GT(FileSize(path), kWalFileHeaderSize);
  ASSERT_TRUE((*writer)->Close().ok());
  EXPECT_EQ(ReadAll(path).size(), 2u);
}

TEST_F(WalTest, GroupCommitCoalescesDurabilityPoints) {
  const std::vector<uint8_t> image = Bytes(48, 3);

  // Window 1: every commit is its own durability point.
  auto forced = WalWriter::Create(Path("window1"));
  ASSERT_TRUE(forced.ok());
  for (int i = 0; i < 8; ++i) {
    (*forced)->AppendPageImage(0, image.data(), image.size());
    ASSERT_TRUE((*forced)->Commit(1).ok());
  }
  EXPECT_EQ((*forced)->stats().commits, 8u);
  EXPECT_EQ((*forced)->stats().fsyncs, 8u);
  ASSERT_TRUE((*forced)->Close().ok());

  // Window 8: sixteen commits drain twice.
  WalWriter::Options options;
  options.group_commit_window = 8;
  auto grouped = WalWriter::Create(Path("window8"), options);
  ASSERT_TRUE(grouped.ok());
  for (int i = 0; i < 16; ++i) {
    (*grouped)->AppendPageImage(0, image.data(), image.size());
    ASSERT_TRUE((*grouped)->Commit(1).ok());
  }
  EXPECT_EQ((*grouped)->stats().commits, 16u);
  EXPECT_EQ((*grouped)->stats().fsyncs, 2u);

  // A partial group (3 more commits) drains once on Close.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE((*grouped)->Commit(1).ok());
  }
  EXPECT_EQ((*grouped)->stats().fsyncs, 2u);
  ASSERT_TRUE((*grouped)->Close().ok());
  EXPECT_EQ((*grouped)->stats().fsyncs, 3u);
}

TEST_F(WalTest, ReaderRejectsAFlippedBit) {
  const std::string path = Path("crc");
  auto writer = WalWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE((*writer)->Commit(1).ok());  // 24B header + 8B payload each.
  }
  ASSERT_TRUE((*writer)->Close().ok());
  ASSERT_EQ(ReadAll(path).size(), 3u);

  // Flip one payload bit of the middle record (past the file header and
  // the first 32-byte record, then the middle record's 24-byte frame
  // header).
  {
    const std::streamoff offset = kWalFileHeaderSize + 32 + 24;
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(offset);
    char b = 0;
    f.read(&b, 1);
    f.seekp(offset);
    b = static_cast<char>(b ^ 0x01);
    f.write(&b, 1);
  }
  bool torn = false;
  const std::vector<WalRecord> records = ReadAll(path, &torn);
  EXPECT_TRUE(torn);
  ASSERT_EQ(records.size(), 1u);  // The scan stops at the bad frame.
  EXPECT_EQ(records[0].lsn, 1u);
}

TEST_F(WalTest, ReaderStopsAtATruncatedTail) {
  const std::string path = Path("torn");
  auto writer = WalWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Commit(1).ok());
  ASSERT_TRUE((*writer)->Commit(2).ok());
  ASSERT_TRUE((*writer)->Close().ok());
  const uint64_t full = FileSize(path);
  ASSERT_TRUE(::truncate(path.c_str(), static_cast<off_t>(full - 5)) == 0);

  bool torn = false;
  const std::vector<WalRecord> records = ReadAll(path, &torn);
  EXPECT_TRUE(torn);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].num_pages, 1u);

  auto reader = WalReader::Open(path);
  ASSERT_TRUE(reader.ok());
  WalRecord rec;
  while ((*reader)->Next(&rec)) {
  }
  // The header and one whole record.
  EXPECT_EQ((*reader)->valid_bytes(),
            kWalFileHeaderSize + (full - kWalFileHeaderSize) / 2);
}

TEST_F(WalTest, AFileShorterThanTheHeaderIsAnEmptyLog) {
  for (size_t len : {size_t{0}, size_t{7}, kWalFileHeaderSize - 1}) {
    const std::string path = Path("short");
    WriteFile(path, Bytes(len, 1));
    auto reader = WalReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    WalRecord rec;
    EXPECT_FALSE((*reader)->Next(&rec));
    EXPECT_FALSE((*reader)->torn_tail());
    EXPECT_EQ((*reader)->valid_bytes(), 0u);
  }
  // A fresh log is exactly its header, and reads as empty too.
  const std::string path = Path("fresh");
  auto writer = WalWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Close().ok());
  EXPECT_EQ(FileSize(path), kWalFileHeaderSize);
  bool torn = true;
  EXPECT_TRUE(ReadAll(path, &torn).empty());
  EXPECT_FALSE(torn);
}

TEST_F(WalTest, AForeignVersionIsNotSupported) {
  const std::string path = Path("version3");
  auto writer = WalWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Commit(1).ok());
  ASSERT_TRUE((*writer)->Close().ok());
  std::vector<uint8_t> bytes = FileBytes(path);
  const uint32_t version = kWalFormatVersion + 1;
  std::memcpy(bytes.data() + 8, &version, sizeof(version));  // After magic.
  WriteFile(path, bytes);
  auto reader = WalReader::Open(path);
  EXPECT_EQ(reader.status().code(), StatusCode::kNotSupported);
}

// IEEE CRC-32 (reflected 0xEDB88320), bit at a time: the checksum of the
// header-less version-1 format.
uint32_t Crc32Ieee(const uint8_t* data, size_t len) {
  uint32_t c = ~0u;
  for (size_t i = 0; i < len; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return ~c;
}

// One version-1 frame: crc, payload length, lsn, type, page id, payload;
// the CRC covers everything after itself.
void AppendV1Frame(std::vector<uint8_t>* log, uint64_t lsn, uint32_t type,
                   uint32_t page_id, const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> frame(24 + payload.size());
  const uint32_t len = static_cast<uint32_t>(payload.size());
  std::memcpy(frame.data() + 4, &len, 4);
  std::memcpy(frame.data() + 8, &lsn, 8);
  std::memcpy(frame.data() + 16, &type, 4);
  std::memcpy(frame.data() + 20, &page_id, 4);
  std::copy(payload.begin(), payload.end(), frame.begin() + 24);
  const uint32_t crc = Crc32Ieee(frame.data() + 4, frame.size() - 4);
  std::memcpy(frame.data(), &crc, 4);
  log->insert(log->end(), frame.begin(), frame.end());
}

TEST_F(WalTest, RecoveryRefusesAVersion1LogAndTouchesNothing) {
  constexpr size_t kPage = 512;
  const std::string path = Path("v1_store");
  const std::string wal_path = path + ".wal";
  {
    auto store = FilePageStore::Create(path, kPage);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Allocate().ok());
    const std::vector<uint8_t> old_page = Bytes(kPage, 3);
    ASSERT_TRUE((*store)->Write(0, old_page.data()).ok());
    ASSERT_TRUE((*store)->Close().ok());
  }
  // A version-1 log holding a committed after-image the store never saw:
  // read with the new CRC every frame would fail, and truncating the log
  // as a torn tail would silently lose that page.
  std::vector<uint8_t> log;
  const std::vector<uint8_t> one_page = {1, 0, 0, 0, 0, 0, 0, 0};
  AppendV1Frame(&log, 1, /*kCheckpoint=*/5, kInvalidPageId, one_page);
  AppendV1Frame(&log, 2, /*kPageImage=*/1, 0, Bytes(kPage, 200));
  AppendV1Frame(&log, 3, /*kCommit=*/4, kInvalidPageId, one_page);
  WriteFile(wal_path, log);
  const std::vector<uint8_t> store_before = FileBytes(path);

  auto reader = WalReader::Open(wal_path);
  EXPECT_EQ(reader.status().code(), StatusCode::kNotSupported);
  WalRecoveryReport report;
  auto recovered = FilePageStore::OpenWithRecovery(path, wal_path, &report);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kNotSupported)
      << recovered.status().ToString();
  EXPECT_EQ(FileBytes(wal_path), log);
  EXPECT_EQ(FileBytes(path), store_before);
}

// One version-2 frame: the version-3 framing (CRC-32C), but type 2 was
// the before-image record that recovery had to undo.
void AppendV2Frame(std::vector<uint8_t>* log, uint64_t lsn, uint32_t type,
                   uint32_t page_id, const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> frame(24 + payload.size());
  const uint32_t len = static_cast<uint32_t>(payload.size());
  std::memcpy(frame.data() + 4, &len, 4);
  std::memcpy(frame.data() + 8, &lsn, 8);
  std::memcpy(frame.data() + 16, &type, 4);
  std::memcpy(frame.data() + 20, &page_id, 4);
  std::copy(payload.begin(), payload.end(), frame.begin() + 24);
  const uint32_t crc = Crc32c(0, frame.data() + 4, frame.size() - 4);
  std::memcpy(frame.data(), &crc, 4);
  log->insert(log->end(), frame.begin(), frame.end());
}

TEST_F(WalTest, RecoveryRefusesAVersion2LogAndTouchesNothing) {
  constexpr size_t kPage = 512;
  const std::string path = Path("v2_store");
  const std::string wal_path = path + ".wal";
  const std::vector<uint8_t> committed = Bytes(kPage, 3);
  {
    // The store holds a page a version-2 pool stole mid-batch.
    auto store = FilePageStore::Create(path, kPage);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Allocate().ok());
    const std::vector<uint8_t> stolen = Bytes(kPage, 140);
    ASSERT_TRUE((*store)->Write(0, stolen.data()).ok());
    ASSERT_TRUE((*store)->Close().ok());
  }
  // Its log: the uncommitted before-image that a version-2 recovery would
  // roll the page back with. Read as redo-only, the page would keep the
  // uncommitted bytes.
  std::vector<uint8_t> log(kWalFileHeaderSize, 0);
  const char magic[8] = {'R', 'T', 'B', 'W', 'A', 'L', '\r', '\n'};
  std::memcpy(log.data(), magic, sizeof(magic));
  const uint32_t version = 2;
  std::memcpy(log.data() + 8, &version, sizeof(version));
  const std::vector<uint8_t> one_page = {1, 0, 0, 0, 0, 0, 0, 0};
  AppendV2Frame(&log, 1, /*kCheckpoint=*/5, kInvalidPageId, one_page);
  AppendV2Frame(&log, 2, /*kBeforeImage=*/2, 0, committed);
  AppendV2Frame(&log, 3, /*kPageImage=*/1, 0, Bytes(kPage, 140));
  WriteFile(wal_path, log);
  const std::vector<uint8_t> store_before = FileBytes(path);

  auto reader = WalReader::Open(wal_path);
  EXPECT_EQ(reader.status().code(), StatusCode::kNotSupported);
  WalRecoveryReport report;
  auto recovered = FilePageStore::OpenWithRecovery(path, wal_path, &report);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kNotSupported)
      << recovered.status().ToString();
  EXPECT_EQ(FileBytes(wal_path), log);
  EXPECT_EQ(FileBytes(path), store_before);
}

TEST_F(WalTest, CheckpointRestartsTheLog) {
  const std::string path = Path("checkpoint");
  auto writer = WalWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  const std::vector<uint8_t> image = Bytes(128, 5);
  for (int i = 0; i < 4; ++i) {
    (*writer)->AppendPageImage(static_cast<PageId>(i), image.data(),
                               image.size());
    ASSERT_TRUE((*writer)->Commit(i + 1).ok());
  }
  const uint64_t before = FileSize(path);
  ASSERT_TRUE((*writer)->Checkpoint(/*num_pages=*/4).ok());
  EXPECT_LT(FileSize(path), before);
  EXPECT_EQ(FileSize(path), kWalFileHeaderSize + 32);  // Header + record.
  EXPECT_EQ((*writer)->stats().checkpoints, 1u);

  std::vector<WalRecord> records = ReadAll(path);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].type, WalRecordType::kCheckpoint);
  EXPECT_EQ(records[0].num_pages, 4u);

  // The log keeps working after the restart, with LSNs still monotonic.
  (*writer)->AppendPageImage(0, image.data(), image.size());
  ASSERT_TRUE((*writer)->Commit(4).ok());
  ASSERT_TRUE((*writer)->Close().ok());
  records = ReadAll(path);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_GT(records[1].lsn, records[0].lsn);
}

TEST_F(WalTest, CheckpointDueTracksTheBufferedLogSize) {
  WalWriter::Options options;
  options.group_commit_window = 8;  // Records stay buffered.
  options.checkpoint_bytes = kWalFileHeaderSize + 3 * 32;
  auto writer = WalWriter::Create(Path("due"), options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Commit(1).ok());
  ASSERT_TRUE((*writer)->Commit(1).ok());
  EXPECT_FALSE((*writer)->CheckpointDue());
  ASSERT_TRUE((*writer)->Commit(1).ok());  // Unsynced, but counted.
  EXPECT_TRUE((*writer)->CheckpointDue());
  ASSERT_TRUE((*writer)->Checkpoint(1).ok());
  EXPECT_FALSE((*writer)->CheckpointDue());
  ASSERT_TRUE((*writer)->Close().ok());
}

TEST_F(WalTest, PoolCommitsCheckpointOnlineAndBoundTheLog) {
  constexpr size_t kPage = 512;
  constexpr uint64_t kBound = 8 * 1024;
  const std::string path = Path("online");
  auto store = FilePageStore::Create(path, kPage);
  ASSERT_TRUE(store.ok());
  WalWriter::Options options;
  options.checkpoint_bytes = kBound;
  auto wal = WalWriter::Create(path + ".wal", options);
  ASSERT_TRUE(wal.ok());
  std::unique_ptr<BufferPool> pool = BufferPool::MakeLru(store->get(), 16);
  pool->AttachWal(wal->get());
  ASSERT_TRUE(pool->WalCheckpoint().ok());

  // Each commit dirties two pages: ~1 KiB of after-images, so the 8 KiB
  // bound is crossed every eight commits or so.
  for (int i = 0; i < 4; ++i) {
    auto page = pool->NewPage();
    ASSERT_TRUE(page.ok());
  }
  uint64_t max_size = 0;
  for (int c = 0; c < 40; ++c) {
    for (PageId id : {static_cast<PageId>(c % 4), PageId{3}}) {
      auto page = pool->FetchMutable(id);
      ASSERT_TRUE(page.ok());
      uint8_t* data = page->mutable_data();
      data[0] = static_cast<uint8_t>(c);
      std::memset(data + 1, 0xA5, kPage - 1);  // No zero tail to trim.
    }
    ASSERT_TRUE(pool->WalCommit().ok());
    EXPECT_FALSE((*wal)->CheckpointDue());  // Due means done by now.
    max_size = std::max(max_size, FileSize(path + ".wal"));
  }
  EXPECT_GE((*wal)->stats().checkpoints, 5u);
  // One commit's records (< 3 KiB here) can overshoot the bound before the
  // checkpoint truncates; the file never grows further than that.
  EXPECT_LT(max_size, kBound + 3 * 1024);

  // An online checkpoint leaves the store holding everything committed.
  ASSERT_TRUE(pool->Close().ok());
  ASSERT_TRUE((*wal)->Close().ok());
  std::vector<uint8_t> page(kPage);
  ASSERT_TRUE((*store)->Read(0, page.data()).ok());
  EXPECT_EQ(page[0], 36u);
  ASSERT_TRUE((*store)->Close().ok());
}

TEST_F(WalTest, AFailedSyncPointIsSticky) {
  CrashClock clock;
  CrashWalHook hook(&clock);
  WalWriter::Options options;
  options.fault_hook = &hook;
  auto writer = WalWriter::Create(Path("sticky"), options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Commit(1).ok());

  clock.budget = 0;  // The next sync point dies.
  EXPECT_FALSE((*writer)->Commit(1).ok());
  // Dead forever after, without touching the clock again.
  EXPECT_FALSE((*writer)->Commit(1).ok());
  EXPECT_FALSE((*writer)->EnsureDurable((*writer)->last_lsn()).ok());
  EXPECT_FALSE((*writer)->Close().ok());
}

}  // namespace
}  // namespace rtb::storage
